"""Reference blocked-state classification: the `lambda_predicates` that
`hanoilab.verify` used before its strict and relaxed forms shared one test.

Each form is written out on its own, and lambda-prime first looks for
disc n directly above disc n-1 anywhere on its peg.  Tests compare
`verify.lambda_predicates` against it on every placement of a few discs.
"""

from __future__ import annotations

from hanoilab.model import State, third_peg
from hanoilab.verify import LambdaClassification


def lambda_predicates(
    state: State, n: int, initial: int, *, strict: bool = True
) -> LambdaClassification:
    if n != state.n:
        raise ValueError(f"state has {state.n} discs, expected {n}")
    if n < 2:
        return LambdaClassification(False, False)
    smalls = set(range(1, n - 1))
    is_l = False
    is_lp = False

    if state.stack(initial) == (n,):
        p2 = state.peg_of(n - 1)
        if p2 != initial:
            p3 = third_peg(initial, p2)
            s2, s3 = state.stack(p2), state.stack(p3)
            if strict:
                is_l = s2 == (n - 1,) and set(s3) == smalls
            else:
                is_l = s2[0] == n - 1 and set(s2[1:]) | set(s3) == smalls

    if not state.stack(initial):
        p2 = state.peg_of(n)
        s2 = state.stack(p2)
        if n - 1 in s2 and s2.index(n) == s2.index(n - 1) + 1:
            p3 = third_peg(initial, p2)
            s3 = state.stack(p3)
            if strict:
                is_lp = s2 == (n - 1, n) and set(s3) == smalls
            else:
                is_lp = s2[:2] == (n - 1, n) and set(s2[2:]) | set(s3) == smalls

    return LambdaClassification(is_l, is_lp)
