"""Executable validation layer: sequence checks, projection, symmetry,
blocked-configuration predicates, and the named claim harnesses.

Everything here checks properties extensionally (by replaying moves and
comparing exact numbers), which is how the library certifies the
statements its solvers and recurrences rely on.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple, Sequence

from . import oracle, recurrence
from .model import (
    IllegalMoveError,
    Model,
    Move,
    State,
    _replay,
    apply_all,
    mirror_sequence,
    remove_disc,
    third_peg,
)


class ValidationReport(NamedTuple):
    """Non-raising replay outcome.  `ok` implies a final state is present
    and no bad index is reported; indices are 1-based."""

    ok: bool
    length: int
    first_bad_index: int | None = None
    final_state: State | None = None
    reason: str | None = None


def validate_sequence(
    model: Model, start: State, seq: Sequence[Move]
) -> ValidationReport:
    """Replay `seq` from `start` and report instead of raising."""
    try:
        final = apply_all(model, start, seq)
    except IllegalMoveError as err:
        return ValidationReport(
            ok=False, length=len(seq), first_bad_index=err.index, reason=err.reason
        )
    return ValidationReport(ok=True, length=len(seq), final_state=final)


def moved_discs(model: Model, start: State, seq: Sequence[Move]) -> list[int]:
    """The disc carried by each move; raises like `apply_all` on the first
    illegal move."""
    discs: list[int] = []
    _replay(model, start, (seq,), discs)
    return discs


def is_symmetric(
    seq: Sequence[Move],
    src: int,
    tgt: int,
    *,
    model: Model | None = None,
    start: State | None = None,
) -> bool:
    """True iff the sequence equals its own mirrored reverse.

    Position i must hold the mirror image of position L+1-i (src/tgt
    swapped, direction reversed); for odd L the middle move must be its
    own mirror, i.e. src>tgt or tgt>src.  When a model and start state are
    supplied the sequence is also replayed and the disc moved at i must
    equal the disc moved at L+1-i; an illegal replay counts as not
    symmetric.
    """
    if src == tgt:
        raise ValueError("src and tgt must differ")
    moves = list(seq)
    if moves != mirror_sequence(moves, src, tgt):
        return False
    if model is not None and start is not None:
        try:
            discs = moved_discs(model, start, moves)
        except IllegalMoveError:
            return False
        return discs == discs[::-1]
    return True


def project_out_largest(
    seq: Sequence[Move], model: Model, start: State
) -> list[Move]:
    """Remove every move of the largest disc.

    The remaining subsequence is legal from the start state with the
    largest disc deleted, and its length is |seq| minus the number of
    moves the largest disc made.  An illegal input sequence raises with
    the index of the first bad move.
    """
    n = start.n
    if n == 0:
        apply_all(model, start, seq)
        return []
    discs = moved_discs(model, start, seq)
    projected = [move for move, disc in zip(seq, discs) if disc != n]
    reduced = remove_disc(start, n)
    try:
        final = apply_all(model, reduced, projected)
    except IllegalMoveError as err:  # pragma: no cover - cannot happen pairwise
        raise RuntimeError(f"projected sequence became illegal: {err}") from err
    expected = remove_disc(apply_all(model, start, seq), n)
    if final != expected:  # pragma: no cover - cannot happen pairwise
        raise RuntimeError("projection must land on the reduced final state")
    return projected


class LambdaClassification(NamedTuple):
    is_lambda: bool
    is_lambda_prime: bool


def lambda_predicates(
    state: State, n: int, initial: int, *, strict: bool = True
) -> LambdaClassification:
    """Classify the two blocked configurations of the lower-bound argument.

    A state is "lambda" when the largest disc sits alone on the initial
    peg, disc n-1 sits on another peg, and discs 1..n-2 occupy the third
    peg in some legal order.  It is "lambda-prime" when the initial peg is
    empty, disc n rests directly on disc n-1, and the small discs occupy
    the third peg.  `strict` pins the named discs alone on their pegs
    (what the lower-bound argument uses); the relaxed reading allows
    leftover small discs above them as long as the state is legal.
    """
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


# ---------------------------------------------------------------------------
# Claim harnesses.


class HarnessReport(NamedTuple):
    suite: str
    params: dict
    passed: bool
    counterexamples: tuple[dict, ...]


_SUITE_DEFAULTS: dict[str, dict] = {
    "eq3-vs-oracle": {"distance": 1, "n_max": 8},
    "claim51-inequality": {"k_values": (2, 3, 4, 5), "n_max": 60},
    "dn-negative": {"n_max": 60},
    "symmetric-odd": {"distances": (1, 2, 3), "n_max": 7},
    "symmetric-equals-a": {"distance": 1, "n_max": 7},
}


@functools.lru_cache(maxsize=None)  # symmetric-equals-a repeats symmetric-odd at C=1
def _symmetric_length(C: int, n: int, max_states: int) -> int | None:
    """Length of the shortest symmetric transfer 1 -> 2 at distance C."""
    return oracle.shortest_symmetric(Model.relaxed(C), n, 1, 2, max_states=max_states).distance


def claim_harness(
    name: str,
    params: Mapping | None = None,
    *,
    max_states: int = oracle.DEFAULT_STATE_BUDGET,
) -> HarnessReport:
    """Run one named claim bundle and report pass/fail with counterexamples.

    Suites: "eq3-vs-oracle" (search optimum equals the two-recurrence
    system), "claim51-inequality" (five-step increments dominate the
    symmetric ones), "dn-negative" (2b(n-1)+1 < 3b(n-2)+4), "symmetric-odd"
    (shortest symmetric lengths are odd), "symmetric-equals-a" (shortest
    symmetric equals the standard-to-standard optimum).  A parameter the
    suite does not read, or parameters that leave it no case to check,
    raise `ValueError`.
    """
    if name not in _SUITE_DEFAULTS:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(_SUITE_DEFAULTS)}")
    merged = dict(_SUITE_DEFAULTS[name])
    unread = sorted(set(params or ()) - set(merged))
    if unread:
        raise ValueError(f"suite {name!r} does not read {unread}; it reads {sorted(merged)}")
    merged.update(params or ())
    n_max = merged["n_max"]
    cases = {  # the checks each suite's loops make
        "claim51-inequality": sum(max(0, n_max - k) for k in merged.get("k_values", ())),
        "dn-negative": n_max - 1,
        "symmetric-odd": len(merged.get("distances", ())) * n_max,
    }.get(name, n_max)
    if cases < 1:
        raise ValueError(f"suite {name!r} checks no case with {merged}")
    counterexamples: list[dict] = []

    if name == "eq3-vs-oracle":
        probe = oracle.conjecture_probe(merged["distance"], n_max, max_states=max_states)
        counterexamples = [
            {
                "n": row.n,
                "bfs_std": row.bfs_std,
                "expected_a": row.a_conj,
                "bfs_any": row.bfs_any,
                "expected_b": row.b_conj,
            }
            for row in probe.rows
            if not row.match
        ]

    elif name == "claim51-inequality":
        for k in merged["k_values"]:
            C = k - 1
            _, b = recurrence.conjecture_values(n_max, C)
            x = recurrence.q_lengths(n_max, C)
            y = [0] + [2 * b[n - 1] + 1 for n in range(1, n_max + 1)]
            # the x-recurrence and the y(n-k) expansion are first both
            # defined at n = k+1 (x(k) is a base value, y(0) has no b(-1))
            for n in range(k + 1, n_max + 1):
                if x[n] - x[n - k] < y[n] - y[n - k]:
                    counterexamples.append(
                        {
                            "k": k,
                            "n": n,
                            "x_increment": x[n] - x[n - k],
                            "y_increment": y[n] - y[n - k],
                        }
                    )

    elif name == "dn-negative":
        _, b = recurrence.conjecture_values(n_max, 1)
        for n in range(2, n_max + 1):
            if not 2 * b[n - 1] + 1 < 3 * b[n - 2] + 4:
                counterexamples.append(
                    {"n": n, "lhs": 2 * b[n - 1] + 1, "rhs": 3 * b[n - 2] + 4}
                )

    elif name == "symmetric-odd":
        for C in merged["distances"]:
            for n in range(1, n_max + 1):
                length = _symmetric_length(C, n, max_states)
                if length is None or length % 2 == 0:
                    counterexamples.append({"distance": C, "n": n, "length": length})

    elif name == "symmetric-equals-a":
        C = merged["distance"]
        a, _ = recurrence.conjecture_values(n_max, C)
        for n in range(1, n_max + 1):
            length = _symmetric_length(C, n, max_states)
            if length != a[n]:
                counterexamples.append(
                    {"distance": C, "n": n, "length": length, "expected": a[n]}
                )

    return HarnessReport(
        suite=name,
        params={k: list(v) if isinstance(v, tuple) else v for k, v in merged.items()},
        passed=not counterexamples,
        counterexamples=tuple(counterexamples),
    )
