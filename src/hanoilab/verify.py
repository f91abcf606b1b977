"""Executable validation layer: sequence checks, projection, symmetry,
blocked-configuration predicates, and the named claim harnesses.

Everything here checks properties extensionally (by replaying moves and
comparing exact numbers), which is how the library certifies the
statements its solvers and recurrences rely on.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import oracle
from .model import (
    IllegalMoveError,
    Model,
    Move,
    State,
    apply_all,
    mirror_sequence,
    remove_disc,
    replay,
    third_peg,
)
from .solvers import conjecture_values, q_lengths


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
    replay(model, start, (seq,), discs)
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
    discs: list[int] = []
    expected = remove_disc(replay(model, start, (seq,), discs)[0], n)
    projected = [move for move, disc in zip(seq, discs) if disc != n]
    try:
        final = apply_all(model, remove_disc(start, n), projected)
    except IllegalMoveError as err:  # pragma: no cover - cannot happen pairwise
        raise RuntimeError(f"projected sequence became illegal: {err}") from err
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

    def fits(peg: int, named: tuple[int, ...]) -> bool:
        # `named` at the bottom of `peg`, the small discs above it or on the
        # third peg, and none above it when strict
        stack = state.stack(peg)
        rest, others = stack[len(named) :], state.stack(third_peg(initial, peg))
        return stack[: len(named)] == named and not (strict and rest) and {*rest, *others} == smalls

    # disc n alone on the initial peg leaves disc n-1 on another one
    is_l = state.stack(initial) == (n,) and fits(state.peg_of(n - 1), (n - 1,))
    is_lp = not state.stack(initial) and fits(state.peg_of(n), (n - 1, n))
    return LambdaClassification(is_l, is_lp)


# ---------------------------------------------------------------------------
# Claim harnesses.


class HarnessReport(NamedTuple):
    suite: str
    params: dict
    passed: bool
    counterexamples: tuple[dict, ...]


@functools.lru_cache(maxsize=None)  # symmetric-equals-a repeats symmetric-odd at C=1
def _symmetric_length(C: int, n: int, max_states: int) -> int | None:
    """Length of the shortest symmetric transfer 1 -> 2 at distance C."""
    return oracle.shortest_symmetric(Model.relaxed(C), n, 1, 2, max_states=max_states).distance


# Each check yields one item per case it checks: None where the claim
# holds, otherwise the counterexample.


def _eq3_vs_oracle(max_states: int, distance: int, n_max: int) -> Iterator[dict | None]:
    for row in oracle.conjecture_probe(distance, n_max, max_states=max_states).rows:
        yield None if row.match else {
            "n": row.n,
            "bfs_std": row.bfs_std,
            "expected_a": row.a_conj,
            "bfs_any": row.bfs_any,
            "expected_b": row.b_conj,
        }


def _claim51_inequality(
    max_states: int, k_values: Sequence[int], n_max: int
) -> Iterator[dict | None]:
    for k in k_values:
        y, _ = conjecture_values(n_max, k - 1)  # y(n) = a(n) = 2b(n-1) + 1
        x = q_lengths(n_max, k - 1)
        # the x-recurrence and the y(n-k) expansion are first both defined
        # at n = k+1 (x(k) is a base value, y(0) has no b(-1))
        for n in range(k + 1, n_max + 1):
            dx, dy = x[n] - x[n - k], y[n] - y[n - k]
            yield None if dx >= dy else {"k": k, "n": n, "x_increment": dx, "y_increment": dy}


def _dn_negative(max_states: int, n_max: int) -> Iterator[dict | None]:
    _, b = conjecture_values(n_max, 1)
    for n in range(2, n_max + 1):
        lhs, rhs = 2 * b[n - 1] + 1, 3 * b[n - 2] + 4
        yield None if lhs < rhs else {"n": n, "lhs": lhs, "rhs": rhs}


def _symmetric_odd(
    max_states: int, distances: Sequence[int], n_max: int
) -> Iterator[dict | None]:
    for C in distances:
        for n in range(1, n_max + 1):
            length = _symmetric_length(C, n, max_states)
            odd = length is not None and length % 2
            yield None if odd else {"distance": C, "n": n, "length": length}


def _symmetric_equals_a(max_states: int, distance: int, n_max: int) -> Iterator[dict | None]:
    a, _ = conjecture_values(n_max, distance)
    for n in range(1, n_max + 1):
        length = _symmetric_length(distance, n, max_states)
        yield None if length == a[n] else dict(distance=distance, n=n, length=length, expected=a[n])


# The claim suites, in the order `verify --suite claims` runs them: name ->
# (check, the parameters it reads with their defaults, whether it searches).
# `verify --n` sets `n_max` of the suites that search.
CLAIM_SUITES: dict[str, tuple[Callable[..., Iterator[dict | None]], dict, bool]] = {
    # the search optimum equals the two-recurrence system (eq. 3)
    "eq3-vs-oracle": (_eq3_vs_oracle, {"distance": 1, "n_max": 8}, True),
    # five-step increments dominate the symmetric ones (Claim 5.1)
    "claim51-inequality": (_claim51_inequality, {"k_values": (2, 3, 4, 5), "n_max": 60}, False),
    "dn-negative": (_dn_negative, {"n_max": 60}, False),  # 2b(n-1)+1 < 3b(n-2)+4
    # shortest symmetric lengths are odd
    "symmetric-odd": (_symmetric_odd, {"distances": (1, 2, 3), "n_max": 7}, True),
    # the shortest symmetric transfer equals the standard-to-standard optimum
    "symmetric-equals-a": (_symmetric_equals_a, {"distance": 1, "n_max": 7}, True),
}


def claim_harness(
    name: str,
    params: Mapping | None = None,
    *,
    max_states: int = oracle.DEFAULT_STATE_BUDGET,
) -> HarnessReport:
    """Run the suite `name` of `CLAIM_SUITES` and report pass/fail with
    counterexamples.  `verify --suite claims` runs every suite in table
    order, and its `--n` sizes the suites that search.  A parameter the
    suite does not read, or parameters that leave it no case to check,
    raise `ValueError`.
    """
    if name not in CLAIM_SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(CLAIM_SUITES)}")
    check, defaults, _ = CLAIM_SUITES[name]
    unread = sorted(set(params or ()) - set(defaults))
    if unread:
        raise ValueError(f"suite {name!r} does not read {unread}; it reads {sorted(defaults)}")
    merged = {**defaults, **(params or {})}
    results = list(check(max_states, **merged))
    if not results:
        raise ValueError(f"suite {name!r} checks no case with {merged}")
    counterexamples = tuple(item for item in results if item is not None)
    return HarnessReport(
        suite=name,
        params={k: list(v) if isinstance(v, tuple) else v for k, v in merged.items()},
        passed=not counterexamples,
        counterexamples=counterexamples,
    )
