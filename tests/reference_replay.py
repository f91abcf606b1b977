"""Reference replay: the tuple-copy `apply` that `hanoilab.model` used
before its replay core, and the per-move folds over it.

Each move copies the three stack tuples and scans the target stack for its
minimum, so a move costs O(n).  It shares no replay code with the library;
tests compare `apply`, `apply_all` and `verify.moved_discs` against it.
"""

from __future__ import annotations

from typing import Iterable

from hanoilab.model import IllegalMoveError, Model, Move, State


def _check_peg(value: int) -> int:
    if value not in (1, 2, 3):
        raise ValueError(f"peg must be one of 1, 2, 3; got {value!r}")
    return value


def apply(model: Model, state: State, move: Move) -> State:
    i, j = move
    _check_peg(i)
    _check_peg(j)
    src = state.stacks[i - 1]
    if not src:
        raise IllegalMoveError(Move(i, j), "empty-source")
    if (i, j) not in model.graph.edges:
        raise IllegalMoveError(Move(i, j), "missing-edge")
    disc = src[-1]
    dst = state.stacks[j - 1]
    if dst and disc > min(dst) + model.distance:
        raise IllegalMoveError(Move(i, j), "distance-violation")
    stacks = list(state.stacks)
    stacks[i - 1] = src[:-1]
    stacks[j - 1] = dst + (disc,)
    return State((stacks[0], stacks[1], stacks[2]))


def replay(
    model: Model, state: State, seq: Iterable[Move]
) -> tuple[State, list[int]]:
    """Fold `apply` over `seq`: the final state and the disc each move
    carried.  An illegal move raises with its 1-based index."""
    discs = []
    for index, move in enumerate(seq, start=1):
        try:
            after = apply(model, state, move)
        except IllegalMoveError as err:
            raise IllegalMoveError(err.move, err.reason, index=index) from None
        discs.append(state.stacks[move[0] - 1][-1])
        state = after
    return state, discs
