"""Differential test of the replay core against the tuple-copy reference.

`apply`, `apply_all` and `verify.moved_discs` must agree with a fold of the
old per-move `apply` (`tests/reference_replay.py`): the same final State and
moved discs, or the same exception type, move, reason and index.  Sequences
walk mostly legal moves, so they reach deep states, and mix in illegal
moves, self-loops, bad pegs and plain tuples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_replay as reference
from hanoilab.cli import all_strongly_connected_graphs
from hanoilab.model import (
    IllegalMoveError,
    Model,
    Move,
    State,
    apply,
    apply_all,
    legal_moves,
    standard_state,
)
from hanoilab.solvers import a_symmetric, directed_move, q_sequence, zeta
from hanoilab.verify import moved_discs
from strategies import legal_states

GRAPHS = all_strongly_connected_graphs()

#: peg values on either side of the valid range 1..3
PEG_VALUES = st.integers(min_value=-1, max_value=4)


@st.composite
def replays(draw, model: Model, max_n: int = 6, max_len: int = 40):
    """(start, moves): a legal start state under `model`'s distance and a
    sequence that is legal for a while, then possibly not."""
    _, start = draw(legal_states(max_n=max_n, distances=(model.distance,)))
    moves = []
    state: State | None = start
    for _ in range(draw(st.integers(0, max_len))):
        options = legal_moves(model, state) if state is not None else []
        if options and draw(st.integers(0, 4)):
            move = draw(st.sampled_from(options))
        else:
            move = Move(draw(PEG_VALUES), draw(PEG_VALUES))
        if draw(st.integers(0, 9)) == 0:
            move = tuple(move)  # replay takes any (src, dst) pair
        moves.append(move)
        if state is not None:
            try:
                state = reference.apply(model, state, move)
            except ValueError:  # IllegalMoveError included
                state = None
    return start, moves


def _outcome(fn):
    try:
        return "ok", fn()
    except IllegalMoveError as err:
        return IllegalMoveError, err.move, err.reason, err.index
    except ValueError as err:
        return type(err), str(err)


def _check_against_reference(model, start, moves):
    expected = _outcome(lambda: reference.replay(model, start, moves))
    if expected[0] == "ok":
        final, discs = expected[1]
        expected_state, expected_discs = ("ok", final), ("ok", discs)
    else:
        expected_state = expected_discs = expected
    assert _outcome(lambda: apply_all(model, start, moves)) == expected_state
    assert _outcome(lambda: apply_all(model, start, iter(moves))) == expected_state
    assert _outcome(lambda: moved_discs(model, start, moves)) == expected_discs
    # single moves, along the sequence for as long as it stays legal
    state = start
    for move in moves:
        expected = _outcome(lambda: reference.apply(model, state, move))
        assert _outcome(lambda: apply(model, state, move)) == expected
        if expected[0] != "ok":
            break
        state = expected[1]


@pytest.mark.parametrize("distance", [0, 1, 2, 3])
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replay_matches_reference_fold(graph, distance, data):
    model = Model(graph, distance)
    start, moves = data.draw(replays(model))
    _check_against_reference(model, start, moves)


@pytest.mark.parametrize(
    "model, start, moves",
    [
        # every failure names the first bad move; later moves are not read
        (Model.classical(), standard_state(2, 1), [Move(1, 2), Move(1, 2), Move(9, 9)]),
        # pegs are checked before the source: a bad target beats an empty source
        (Model.classical(), standard_state(2, 1), [Move(2, 4)]),
        (Model.classical(), standard_state(2, 1), [Move(0, 2)]),
        # self-loops are never edges
        (Model.classical(), standard_state(2, 1), [Move(1, 1)]),
        (Model.classical(), standard_state(2, 1), [Move(2, 2)]),
        # the pairwise rule compares with the stack minimum, not the top disc
        (Model.relaxed(1), State(((1, 2), (3,), ())), [Move(2, 1)]),
        (Model.relaxed(1), State(((2,), (1,), (3,))), [Move(2, 3), Move(1, 3)]),
        (Model.relaxed(2), standard_state(0, 1), []),
    ],
)
def test_replay_edge_cases_match_reference(model, start, moves):
    _check_against_reference(model, start, moves)


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_directed_solutions_replay_like_reference(graph):
    model = Model.digraph(graph)
    for src, tgt in ((1, 2), (3, 1)):
        _check_against_reference(model, standard_state(6, src), directed_move(graph, src, tgt, 6))


@pytest.mark.parametrize("distance", [1, 2, 3])
def test_relaxed_constructions_replay_like_reference(distance):
    model = Model.relaxed(distance)
    start = standard_state(9, 1)
    for moves in (zeta(9, distance, 1, 2), a_symmetric(9, distance, 1, 2), q_sequence(9, distance, 1, 2)):
        _check_against_reference(model, start, moves)
