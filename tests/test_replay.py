"""Differential test of the replay core against the tuple-copy reference.

`apply`, `apply_all` and `verify.moved_discs` must agree with a fold of the
old per-move `apply` (`tests/reference_replay.py`): the same final State and
moved discs, or the same exception type, move, reason and index.  Sequences
walk mostly legal moves, so they reach deep states, and mix in illegal
moves, self-loops, bad pegs and plain tuples.  Streams of blocks that reuse
tuple objects, which the core applies from a recorded effect once a block
has replayed cleanly in an equivalent context, must agree with the same
fold over their flattened moves, and `replay` counts exactly those moves.
"""

from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_replay as reference
from hanoilab.cli import all_strongly_connected_graphs
from hanoilab.model import (
    IllegalMoveError,
    Model,
    Move,
    MoveGraph,
    State,
    apply,
    apply_all,
    legal_moves,
    replay,
    standard_state,
)
from hanoilab.solvers import (
    a_symmetric,
    classical_solve,
    directed_move,
    move_blocks,
    q_sequence,
    zeta,
)
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


# ---------------------------------------------------------------------------
# Streams of blocks.

EDGES = [(i, j) for i, j in permutations((1, 2, 3), 2)]
M = {(i, j): Move(i, j) for i, j in EDGES}
SINGLES = {edge: (move,) for edge, move in M.items()}


def _after(model, state, moves):
    """The reference state after `moves`, or None once one is illegal."""
    try:
        return reference.replay(model, state, moves)[0]
    except ValueError:  # IllegalMoveError included
        return None


@st.composite
def block_streams(draw, model: Model, max_n: int = 5, max_blocks: int = 20):
    """(start, stream): a legal start and a stream of blocks drawn from a
    growing pool, so tuple objects recur in many contexts.  Most steps reuse
    a pooled block that is legal where the stream stands; the rest add the
    shared single-move block of an edge or a new block that walks mostly
    legal moves from there.  Half the streams then end with a pooled block
    that is illegal where they stand."""
    _, start = draw(legal_states(max_n=max_n, distances=(model.distance,), min_n=2))
    pool: list = []
    stream: list = []
    state: State | None = start
    for _ in range(draw(st.integers(max_blocks // 2, max_blocks))):
        fits = [block for block in pool if _after(model, state, block) is not None]
        options = legal_moves(model, state)
        if fits and draw(st.integers(0, 4)):
            block = draw(st.sampled_from(fits))
        elif options and draw(st.booleans()):
            block = SINGLES[draw(st.sampled_from(options))]
            if block not in pool:
                pool.append(block)
        else:
            moves, walk = [], state
            wild = draw(st.integers(0, 4)) == 0  # may hold any pair, legal or not
            for _ in range(draw(st.integers(1, 4))):
                options = legal_moves(model, walk) if walk is not None else []
                if options and not (wild and draw(st.booleans())):
                    move = draw(st.sampled_from(options))
                else:
                    move = Move(draw(PEG_VALUES), draw(PEG_VALUES))
                if wild and draw(st.booleans()):
                    move = tuple(move)
                moves.append(move)
                walk = _after(model, walk, [move]) if walk is not None else None
            block = tuple(moves)
            if draw(st.integers(0, 5)) == 0:
                block = list(block)  # a list is never keyed
            pool.append(block)
        stream.append(block)
        state = _after(model, state, block)
        if state is None:
            return start, stream  # nothing after an illegal move is read
    misfits = [block for block in pool if _after(model, state, block) is None]
    if misfits and draw(st.booleans()):
        stream.append(draw(st.sampled_from(misfits)))
    return start, stream


def _check_stream(model, start, stream):
    """The stream replays like the reference fold over its flattened moves,
    with and without collecting the moved discs, and counts them all."""
    flat = list(chain.from_iterable(stream))
    expected = _outcome(lambda: reference.replay(model, start, flat))
    if expected[0] == "ok":
        final, discs = expected[1]
        expected_replay, expected_discs = ("ok", (final, len(flat))), ("ok", discs)
    else:
        expected_replay = expected_discs = expected

    def collected():
        discs: list[int] = []
        replay(model, start, stream, discs)
        return discs

    assert _outcome(lambda: replay(model, start, stream)) == expected_replay
    assert _outcome(lambda: replay(model, start, iter(stream))) == expected_replay
    assert _outcome(collected) == expected_discs
    assert _outcome(lambda: moved_discs(model, start, flat)) == expected_discs


@pytest.mark.parametrize("distance", [0, 1, 2, 3])
@settings(max_examples=300, deadline=None)
@given(edges=st.sets(st.sampled_from(EDGES), min_size=2), symmetric=st.booleans(), data=st.data())
def test_block_streams_match_reference_fold(edges, symmetric, distance, data):
    if symmetric:  # so that more reversed blocks replay and contexts recur
        edges |= {(j, i) for i, j in edges}
    model = Model(MoveGraph.from_edges(edges), distance)
    start, stream = data.draw(block_streams(model))
    _check_stream(model, start, stream)


class Carried(list):
    """A `carried` list that counts the moves stepped one by one (`append`)
    and the blocks applied from a recorded effect (`+=`)."""

    stepped = applied = 0

    def append(self, disc):
        self.stepped += 1
        super().append(disc)

    def __iadd__(self, discs):
        self.applied += 1
        return super().__iadd__(discs)


def _replayed(model, start, stream) -> Carried:
    """The discs moved by one replay of `stream`, up to its first illegal
    move, counted."""
    carried = Carried()
    try:
        replay(model, start, stream, carried)
    except ValueError:
        pass
    return carried


def test_replay_counts_the_moves_it_played():
    # a tuple block applied from its record at its third occurrence, list
    # blocks and an empty block, read from a generator of blocks
    model, start = Model.classical(), standard_state(3, 1)
    block, back = (M[1, 2],), [M[2, 1]]
    stream = [block, back, block, back, block, (), [M[1, 3]]]
    assert replay(model, start, (b for b in stream)) == (State(((3,), (1,), (2,))), 6)
    assert _replayed(model, start, stream).applied == 1
    assert replay(model, start, []) == (start, 0)
    assert replay(model, start, [(), []]) == (start, 0)
    # one move past the count, disc 3 onto disc 1, fails at index 7
    with pytest.raises(IllegalMoveError) as err:
        replay(model, start, (b for b in [*stream, block]))
    assert (err.value.reason, err.value.index) == ("distance-violation", 7)


def test_block_legal_then_illegal_in_another_context():
    # 1>2 carries disc 1 from (3,2,1) three times, then disc 3 onto disc 1
    block = (M[1, 2],)
    back = [M[2, 1]]
    stream = [block, back, block, back, block, [M[1, 3]], block]
    start = standard_state(3, 1)
    _check_stream(Model.classical(), start, stream)
    with pytest.raises(IllegalMoveError) as err:
        replay(Model.classical(), start, stream)
    assert (err.value.reason, err.value.index) == ("distance-violation", 7)
    # recorded at its first keyed replay, applied at the third occurrence
    assert _replayed(Model.classical(), start, stream).applied == 1


@pytest.mark.parametrize("distance", [2, 3])
def test_remainder_minimum_at_and_below_the_clamp(distance):
    # the block carries disc d = C + 3 from peg 1 onto peg 2, so maxd - C = 3;
    # peg 2's minimum is 3 (legal), then empty (the same clamped key), then
    # 2 (illegal)
    d = distance + 3
    start = State(((d + 1, d), (3,), (1, 2)))
    block, back = (M[1, 2],), [M[2, 1]]
    stream = [block, back, block, back, [M[2, 3]], block, back, [M[3, 2]], [M[3, 2]], block]
    _check_stream(Model.relaxed(distance), start, stream)
    # recorded over a minimum of 3, applied over the emptied peg 2
    assert _replayed(Model.relaxed(distance), start, stream).applied == 1


def test_applied_block_keeps_the_minimum_below_its_segments():
    # at C = 1 the block puts disc 3 on disc 2; applied from its record, peg
    # 2's minimum must stay 2, so disc 4 may not follow
    start = State(((5, 4, 3), (2,), (1,)))
    block, back = (M[1, 2],), [M[2, 1]]
    stream = [block, back, block, back, block, [M[1, 2]]]
    _check_stream(Model.relaxed(1), start, stream)
    with pytest.raises(IllegalMoveError) as err:
        replay(Model.relaxed(1), start, stream)
    assert (err.value.reason, err.value.index) == ("distance-violation", 6)
    assert _replayed(Model.relaxed(1), start, stream).applied == 1


def test_peg_holding_exactly_and_one_below_the_block_depth():
    # two discs 1 -> 3 pop peg 1 twice: from exactly two discs, then from one
    block = (M[1, 2], M[1, 3], M[2, 3])
    back = [M[3, 2], M[3, 1], M[2, 1]]
    stream = [block, back, block, back, block, back, [M[1, 2], M[1, 3], M[2, 1]], block]
    start = State(((2, 1), (), (3,)))
    _check_stream(Model.classical(), start, stream)
    with pytest.raises(IllegalMoveError) as err:
        replay(Model.classical(), start, stream)
    assert (err.value.reason, err.value.index) == ("empty-source", 6 * 3 + 3 + 2)
    assert _replayed(Model.classical(), start, stream).applied == 1


@pytest.mark.parametrize("pair", [(1, 2), (1, 4), (0, 2)])
def test_reused_block_with_a_plain_pair(pair):
    # a block holding a plain tuple is never keyed: it plays move by move at
    # every occurrence, and a bad peg raises where the fold raises
    stream = [(M[1, 3], pair, M[2, 1], M[3, 1])] * 4
    _check_stream(Model.classical(), standard_state(2, 1), stream)
    carried = _replayed(Model.classical(), standard_state(2, 1), stream)
    assert (carried.stepped, carried.applied) == ((16 if pair == (1, 2) else 1), 0)


def test_repeated_block_is_stepped_once_per_key():
    # in the classical 14-disc stream each 10-disc transfer block recurs
    # with the larger discs arranged differently below it: one key each
    # (the largest discs' single moves go as lists, which are never keyed)
    model, start = Model.classical(), standard_state(14, 1)
    stream = [list(b) if len(b) == 1 else b for b in move_blocks(classical_solve, 14, 1, 3)]
    large = {id(block) for block in stream if len(block) == 1023}
    assert len(large) == 3 and len(stream) == 16 + 15
    carried = Carried()
    assert replay(model, start, stream, carried) == (standard_state(14, 3), 2**14 - 1)
    assert carried == reference.replay(model, start, classical_solve(14, 1, 3))[1]
    # each block object is stepped at its first occurrence and at its first
    # keyed replay; its other 16 - 2 * 3 occurrences are applied
    assert (carried.stepped, carried.applied) == (2 * 3 * 1023 + 15, 16 - 2 * 3)


@pytest.mark.parametrize("n", [14, 17, 20])
def test_classical_memo_stays_linear_in_n(n):
    stream = list(move_blocks(classical_solve, n, 1, 3))
    carried = Carried()
    final = replay(Model.classical(), standard_state(n, 1), stream, carried)
    assert final == (standard_state(n, 3), 2**n - 1)
    # every occurrence after a block's first is keyed; each one not applied
    # replayed cleanly and recorded an entry
    entries = len(stream) - len({id(block) for block in stream}) - carried.applied
    assert entries <= 2 * n
