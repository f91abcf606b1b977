"""Block-memoised solvers: the same sequences as the list-building
reference solvers, blocks within their bound, and exact capped lengths."""

import functools
from itertools import chain

import pytest

import reference_solvers as ref
from hanoilab import solvers
from hanoilab.model import MoveGraph, all_strongly_connected_graphs
from hanoilab.recurrence import PAIR_ORDER, conjecture_values, eval_move_counts, q_lengths
from hanoilab.solvers import (
    a_symmetric,
    classical_solve,
    directed_move,
    move_block_streams,
    move_blocks,
    move_count,
    q_sequence,
    zeta,
)

GRAPHS = all_strongly_connected_graphs()
RELAXED = {zeta: ref.zeta, a_symmetric: ref.a_symmetric, q_sequence: ref.q_sequence}
UNCAPPED = 1 << 200


def test_classical_equals_reference():
    for n in range(13):
        for src, tgt in PAIR_ORDER:
            assert classical_solve(n, src, tgt) == ref.classical_solve(n, src, tgt)


@pytest.mark.parametrize("graph", GRAPHS, ids=MoveGraph.format)
def test_directed_equals_reference(graph):
    for n in range(13):
        for src, tgt in PAIR_ORDER:
            assert directed_move(graph, src, tgt, n) == ref.directed_move(graph, src, tgt, n)


@pytest.mark.parametrize("C", (1, 2, 3))
@pytest.mark.parametrize("solver", RELAXED, ids=lambda fn: fn.__name__)
def test_relaxed_equals_reference(solver, C):
    for n in range(13):
        for src, tgt in PAIR_ORDER:
            assert solver(n, C, src, tgt) == RELAXED[solver](n, C, src, tgt)


@pytest.mark.parametrize("block", (1, 2, 3, 7, 64))
def test_any_block_bound_gives_the_same_sequences(monkeypatch, block):
    # small bounds put block edges inside runs and inside every rule
    monkeypatch.setattr(solvers, "BLOCK_MOVES", block)
    cases = [
        (classical_solve, (9, 1, 3), ref.classical_solve),
        *((directed_move, (g, 2, 1, 6), ref.directed_move) for g in GRAPHS[:5]),
        *(
            (fn, (n, C, 3, 2), RELAXED[fn])
            for fn in RELAXED
            for C in (1, 2, 5, 9)
            for n in (0, 1, C + 1, C + 2, 13)
        ),
    ]
    for fn, args, reference in cases:
        blocks = list(move_blocks(fn, *args))
        assert all(0 < len(b) <= block for b in blocks)
        assert list(chain.from_iterable(blocks)) == reference(*args)
        assert move_count(fn, *args, cap=UNCAPPED) == len(reference(*args))


def test_blocks_are_shared_objects_within_a_walk():
    blocks = list(move_blocks(classical_solve, 16, 1, 2))
    assert len({id(b) for b in blocks}) <= 12  # six big subproblems, six single moves
    assert sum(map(len, blocks)) == 2**16 - 1


def test_lengths_equal_the_independent_counts_up_to_sixty():
    for n in range(61):
        for src, tgt in PAIR_ORDER:
            assert move_count(classical_solve, n, src, tgt, cap=UNCAPPED) == 2**n - 1
    for graph in GRAPHS:
        table = eval_move_counts(graph, 60)
        for n in range(61):
            for pair in PAIR_ORDER:
                length = move_count(directed_move, graph, *pair, n, cap=UNCAPPED)
                assert length == table.value(pair, n)
    for C in (1, 2, 3):
        a, b = conjecture_values(60, C)
        x = q_lengths(60, C)
        k = C + 1
        for n in range(61):
            assert move_count(zeta, n, C, 1, 2, cap=UNCAPPED) == b[n]
            assert move_count(a_symmetric, n, C, 1, 2, cap=UNCAPPED) == a[n]
            # the five steps bottom out in a symmetric transfer of m = 1..k
            # discs, 2m - 1 moves where the idealized x counts m: exact
            # whenever n = 1 mod k
            extra = (n - 1) % k if n else 0
            assert move_count(q_sequence, n, C, 1, 2, cap=UNCAPPED) == x[n] + extra


#: Small caps, the default `--max-moves` (2^20), its ceiling (2^64) and
#: the cap below it, and 3^40, far past the ceiling.
CAPS = (0, 1, 5, 100, 1 << 20, (1 << 64) - 1, 1 << 64, 3**40)


@pytest.mark.parametrize("graph", GRAPHS, ids=MoveGraph.format)
def test_capped_directed_lengths_are_the_counts_within_the_cap(graph):
    # the capped length stops reading rows once all six counts pass the
    # cap; below that it is the exact count
    for pair, column in eval_move_counts(graph, 69).counts.items():
        for cap in CAPS:
            for n, count in enumerate(column):
                expected = count if count <= cap else None
                assert move_count(directed_move, graph, *pair, n, cap=cap) == expected
            assert move_count(directed_move, graph, *pair, 10**6, cap=cap) is None


CONSTRUCTIVE = [
    (classical_solve, lambda n: (n, 1, 2)),
    (directed_move, lambda n: (MoveGraph.parse("1>2,2>3,3>1"), 1, 2, n)),
    *((fn, lambda n: (n, 1, 1, 2)) for fn in RELAXED),
]


@pytest.mark.parametrize("solver, args", CONSTRUCTIVE, ids=lambda v: getattr(v, "__name__", ""))
def test_count_cap_is_exact(solver, args):
    for n in (0, 1, 5, 12):
        length = len(solver(*args(n)))
        assert move_count(solver, *args(n), cap=length) == length
        if length:
            assert move_count(solver, *args(n), cap=length - 1) is None


@pytest.mark.parametrize("solver, args", CONSTRUCTIVE, ids=lambda v: getattr(v, "__name__", ""))
def test_count_of_a_huge_transfer_stops_early(solver, args):
    assert move_count(solver, *args(10**9), cap=1 << 20) is None
    assert move_count(solver, *args(10**18), cap=10**30) is None


def test_count_of_a_long_base_run_stops_at_the_cap():
    # with C >= n the zeta transfer is one run of n moves
    assert move_count(zeta, 10**12, 10**12, 1, 2, cap=10**12) == 10**12
    assert move_count(zeta, 10**12, 10**12, 1, 2, cap=10**12 - 1) is None
    assert move_count(a_symmetric, 10**12, 10**12, 1, 2, cap=10**9) is None


def test_long_runs_stream_in_bounded_blocks():
    blocks = move_blocks(zeta, 5000, 6000, 1, 3)
    sizes = [len(b) for b in blocks]
    assert sum(sizes) == 5000 and max(sizes) <= solvers.BLOCK_MOVES


def test_arguments_are_checked_before_the_first_block():
    with pytest.raises(ValueError):
        move_blocks(classical_solve, 3, 1, 1)
    with pytest.raises(ValueError):
        move_blocks(zeta, 3, 0, 1, 2)
    with pytest.raises(ValueError):
        move_count(directed_move, MoveGraph.parse("1>2,2>1"), 1, 2, 3, cap=10)


@pytest.mark.parametrize("graph", GRAPHS, ids=MoveGraph.format)
def test_streams_through_one_walk_equal_separate_walks(graph):
    calls = [(graph, src, tgt, n) for n in range(13) for src, tgt in PAIR_ORDER]
    shared = [list(blocks) for blocks in move_block_streams(directed_move, calls)]
    separate = [list(move_blocks(directed_move, *args)) for args in calls]
    assert shared == separate
    # a block that recurs across the transfers is one object, built once
    objects = [len({id(b) for b in chain.from_iterable(s)}) for s in (shared, separate)]
    assert objects[0] < objects[1]


def test_other_callables_stream_as_one_block():
    stand_in = lambda: classical_solve(3, 1, 2)  # noqa: E731
    assert list(move_blocks(stand_in)) == [tuple(classical_solve(3, 1, 2))]
    assert move_count(stand_in, cap=7) == 7
    assert move_count(stand_in, cap=6) is None
    assert list(move_blocks(lambda: [])) == []
    streams = move_block_streams(lambda n: classical_solve(n, 1, 2), [(3,), (0,)])
    assert [list(blocks) for blocks in streams] == [[tuple(classical_solve(3, 1, 2))], []]


def test_wrapped_solvers_stream_as_the_solver_they_wrap():
    # a tracer or logger that rebinds a solver name (functools.wraps) must
    # neither lose the stream nor recurse through the list wrapper
    calls = []

    @functools.wraps(classical_solve)
    def traced(*args):
        calls.append(args)
        return classical_solve(*args)

    blocks = list(move_blocks(traced, 12, 1, 3))
    assert max(map(len, blocks)) <= solvers.BLOCK_MOVES < 2**12 - 1
    assert list(chain.from_iterable(blocks)) == ref.classical_solve(12, 1, 3)
    assert move_count(traced, 12, 1, 3, cap=UNCAPPED) == 2**12 - 1
    assert calls == []


def test_public_solvers_survive_their_names_being_rebound(monkeypatch):
    for fn in (classical_solve, directed_move, *RELAXED):
        monkeypatch.setattr(solvers, fn.__name__, functools.wraps(fn)(lambda *a, fn=fn: fn(*a)))
    assert solvers.classical_solve(5, 1, 2) == ref.classical_solve(5, 1, 2)
    assert solvers.q_sequence(7, 1, 1, 2) == ref.q_sequence(7, 1, 1, 2)
