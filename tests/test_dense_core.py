"""The table-driven dense (distance 0) search core against its references:
the one-sided stack-tuple moves and BFS in `reference_bfs`.
"""

import itertools
import tracemalloc

import pytest

from hanoilab import dense
from hanoilab.cli import all_strongly_connected_graphs
from hanoilab.dense import _TABLE_DISCS, _dense_neighbors, _move_table
from hanoilab.model import MOVES, Model, Move, State, standard_state
from hanoilab.oracle import (
    GoalPredicate,
    SearchCapExceeded,
    bfs_distance,
    optimality_reports,
    pack_state,
)
from hanoilab.recurrence import PAIR_ORDER
from reference_bfs import _neighbors, goal_match_fn, sparse_distances, sparse_witness

GRAPHS = all_strongly_connected_graphs()
CLASSICAL = Model.classical()


def _search_orders(graph):
    """The edge orders the searches key tables by: each src, aux, tgt ->
    1, 2, 3 relabeling of the sorted edges (the identity is the sorted
    order), and the sorted reversed edges of each, as a witness sweep
    steps back over."""
    edges = graph.sorted_edges()
    orders = []
    for pegs in itertools.permutations((1, 2, 3)):
        order = tuple((pegs.index(i) + 1, pegs.index(j) + 1) for i, j in edges)
        orders += [order, tuple(sorted((j, i) for i, j in order))]
    return list(dict.fromkeys(orders))


def _stacks(code, n):
    """The forced stacks of a base-3 code, bottom disc first."""
    stacks = ([], [], [])
    for disc in range(n, 0, -1):
        stacks[code // 3 ** (disc - 1) % 3].append(disc)
    return tuple(map(tuple, stacks))


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_table_moves_equal_full_decoder(graph):
    orders = _search_orders(graph)
    for n in range(_TABLE_DISCS + 2):
        for code in range(3**n):
            stacks = _stacks(code, n)
            low_digits = {code // 3**i % 3 for i in range(min(n, _TABLE_DISCS))}
            for edges in orders:
                # the stack-tuple rule, with the code delta of the moved disc
                expected = [
                    (mv, (mv.dst - mv.src) * 3 ** (stacks[mv.src - 1][-1] - 1))
                    for mv, _ in _neighbors(stacks, edges, 0)
                ]
                assert _dense_neighbors(code, n, edges) == expected, (edges, n, code)
                table = _move_table(edges, min(n, _TABLE_DISCS))
                entry = table[code % len(table)]
                assert (entry is None) == (len(low_digits) <= 1), (edges, n, code)
                assert list(entry or expected) == expected, (edges, n, code)


def test_table_build_decodes_no_full_code(monkeypatch):
    # entries come from the shared decode of the low tops, one per distinct
    # triple, never from the full-code fallback
    calls = []
    decode = dense._dense_neighbors
    monkeypatch.setattr(
        dense, "_dense_neighbors", lambda *args: calls.append(args) or decode(*args)
    )
    dense._move_table.cache_clear()
    dense._low_tops.cache_clear()
    for graph in GRAPHS:
        for edges in _search_orders(graph):
            for k in range(_TABLE_DISCS + 1):
                table = _move_table(edges, k)
                assert len(table) == 3**k
                moves = [mv for entry in table if entry for mv, _ in entry]
                assert all(mv is MOVES[mv] for mv in moves)
    assert calls == []
    assert len(set(dense._low_tops(_TABLE_DISCS))) == 93


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_dense_search_equals_sparse_search_at_distance_zero(graph):
    model = Model(graph, 0)
    for n in range(6):
        for src, tgt in PAIR_ORDER:
            start = standard_state(n, src)
            goal = GoalPredicate.standard_on(tgt)
            match = goal_match_fn(goal, n)
            d, path, explored, peak = sparse_witness(model, start.stacks, match, 10**6)
            witness = bfs_distance(model, start, goal)
            assert witness.distance == d
            assert witness.path == tuple(path)
            # a mirror search stops at half the distance (tests/test_mirror_search.py)
            mirror = n >= 1 and graph.is_mirror_closed(src, tgt)
            if not mirror:
                assert (witness.explored, witness.peak_frontier) == (explored, peak)
            found, explored, peak = sparse_distances(model, start.stacks, [match], 10**6)
            distance = bfs_distance(model, start, goal, want_path=False)
            assert distance.distance == found[0]
            if not mirror:
                assert (distance.explored, distance.peak_frontier) == (explored, peak)


@pytest.mark.parametrize("want_path", [False, True])
def test_search_above_budget_allocates_no_full_visited_map(want_path):
    n = 30
    goal = State((tuple(range(n, 1, -1)), (1,), ()))
    tracemalloc.start()
    try:
        result = bfs_distance(
            CLASSICAL, standard_state(n, 1), GoalPredicate.exact(goal), want_path=want_path
        )
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.distance == 1
    assert result.path == ((Move(1, 2),) if want_path else None)
    assert peak_bytes < 1_000_000


def test_budget_equal_to_state_space_never_fires():
    # the mirror search stores the 3**(n-1) + 2 states within 2**(n-1) moves
    n = 4
    goal = GoalPredicate.standard_on(2)
    full = bfs_distance(CLASSICAL, standard_state(n, 1), goal, max_states=3 ** (n - 1) + 2)
    assert full.explored == 3 ** (n - 1) + 2
    assert full.distance == 2**n - 1
    with pytest.raises(SearchCapExceeded):
        bfs_distance(CLASSICAL, standard_state(n, 1), goal, max_states=3 ** (n - 1) + 1)


@pytest.mark.parametrize("want_path", [False, True])
@pytest.mark.parametrize(
    # n=8 without a path marks a bytearray; the other three fill a dict
    "n, cap, level",
    [(8, 100, 20), (12, 1000, 88)],
)
def test_cap_is_checked_as_each_state_is_inserted(n, cap, level, want_path):
    with pytest.raises(SearchCapExceeded) as err:
        bfs_distance(
            CLASSICAL,
            standard_state(n, 1),
            GoalPredicate.standard_on(2),
            max_states=cap,
            want_path=want_path,
        )
    # the search stops at the first state over the cap, mid-level
    assert (err.value.level, err.value.forward, err.value.backward) == (level, cap + 1, 0)


@pytest.mark.parametrize("want_path, limit", [(False, 1_500_000), (True, 4_000_000)])
def test_visited_map_is_indexed_by_code_while_smaller_than_a_dict_at_the_cap(want_path, limit):
    # 3**12 codes exceed a budget of 3**11 + 2 states, but a bytearray of
    # them (or of 4 B depths) is far smaller than a dict of 3**11 + 2
    # states, about 15 MB; the mirror search stores exactly that many
    n = 12
    tracemalloc.start()
    try:
        result = bfs_distance(
            CLASSICAL,
            standard_state(n, 1),
            GoalPredicate.standard_on(3),
            max_states=3 ** (n - 1) + 2,
            want_path=want_path,
        )
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.distance == 2**n - 1
    assert result.explored == 3 ** (n - 1) + 2
    assert peak_bytes < limit


def test_witness_stores_a_depth_per_state_not_the_levels():
    # the classical n=11 witness stores the 3**10 + 2 states within 2**10
    # moves of the start, and its depth map covers all 3**11 codes: held as
    # BFS level lists states cost about 43 B each, as depths 4 B plus the path
    n = 11
    tracemalloc.start()
    try:
        result = bfs_distance(CLASSICAL, standard_state(n, 1), GoalPredicate.standard_on(3))
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.explored == 3 ** (n - 1) + 2
    assert len(result.path) == result.distance == 2**n - 1
    assert peak_bytes < 3_000_000


def _embedded(n, k, src, tgt):
    """Discs 1..k standard on `tgt`, discs k+1..n standard on `src`."""
    stacks = [(), (), ()]
    stacks[src - 1] = tuple(range(n, k, -1))
    stacks[tgt - 1] = tuple(range(k, 0, -1))
    return State(tuple(stacks))


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_embedded_goal_distance_is_the_smaller_optimum(graph):
    # deleting the moves of discs above k keeps a sequence legal at
    # distance 0, and parked discs never block the smaller ones
    model = Model(graph, 0)
    n_max = 6
    optimum = {}
    for k in range(1, n_max + 1):
        for src in (1, 2, 3):
            targets = [tgt for tgt in (1, 2, 3) if tgt != src]
            matches = [goal_match_fn(GoalPredicate.standard_on(tgt), k) for tgt in targets]
            found, _, _ = sparse_distances(model, standard_state(k, src).stacks, matches, 10**6)
            optimum.update({(src, tgt, k): d for tgt, d in zip(targets, found)})
    for n in range(1, n_max + 1):
        for src, tgt in PAIR_ORDER:
            start = standard_state(n, src)
            for k in range(1, n + 1):
                goal = GoalPredicate.exact(_embedded(n, k, src, tgt))
                result = bfs_distance(model, start, goal, want_path=False)
                assert result.distance == optimum[src, tgt, k], (n, k, src, tgt)
    reports = optimality_reports(graph, n_max)
    assert [report.n for report in reports] == list(range(1, n_max + 1))
    for report in reports:
        for check in report.checks:
            assert check.bfs == optimum[(*check.pair, report.n)]


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_orbit_shared_distances_equal_a_search_on_the_labeled_graph(graph):
    # the reports read each distance from a search on the class graph,
    # through a relabeling; a direct search on `graph` itself must agree
    n_max = 6
    direct = {}
    for src in (1, 2, 3):
        start = pack_state(standard_state(n_max, src))
        goals = {
            pack_state(_embedded(n_max, k, src, tgt)): (src, tgt, k)
            for tgt in (1, 2, 3)
            if tgt != src
            for k in range(1, n_max + 1)
        }
        found = dense.search(n_max, graph.sorted_edges(), start, set(goals), 10**6)[0]
        direct.update({key: found[code] for code, key in goals.items()})
    shared = {(*c.pair, r.n): c.bfs for r in optimality_reports(graph, n_max) for c in r.checks}
    assert shared == direct
    model = Model(graph, 0)
    for k in range(1, 5):
        for src, tgt in PAIR_ORDER:
            match = goal_match_fn(GoalPredicate.standard_on(tgt), k)
            found, _, _ = sparse_distances(model, standard_state(k, src).stacks, [match], 10**6)
            assert direct[src, tgt, k] == found[0], (src, tgt, k)
