"""The one-sided mirror search for standard transfers on mirror-closed
graphs against the plain cores, `_dense_search` and `_sparse_search`
called directly: the same distances and witnesses, with exactly the
states within ceil(D/2) of the start stored, counted by the reference BFS.
"""

import functools

import pytest

from hanoilab import oracle, verify
from hanoilab.cli import all_strongly_connected_graphs, run
from hanoilab.model import Model, MoveGraph, State, standard_state
from hanoilab.oracle import (
    GoalPredicate,
    SearchCapExceeded,
    _dense_search,
    _sparse_search,
    bfs_distance,
    pack_state,
)
from hanoilab.recurrence import PAIR_ORDER
from reference_bfs import level_sizes

GRAPHS = all_strongly_connected_graphs()
#: the largest disc count searched at each distance
N_MAX = {0: 6, 1: 5, 2: 5, 3: 5}


def _plain(model: Model, start: State, goal: State, max_states: int, want_path: bool):
    """The search result of the core for `model`, without the mirror."""
    edges = model.graph.sorted_edges()
    if model.distance == 0:
        code = pack_state(goal)
        found = _dense_search(start.n, edges, pack_state(start), {code}, max_states, want_path)
        d, path, explored, peak = found[0].get(code), *found[1:]
    else:
        d, path, explored, peak = _sparse_search(
            edges, model.distance, start.stacks, [goal.stacks], max_states, want_path
        )
    return d, tuple(path) if path is not None else None, explored, peak


@functools.lru_cache(maxsize=None)
def _levels(model: Model, n: int, src: int) -> list[int]:
    return level_sizes(model, standard_state(n, src).stacks)


@pytest.mark.parametrize("distance", sorted(N_MAX))
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_mirror_search_equals_the_plain_core(graph, distance):
    model = Model(graph, distance)
    for n in range(N_MAX[distance] + 1):
        for src, tgt in PAIR_ORDER:
            start, goal = standard_state(n, src), standard_state(n, tgt)
            mirror = n >= 1 and graph.is_mirror_closed(src, tgt)
            for want_path in (True, False):
                result = bfs_distance(
                    model, start, GoalPredicate.standard_on(tgt), want_path=want_path
                )
                d, path, explored, peak = _plain(model, start, goal, 10**6, want_path)
                assert (result.distance, result.path) == (d, path), (n, src, tgt)
                if not mirror:  # the fallback is the plain core itself
                    assert (result.explored, result.peak_frontier) == (explored, peak)
                    continue
                levels = _levels(model, n, src)[: (d + 1) // 2 + 1]
                assert (result.explored, result.peak_frontier) == (sum(levels), max(levels))
                # a budget of exactly the stored states never fires, one less
                # does; below 3**n codes the dense core keeps a dict of depths
                capped = bfs_distance(
                    model,
                    start,
                    GoalPredicate.standard_on(tgt),
                    max_states=result.explored,
                    want_path=want_path,
                )
                assert capped == result
                with pytest.raises(SearchCapExceeded) as err:
                    bfs_distance(
                        model,
                        start,
                        GoalPredicate.standard_on(tgt),
                        max_states=result.explored - 1,
                        want_path=want_path,
                    )
                assert (err.value.forward, err.value.backward) == (result.explored, 0)


def test_some_graphs_are_not_mirror_closed():
    # the fallback above runs on real cases: the cycle-chord and linear
    # classes are not closed for every pair
    closed = [g.is_mirror_closed(*pair) for g in GRAPHS for pair in PAIR_ORDER]
    assert 0 < sum(closed) < len(closed)
    assert not MoveGraph.parse("1>2,2>1,1>3,3>1").is_mirror_closed(1, 2)
    assert MoveGraph.complete().is_mirror_closed(1, 2)


@pytest.mark.parametrize("distance", [0, 1, 2])
def test_other_starts_and_goals_keep_the_plain_core(distance):
    model = Model(MoveGraph.complete(), distance)
    n = 5
    moved = State(((5, 4, 3, 2), (), (1,)))  # disc 1 off the standard start
    goal = standard_state(n, 2)
    cases = [
        (moved, GoalPredicate.standard_on(2)),
        (standard_state(n, 1), GoalPredicate.exact(goal)),
    ]
    for start, predicate in cases:
        for want_path in (True, False):
            result = bfs_distance(model, start, predicate, want_path=want_path)
            assert tuple(result) == _plain(model, start, goal, 10**6, want_path)
    # the mirror search on the same transfer stores fewer states
    full = bfs_distance(model, standard_state(n, 1), GoalPredicate.exact(goal))
    half = bfs_distance(model, standard_state(n, 1), GoalPredicate.standard_on(2))
    assert (half.distance, half.path) == (full.distance, full.path)
    assert half.explored < full.explored


@pytest.mark.parametrize(
    "model, n, distance",
    [(Model.classical(), 12, 4095), (Model.relaxed(1), 10, 93), (Model.relaxed(2), 9, 35)],
)
def test_the_same_budget_stops_the_search_without_the_mirror(model, n, distance):
    start = standard_state(n, 1)
    half = bfs_distance(model, start, GoalPredicate.standard_on(2), want_path=False)
    assert half.distance == distance
    # an exact goal takes the plain core, which stores more
    exact = GoalPredicate.exact(standard_state(n, 2))
    with pytest.raises(SearchCapExceeded):
        bfs_distance(model, start, exact, max_states=half.explored, want_path=False)


def test_claims_suite_shares_its_symmetric_searches(capsys, monkeypatch):
    searched = []
    search = oracle.shortest_symmetric

    def counted(model, n, src, tgt, **kwargs):
        searched.append((model.distance, n))
        return search(model, n, src, tgt, **kwargs)

    monkeypatch.setattr(oracle, "shortest_symmetric", counted)
    verify._symmetric_length.cache_clear()
    argv = ["verify", "--suite", "claims", "--n", "5"]
    assert run(argv) == 0
    # symmetric-odd at C 1..3 and n 1..5; symmetric-equals-a repeats C=1
    assert sorted(searched) == [(C, n) for C in (1, 2, 3) for n in range(1, 6)]
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert len(searched) == 15
    assert capsys.readouterr().out == first
