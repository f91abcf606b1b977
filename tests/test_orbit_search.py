"""The peg-swap orbit rule of the distance >= 1 search against the same
searches with the rule switched off: a side whose origins all leave the
same two stacks empty, on a graph invariant under swapping those pegs,
expands one state of each swapped pair and stores both.
"""

import pytest

from hanoilab import oracle
from hanoilab.cli import all_strongly_connected_graphs
from hanoilab.model import Model, MoveGraph, apply_all, standard_state
from hanoilab.oracle import GoalPredicate, bfs_distance, shortest_symmetric
from hanoilab.recurrence import PAIR_ORDER
from hanoilab.verify import is_symmetric
from test_sparse_search import _goals

# every strongly connected graph, plus one whose third peg is unreachable
GRAPHS = [*all_strongly_connected_graphs(), MoveGraph.parse("1>2,2>1")]


@pytest.fixture
def no_image(monkeypatch):
    """Run a call with no side given an image."""

    def call(search, *args, **kwargs):
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_image", lambda origins, graph: None)
            return search(*args, **kwargs)

    return call


@pytest.mark.parametrize("distance", [1, 2, 3])
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_orbit_search_equals_the_search_without_images(graph, distance, no_image):
    model = Model(graph, distance)
    for n in range(6):
        for src, tgt in PAIR_ORDER:
            start = standard_state(n, src)
            mirror = n >= 1 and graph.is_mirror_closed(src, tgt)
            for goal in _goals(n, src, tgt):
                for want_path in (True, False):
                    result = bfs_distance(model, start, goal, want_path=want_path)
                    plain = no_image(bfs_distance, model, start, goal, want_path=want_path)
                    case = (n, src, tgt, goal.kind, want_path)
                    assert (result.distance, result.path) == (plain.distance, plain.path), case
                    # levels hold the same states, images counted, so the same
                    # side grows each level; the level on which the sides meet
                    # may store a different part of itself
                    assert result.peak_frontier == plain.peak_frontier, case
                    if mirror and goal.kind == "standard":  # whole levels only
                        assert result.explored == plain.explored, case


@pytest.mark.parametrize("distance", [0, 1, 2, 3])
@pytest.mark.parametrize("graph", all_strongly_connected_graphs(), ids=lambda g: g.format())
def test_symmetric_orbit_search_equals_the_search_without_images(graph, distance, no_image):
    model = Model(graph, distance)
    for src, tgt in PAIR_ORDER:
        if not (graph.is_swap_invariant(src, tgt) and graph.is_mirror_closed(src, tgt)):
            continue
        for n in range(7):
            result = shortest_symmetric(model, n, src, tgt)
            plain = no_image(shortest_symmetric, model, n, src, tgt)
            counts = (result.distance, result.explored, result.peak_frontier)
            assert counts == (plain.distance, plain.explored, plain.peak_frontier), (n, src, tgt)
            # the first midpoint found may be the image of the one found without
            start = standard_state(n, src)
            assert len(result.path) == result.distance
            assert is_symmetric(result.path, src, tgt, model=model, start=start)
            assert apply_all(model, start, result.path) == standard_state(n, tgt)


def test_mirror_search_expands_one_state_of_each_pair(monkeypatch):
    expanded = []
    expand = oracle._expand

    def counted(frontier, *args):
        expanded.append(len(frontier))
        return expand(frontier, *args)

    monkeypatch.setattr(oracle, "_expand", counted)
    model, start = Model.relaxed(1), standard_state(8, 1)
    result = bfs_distance(model, start, GoalPredicate.standard_on(2), want_path=False)
    assert result.distance == 45
    # every stored state but the last level's is expanded without the rule
    assert sum(expanded) <= 0.6 * result.explored
