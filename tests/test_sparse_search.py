"""The bidirectional search (distance >= 1) against the one-sided
reference BFS, plus its state cap and its counters."""

import hashlib
import sys
import tracemalloc
from itertools import permutations

import pytest

from hanoilab.cli import all_strongly_connected_graphs
from hanoilab.model import (
    Model,
    Move,
    MoveGraph,
    State,
    apply_all,
    stack_is_legal,
    standard_state,
    third_peg,
)
from hanoilab.oracle import (
    GoalPredicate,
    SearchCapExceeded,
    _goal_states,
    bfs_distance,
    shortest_symmetric,
)
from hanoilab.recurrence import PAIR_ORDER
from hanoilab.verify import is_symmetric
from reference_bfs import reference_search

# every strongly connected graph, plus one whose third peg is unreachable
GRAPHS = [*all_strongly_connected_graphs(), MoveGraph.parse("1>2,2>1")]


def _exact_goal(n: int, src: int, tgt: int) -> State:
    """Discs n..2 on `tgt` with the top two swapped, disc 1 on the third peg."""
    stacks: list[tuple[int, ...]] = [(), (), ()]
    big = list(range(n, 1, -1))
    if len(big) >= 2:
        big[-2], big[-1] = big[-1], big[-2]
    stacks[tgt - 1] = tuple(big)
    if n:
        stacks[third_peg(src, tgt) - 1] = (1,)
    return State((stacks[0], stacks[1], stacks[2]))


def _goals(n: int, src: int, tgt: int) -> list[GoalPredicate]:
    return [
        GoalPredicate.standard_on(tgt),
        GoalPredicate.all_on(tgt),
        GoalPredicate.exact(_exact_goal(n, src, tgt)),
    ]


@pytest.mark.parametrize("distance", [1, 2, 3])
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.format())
def test_bidirectional_search_equals_reference(graph, distance):
    model = Model(graph, distance)
    for n in range(7):
        for src, tgt in PAIR_ORDER:
            start = standard_state(n, src)
            for goal in _goals(n, src, tgt):
                d, path, _, _ = reference_search(model, start, goal)
                witness = bfs_distance(model, start, goal)
                assert witness.distance == d, (n, src, tgt, goal)
                assert witness.path == (tuple(path) if path is not None else None)
                distance_only = bfs_distance(model, start, goal, want_path=False)
                assert distance_only.distance == d
                assert distance_only.explored == witness.explored


def test_all_on_goal_with_every_order_legal():
    n = 7
    model = Model.relaxed(n - 1)
    goal = GoalPredicate.all_on(2)
    assert len(list(_goal_states(goal, n, model.distance))) == 5040
    d, path, _, _ = reference_search(model, standard_state(n, 1), goal)
    witness = bfs_distance(model, standard_state(n, 1), goal)
    assert witness.distance == d == n
    assert witness.path == tuple(path)


@pytest.mark.parametrize("C", [1, 2, 3])
def test_all_on_goals_are_every_legal_one_peg_stack_in_bottom_up_order(C):
    # permutations of 1..n come in lexicographic order, bottom disc first
    for n in range(9):
        stacks = [p for p in permutations(range(1, n + 1)) if stack_is_legal(p, C)]
        goals = list(_goal_states(GoalPredicate.all_on(3), n, C))
        assert goals == [((), (), stack) for stack in stacks], n


def test_all_on_goals_are_listed_without_dead_ends():
    # F(23) stacks at C=1, n=22; a listing that also extends stacks it
    # cannot complete needs over a minute for the 4,181 at n=18
    assert sum(1 for _ in _goal_states(GoalPredicate.all_on(2), 22, 1)) == 28_657


def test_explored_counts_both_sides_goal_states_included():
    model = Model.relaxed(2)
    seeds = len(list(_goal_states(GoalPredicate.all_on(2), 7, 2)))
    assert seeds == 124
    # one move from the goal: the start's first move meets a goal state
    start = State(((1,), tuple(range(7, 1, -1)), ()))
    result = bfs_distance(model, start, GoalPredicate.all_on(2))
    assert (result.distance, result.path) == (1, (Move(1, 2),))
    assert (result.explored, result.peak_frontier) == (1 + seeds, seeds)


def _stored_states(err) -> int:
    frame = err.traceback[-1].frame.f_locals
    return sum(map(len, frame["sides"]))  # raised while expanding a level or storing goals


def _side_counts(err) -> tuple[int, int, int]:
    """(level, forward, backward) as the frame that raised holds them."""
    frame = err.traceback[-1].frame.f_locals
    if "grow" in frame:  # raised while expanding a level of one side
        return (frame["depth"], *map(len, frame["sides"]))
    if "sides" in frame:  # raised while storing goals
        return (0, *map(len, frame["sides"]))
    return frame["level"], len(frame["visited"]), 0  # the dense core


#: the linear graph is not mirror-closed for 1 -> 2, so its standard
#: transfer grows both sides
LINEAR_C1 = Model(MoveGraph.parse("1>2,2>1,1>3,3>1"), 1)

CAPPED = {
    "forward level": lambda: bfs_distance(
        LINEAR_C1, standard_state(8, 1), GoalPredicate.standard_on(2), max_states=70
    ),
    "backward level": lambda: bfs_distance(
        LINEAR_C1, standard_state(8, 1), GoalPredicate.standard_on(2), max_states=100
    ),
    "mirror": lambda: bfs_distance(
        Model.relaxed(1), standard_state(8, 1), GoalPredicate.standard_on(2), max_states=100
    ),
    "goal states": lambda: bfs_distance(
        Model.relaxed(2), standard_state(7, 1), GoalPredicate.all_on(2), max_states=50
    ),
    "symmetric": lambda: shortest_symmetric(Model.relaxed(1), 7, 1, 2, max_states=100),
    "dense": lambda: bfs_distance(
        Model.classical(), standard_state(12, 1), GoalPredicate.standard_on(2), max_states=100
    ),
}


@pytest.mark.parametrize("case", sorted(CAPPED))
def test_cap_error_names_the_level_and_the_states_of_each_side(case):
    with pytest.raises(SearchCapExceeded) as err:
        CAPPED[case]()
    cap = err.value
    # each case raises where its name says
    assert err.traceback[-1].frame.f_locals.get("grow") == (
        None if case in ("dense", "goal states") else int(case == "backward level")
    )
    level, forward, backward = _side_counts(err)
    assert (cap.level, cap.forward, cap.backward) == (level, forward, backward)
    if case != "dense":
        assert forward + backward == _stored_states(err) == cap.cap + 1
    assert backward > 0 if "level" in case or case == "goal states" else backward == 0
    assert str(cap) == (
        f"search exceeded the state budget of {cap.cap} states at level {level}"
        f" ({forward} forward and {backward} backward states stored)"
    )


@pytest.mark.parametrize("want_path", [False, True])
def test_cap_is_checked_as_each_state_is_inserted(want_path):
    with pytest.raises(SearchCapExceeded) as err:
        bfs_distance(
            Model.relaxed(1),
            standard_state(8, 1),
            GoalPredicate.standard_on(2),
            max_states=100,
            want_path=want_path,
        )
    assert "seen" in err.traceback[-1].frame.f_locals
    assert _stored_states(err) == 101


def test_cap_counts_goal_states():
    with pytest.raises(SearchCapExceeded) as err:
        bfs_distance(
            Model.relaxed(2), standard_state(7, 1), GoalPredicate.all_on(2), max_states=50
        )
    assert "fwd" in err.traceback[-1].frame.f_locals
    assert _stored_states(err) == 51


@pytest.mark.parametrize("goal", [GoalPredicate.standard_on(2), GoalPredicate.all_on(2)])
def test_budget_equal_to_explored_never_fires(goal):
    model = Model.relaxed(1)
    start = standard_state(7, 1)
    full = bfs_distance(model, start, goal)
    assert bfs_distance(model, start, goal, max_states=full.explored) == full
    with pytest.raises(SearchCapExceeded):
        bfs_distance(model, start, goal, max_states=full.explored - 1)


def test_symmetric_search_cap_is_checked_as_each_state_is_inserted():
    model = Model.relaxed(1)
    full = shortest_symmetric(model, 7, 1, 2)
    assert shortest_symmetric(model, 7, 1, 2, max_states=full.explored) == full
    with pytest.raises(SearchCapExceeded) as err:
        shortest_symmetric(model, 7, 1, 2, max_states=100)
    assert _stored_states(err) == 101


def _sweep(model: Model, n: int, goal: GoalPredicate):
    return lambda b, want_path: bfs_distance(
        model, standard_state(n, 1), goal, max_states=b, want_path=want_path
    )


#: one search of each kind at budget b, with or without a path; the
#: linear search grows both sides, its forward side with an image
SWEPT = {
    "linear": _sweep(LINEAR_C1, 8, GoalPredicate.standard_on(2)),
    "mirror": _sweep(Model.relaxed(1), 8, GoalPredicate.standard_on(2)),
    "goal states": _sweep(Model.relaxed(2), 7, GoalPredicate.all_on(2)),
    "symmetric": lambda b, want_path: shortest_symmetric(Model.relaxed(1), 7, 1, 2, max_states=b),
}

#: sha256 of the repr of every outcome over budgets 1..399, without a path
#: and then with one: (level, forward, backward) of a cap, else the
#: `SearchResult`; recorded before `_expand` took both sides as one pair.
#: The mirror and symmetric searches store the same levels under 400 states.
SWEEP_DIGESTS = {
    "linear": "99f0b091a2863fef7b7fd14479912fc040f0ba9844e6c12539059b49fdc8a202",
    "mirror": "f90577b08d8b0a523956c8b3949b43547a32e9b20184fee791941009016faeca",
    "goal states": "b8e4c256ab1fcc49437871441f1b49e10b499e3301d0045088f5f52173c5a9cd",
    "symmetric": "f90577b08d8b0a523956c8b3949b43547a32e9b20184fee791941009016faeca",
}

#: the capped runs without a path that raise at the image store of `_expand`
#: (592 of the sweep's 1,596)
IMAGE_STORE_CAPS = {"linear": 61, "mirror": 198, "goal states": 135, "symmetric": 198}


@pytest.mark.parametrize("search", sorted(SWEPT))
def test_every_cap_of_a_budget_sweep(search):
    outcomes, image_stores = [], 0
    for want_path in (False, True):
        for budget in range(1, 400):
            try:
                outcomes.append(tuple(SWEPT[search](budget, want_path)))
                continue
            except SearchCapExceeded:
                err = pytest.ExceptionInfo.from_exc_info(sys.exc_info())
            cap = err.value
            level, forward, backward = _side_counts(err)
            assert (cap.level, cap.forward, cap.backward) == (level, forward, backward), budget
            assert forward + backward == _stored_states(err) == cap.cap + 1 == budget + 1
            outcomes.append((level, forward, backward))
            frame = err.traceback[-1].frame.f_locals
            image = frame.get("image")
            if not want_path and image and frame["nxt"] and image(frame["nxt"][-1]) == frame["new"]:
                image_stores += 1  # `new` is the image of the state stored last
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[search]
    assert image_stores == IMAGE_STORE_CAPS[search]


#: (distance, explored, peak_frontier) of `shortest_symmetric` for n = 0, 1,
#: ..., keyed (edges, C, src, tgt); recorded before the search moved onto
#: the shared level expander
SYMMETRIC_COUNTS = {
    ("1>2,1>3,2>1,2>3,3>1,3>2", 0, 1, 2): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (7, 9, 4), (15, 27, 8), (31, 81, 16), (63, 243, 32), (127, 729, 64), (255, 2187, 128)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 0, 2, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (7, 9, 4), (15, 27, 8), (31, 81, 16), (63, 243, 32), (127, 729, 64), (255, 2187, 128)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 0, 1, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (7, 9, 4), (15, 27, 8), (31, 81, 16), (63, 243, 32), (127, 729, 64), (255, 2187, 128)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 1, 1, 2): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (9, 28, 13), (13, 75, 25), (21, 287, 72), (29, 813, 174), (45, 3332, 496)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 1, 2, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (9, 28, 13), (13, 75, 25), (21, 287, 72), (29, 813, 174), (45, 3332, 496)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 1, 1, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (9, 28, 13), (13, 75, 25), (21, 287, 72), (29, 813, 174), (45, 3332, 496)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 2, 1, 2): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (7, 19, 12), (11, 90, 46), (15, 306, 133), (19, 704, 225), (27, 2947, 814)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 2, 2, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (7, 19, 12), (11, 90, 46), (15, 306, 133), (19, 704, 225), (27, 2947, 814)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 2, 1, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (7, 19, 12), (11, 90, 46), (15, 306, 133), (19, 704, 225), (27, 2947, 814)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 3, 1, 2): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (7, 19, 12), (9, 52, 33), (13, 291, 159), (17, 1143, 545), (21, 3308, 1265)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 3, 2, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (7, 19, 12), (9, 52, 33), (13, 291, 159), (17, 1143, 545), (21, 3308, 1265)],
    ("1>2,1>3,2>1,2>3,3>1,3>2", 3, 1, 3): [(0, 1, 1), (1, 1, 1), (3, 3, 2), (5, 7, 4), (7, 19, 12), (9, 52, 33), (13, 291, 159), (17, 1143, 545), (21, 3308, 1265)],
    ("1>3,2>3,3>1,3>2", 0, 1, 2): [(0, 1, 1), (2, 2, 1), (8, 5, 1), (26, 14, 1), (80, 41, 1), (242, 122, 1), (728, 365, 1)],
    ("1>3,2>3,3>1,3>2", 1, 1, 2): [(0, 1, 1), (2, 2, 1), (4, 4, 2), (10, 15, 5), (16, 39, 11), (34, 156, 20), (52, 366, 28)],
    ("1>3,2>3,3>1,3>2", 2, 1, 2): [(0, 1, 1), (2, 2, 1), (4, 4, 2), (6, 7, 3), (12, 45, 20), (18, 131, 35), (24, 342, 82)],
}


@pytest.mark.parametrize("edges, C, src, tgt", sorted(SYMMETRIC_COUNTS))
def test_symmetric_search_counts_and_witnesses(edges, C, src, tgt):
    model = Model(MoveGraph.parse(edges), C)
    for n, counts in enumerate(SYMMETRIC_COUNTS[(edges, C, src, tgt)]):
        result = shortest_symmetric(model, n, src, tgt)
        assert (result.distance, result.explored, result.peak_frontier) == counts, n
        start = standard_state(n, src)
        assert len(result.path) == result.distance
        assert is_symmetric(result.path, src, tgt, model=model, start=start), n
        assert apply_all(model, start, result.path) == standard_state(n, tgt)


#: (edges, C, src, tgt, discs): every case of SYMMETRIC_COUNTS, and a
#: labeling whose midpoint W at C=1, n=5 has two shortest paths from the start
SYMMETRIC_HALVES = [(*key, len(counts)) for key, counts in sorted(SYMMETRIC_COUNTS.items())] + [
    ("1>2,1>3,2>1,3>1", 1, 2, 3, 7),
    ("1>2,1>3,2>1,3>1", 1, 3, 2, 7),
]


@pytest.mark.parametrize("edges, C, src, tgt, discs", SYMMETRIC_HALVES)
def test_symmetric_first_half_is_the_smallest_shortest_path_to_its_midpoint(
    edges, C, src, tgt, discs
):
    model = Model(MoveGraph.parse(edges), C)
    for n in range(discs):
        result = shortest_symmetric(model, n, src, tgt)
        half = list(result.path[: result.distance // 2])
        start = standard_state(n, src)
        midpoint = GoalPredicate.exact(apply_all(model, start, half))
        assert reference_search(model, start, midpoint)[:2] == (len(half), half), n


def test_goal_states_are_stored_lazily_under_the_cap():
    # 9! legal one-peg stacks: the cap must fire long before they all exist
    tracemalloc.start()
    try:
        with pytest.raises(SearchCapExceeded) as err:
            bfs_distance(
                Model.relaxed(8), standard_state(9, 1), GoalPredicate.all_on(2), max_states=1000
            )
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _stored_states(err) == 1001
    assert peak_bytes < 2_000_000
