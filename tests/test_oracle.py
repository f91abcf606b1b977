"""Exhaustive-search ground truth: distances, witnesses, and probes."""

import itertools

import pytest

from hanoilab import dense, oracle, solvers, sparse
from hanoilab.cli import all_strongly_connected_graphs, run
from hanoilab.model import MOVES, Model, Move, MoveGraph, State, apply_all, standard_state
from hanoilab.oracle import (
    GoalPredicate,
    SearchCapExceeded,
    bfs_distance,
    conjecture_probe,
    optimality_reports,
    pack_state,
    shortest_symmetric,
    verify_optimality,
)
from hanoilab.recurrence import CYCLE_GRAPH, FIVE_EDGE_GRAPH, conjecture_values
from hanoilab.verify import is_symmetric

CLASSICAL = Model.classical()


def test_pack_state_codes_each_forced_state_once():
    # at distance 0 a state is its disc-to-peg assignment: 3**n of them,
    # each packed to a distinct base-3 code with disc d as digit d - 1
    for n in range(6):
        codes = set()
        for pegs in itertools.product((1, 2, 3), repeat=n):
            stacks = [tuple(d for d in range(n, 0, -1) if pegs[d - 1] == p) for p in (1, 2, 3)]
            codes.add(pack_state(State((stacks[0], stacks[1], stacks[2]))))
        assert codes == set(range(3**n))
        for peg in (1, 2, 3):
            assert pack_state(standard_state(n, peg)) == (peg - 1) * (3**n - 1) // 2
    assert pack_state(State(((3,), (2,), (1,)))) == 5


@pytest.mark.parametrize("n", range(8))
def test_classical_distance(n):
    result = bfs_distance(
        CLASSICAL, standard_state(n, 1), GoalPredicate.standard_on(2), want_path=False
    )
    assert result.distance == 2**n - 1


def test_classical_explores_full_state_space():
    # with the complete graph every disc-to-peg assignment is a state and
    # the opposite standard state is at maximal distance; the mirror search
    # stops at half of it: the 3**(n-1) placements of discs 1..n-1 over
    # disc n on the source, and disc n moved to either other peg
    for n in range(1, 8):
        goal = standard_state(n, 2)
        for predicate, explored in (
            (GoalPredicate.exact(goal), 3**n),
            (GoalPredicate.standard_on(2), 3 ** (n - 1) + 2),
        ):
            result = bfs_distance(CLASSICAL, standard_state(n, 1), predicate, want_path=False)
            assert (result.distance, result.explored) == (2**n - 1, explored)


def test_witness_is_lexicographically_minimal():
    result = bfs_distance(CLASSICAL, standard_state(2, 1), GoalPredicate.standard_on(2))
    assert result.path == (Move(1, 3), Move(1, 2), Move(3, 2))


def test_witness_replays_to_goal():
    for model, n in [(CLASSICAL, 5), (Model.relaxed(1), 5), (Model.relaxed(2), 5)]:
        result = bfs_distance(model, standard_state(n, 1), GoalPredicate.standard_on(3))
        assert result.path is not None and len(result.path) == result.distance
        final = apply_all(model, standard_state(n, 1), result.path)
        assert final == standard_state(n, 3)


def test_witness_deterministic():
    runs = [
        bfs_distance(Model.relaxed(2), standard_state(4, 1), GoalPredicate.standard_on(2))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_distance_zero_when_start_is_goal():
    result = bfs_distance(CLASSICAL, standard_state(3, 2), GoalPredicate.standard_on(2))
    assert result.distance == 0 and result.path == ()


@pytest.mark.parametrize("C", [0, 1, 2])
def test_start_that_is_a_goal_is_one_state_at_budget_one(C):
    # stored once, as the start, before any goal state: in either core
    model = Model(MoveGraph.complete(), C)
    cases = [
        (standard_state(0, 1), GoalPredicate.standard_on(2)),
        (standard_state(0, 1), GoalPredicate.all_on(3)),
        (standard_state(4, 1), GoalPredicate.exact(standard_state(4, 1))),
        (standard_state(4, 2), GoalPredicate.standard_on(2)),
        (standard_state(4, 2), GoalPredicate.all_on(2)),
    ]
    for start, goal in cases:
        for want_path in (True, False):
            result = bfs_distance(model, start, goal, max_states=1, want_path=want_path)
            assert result == (0, () if want_path else None, 1, 1), (start, goal)
            if C:  # the sparse core called directly, its one goal the start
                edges = model.graph.sorted_edges()
                stacks = start.stacks
                found = sparse.search(edges, C, stacks, [stacks], 1, want_path)
                assert found == (0, [] if want_path else None, 1, 1), (start, goal)


@pytest.mark.parametrize("max_states", [0, -1])
def test_non_positive_budget_is_refused_before_any_search(max_states, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    for core, name in ((dense, "search"), (sparse, "search"), (sparse, "expand")):
        monkeypatch.setattr(core, name, no_search)
    # the last bfs_distance start is a goal, and the last symmetric search has no disc
    calls = [
        (bfs_distance, CLASSICAL, standard_state(3, 1), GoalPredicate.standard_on(2)),
        (bfs_distance, Model.relaxed(1), standard_state(3, 1), GoalPredicate.all_on(2)),
        (bfs_distance, CLASSICAL, standard_state(3, 2), GoalPredicate.standard_on(2)),
        (optimality_reports, CYCLE_GRAPH, 3),
        (verify_optimality, CYCLE_GRAPH, 3),
        (shortest_symmetric, Model.relaxed(1), 3, 1, 2),
        (shortest_symmetric, Model.relaxed(1), 0, 1, 2),
        (conjecture_probe, 1, 3),
    ]
    for fn, *args in calls:
        with pytest.raises(ValueError, match=f"max_states must be >= 1, not {max_states}"):
            fn(*args, max_states=max_states)


def test_exact_goal():
    goal = State(((3,), (2,), (1,)))
    result = bfs_distance(CLASSICAL, standard_state(3, 1), GoalPredicate.exact(goal))
    assert result.distance == 2
    assert result.path == (Move(1, 3), Move(1, 2))


def test_exact_goal_disc_count_must_match():
    with pytest.raises(ValueError):
        bfs_distance(
            CLASSICAL, standard_state(3, 1), GoalPredicate.exact(standard_state(2, 2))
        )


def test_exact_goal_illegal_state_is_unreachable():
    # inverted pile: legal at distance 1, never legal classically
    goal = State(((), (1, 2), ()))
    result = bfs_distance(CLASSICAL, standard_state(2, 1), GoalPredicate.exact(goal))
    assert result.distance is None
    relaxed = bfs_distance(
        Model.relaxed(1), standard_state(2, 1), GoalPredicate.exact(goal)
    )
    assert relaxed.distance == 2


def test_start_must_be_legal():
    with pytest.raises(ValueError):
        bfs_distance(CLASSICAL, State(((1, 2), (), ())), GoalPredicate.standard_on(2))


@pytest.mark.parametrize("distance", [0, 1])
@pytest.mark.parametrize(
    "goal, named",
    [
        (GoalPredicate.standard_on(4), "peg.*4"),
        (GoalPredicate.standard_on(0), "peg.*0"),
        (GoalPredicate.all_on(4), "peg.*4"),
        (GoalPredicate("standard"), "peg.*None"),
        (GoalPredicate("all-on"), "peg.*None"),
        (GoalPredicate("weird", 2), "kind.*'weird'"),
    ],
)
def test_bad_goal_kind_or_peg_is_bad_input(goal, named, distance, monkeypatch):
    # refused before either core starts: not a KeyError, TypeError or
    # RuntimeError from inside a search, nor a distance to a standard goal
    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(dense, "search", no_search)
    monkeypatch.setattr(sparse, "search", no_search)
    model = Model(MoveGraph.complete(), distance)
    for want_path in (True, False):
        with pytest.raises(ValueError, match=named):
            bfs_distance(model, standard_state(3, 1), goal, want_path=want_path)


@pytest.mark.parametrize("src, tgt", [(1, 4), (4, 1), (0, 2), (2, 2)])
def test_shortest_symmetric_rejects_a_bad_peg(src, tgt):
    with pytest.raises(ValueError, match=f"src and tgt .*{src}, {tgt}"):
        shortest_symmetric(Model.relaxed(1), 3, src, tgt)


def test_unreachable_goal_on_disconnected_graph():
    model = Model.digraph(MoveGraph.parse("1>2,2>1"))
    result = bfs_distance(
        model, standard_state(1, 1), GoalPredicate.standard_on(3), want_path=False
    )
    assert result.distance is None and not result.reachable


def test_state_budget_is_enforced():
    with pytest.raises(SearchCapExceeded) as err:
        bfs_distance(
            CLASSICAL,
            standard_state(8, 1),
            GoalPredicate.standard_on(2),
            max_states=100,
            want_path=False,
        )
    assert "100" in str(err.value)


def test_relaxed_distances_match_recurrences():
    a, b = conjecture_values(6, 1)
    model = Model.relaxed(1)
    for n in range(1, 7):
        std = bfs_distance(
            model, standard_state(n, 1), GoalPredicate.standard_on(2), want_path=False
        )
        any_on = bfs_distance(
            model, standard_state(n, 1), GoalPredicate.all_on(2), want_path=False
        )
        assert std.distance == a[n]
        assert any_on.distance == b[n]


def test_relaxed_spot_values():
    model = Model.relaxed(1)
    assert (
        bfs_distance(model, standard_state(4, 1), GoalPredicate.standard_on(2)).distance
        == 9
    )
    assert (
        bfs_distance(model, standard_state(4, 1), GoalPredicate.all_on(2)).distance == 6
    )
    assert (
        bfs_distance(
            Model.relaxed(2), standard_state(3, 1), GoalPredicate.all_on(2)
        ).distance
        == 3
    )


def test_distance_symmetric_under_graph_automorphism():
    # rotating the pegs is an automorphism of the directed cycle
    model = Model.digraph(CYCLE_GRAPH)
    distances = [
        bfs_distance(
            model, standard_state(3, i), GoalPredicate.standard_on(j), want_path=False
        ).distance
        for i, j in ((1, 2), (2, 3), (3, 1))
    ]
    assert len(set(distances)) == 1


# ---------------------------------------------------------------------------
# verify_optimality


def test_verify_optimality_complete_graph():
    report = verify_optimality(MoveGraph.complete(), 5)
    assert report.ok
    assert all(check.bfs == 31 for check in report.checks)


def test_verify_optimality_cycle_and_five_edge():
    report = verify_optimality(CYCLE_GRAPH, 2)
    assert report.ok
    by_pair = {check.pair: check for check in report.checks}
    assert by_pair[(1, 2)].bfs == 5
    report = verify_optimality(FIVE_EDGE_GRAPH, 2)
    assert report.ok
    assert {c.pair: c.bfs for c in report.checks}[(2, 1)] == 7


def test_verify_optimality_rejects_disconnected():
    with pytest.raises(ValueError):
        verify_optimality(MoveGraph.parse("1>2,2>1"), 2)
    with pytest.raises(ValueError):
        optimality_reports(MoveGraph.parse("1>2,2>1"), 2)


def test_optimality_reports_need_a_disc():
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        optimality_reports(CYCLE_GRAPH, 0)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        verify_optimality(CYCLE_GRAPH, 0)


@pytest.mark.parametrize("graph", all_strongly_connected_graphs(), ids=lambda g: g.format())
def test_verify_optimality_is_the_last_of_the_reports(graph):
    reports = optimality_reports(graph, 5)
    assert verify_optimality(graph, 5) == reports[-1]
    assert [verify_optimality(graph, n) for n in range(1, 5)] == list(reports[:-1])


def test_graphs_suite_searches_each_source_once_per_graph(capsys, monkeypatch):
    # one dense search per orbit of (graph, source peg) under relabeling, on
    # the five class graphs alone; one count table and one construction walk
    # per graph, whatever the largest disc count
    oracle._embedded_distances.cache_clear()
    dense._move_table.cache_clear()
    calls = {"search": 0, "table": 0, "walk": 0}
    search, table, walk = dense.search, solvers.eval_move_counts, solvers._Walk

    def counting_search(*args, **kwargs):
        calls["search"] += 1
        return search(*args, **kwargs)

    def counting_table(*args, **kwargs):
        calls["table"] += 1
        return table(*args, **kwargs)

    class CountingWalk(walk):
        def __init__(self):
            calls["walk"] += 1
            super().__init__()

    monkeypatch.setattr(dense, "search", counting_search)
    monkeypatch.setattr(solvers, "eval_move_counts", counting_table)
    monkeypatch.setattr(solvers, "_Walk", CountingWalk)
    assert run(["verify", "--suite", "graphs", "--n", "4"]) == 0
    assert capsys.readouterr().out.endswith("graphs suite: PASS (18 graphs, n<=4)\n")
    assert calls == {"search": 10, "table": 18, "walk": 18}
    assert dense._move_table.cache_info().currsize == 5


# ---------------------------------------------------------------------------
# shortest_symmetric


def test_shortest_symmetric_single_disc():
    result = shortest_symmetric(Model.relaxed(1), 1, 1, 2)
    assert result.distance == 1
    assert result.path == (Move(1, 2),)


def test_shortest_symmetric_matches_standard_optimum():
    a, _ = conjecture_values(5, 1)
    for n in range(1, 6):
        result = shortest_symmetric(Model.relaxed(1), n, 1, 2)
        assert result.distance == a[n]
        assert result.distance % 2 == 1


def test_shortest_symmetric_witness_is_symmetric_and_legal():
    model = Model.relaxed(1)
    result = shortest_symmetric(model, 4, 1, 2)
    assert result.distance == 9
    assert is_symmetric(result.path, 1, 2, model=model, start=standard_state(4, 1))
    assert apply_all(model, standard_state(4, 1), result.path) == standard_state(4, 2)


def test_shortest_symmetric_other_peg_pair():
    result = shortest_symmetric(Model.relaxed(2), 3, 2, 3)
    assert result.distance == 5
    assert apply_all(Model.relaxed(2), standard_state(3, 2), result.path) == standard_state(3, 3)


def test_shortest_symmetric_rejects_asymmetric_graph():
    with pytest.raises(ValueError):
        shortest_symmetric(Model.digraph(CYCLE_GRAPH), 2, 1, 2)


def test_shortest_symmetric_classical_model():
    # at distance 0 a symmetric transfer still exists; the classical
    # recursion is itself symmetric, so the optimum is 2^n - 1
    result = shortest_symmetric(CLASSICAL, 3, 1, 2)
    assert result.distance == 7
    assert is_symmetric(result.path, 1, 2, model=CLASSICAL, start=standard_state(3, 1))


def test_shortest_symmetric_without_direct_edge_finds_even_solution():
    # both double edges meet at the auxiliary peg: the graph is
    # swap-invariant and mirror-closed for (1, 2), but the src>tgt edge
    # does not exist, so no odd middle move is possible
    model = Model.digraph(MoveGraph.parse("1>3,3>1,2>3,3>2"))
    result = shortest_symmetric(model, 1, 1, 2)
    assert result.distance == 2
    assert result.path == (Move(1, 3), Move(3, 2))
    assert is_symmetric(result.path, 1, 2, model=model, start=standard_state(1, 1))


# ---------------------------------------------------------------------------
# conjecture_probe


def test_probe_distance_two():
    report = conjecture_probe(2, 5)
    assert [row.n for row in report.rows] == [1, 2, 3, 4, 5]
    for row in report.rows:
        assert row.bfs_any <= row.bfs_std <= min(row.len_a_sym, row.len_q)
    assert report.rows[2].bfs_any == 3  # three direct moves are optimal


def test_probe_csv_shape(capsys):
    assert run(["conjecture", "--distance", "2", "--n-max", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,bfs_std,bfs_any,a_conj,b_conj,len_a_sym,len_q,match"
    assert len(lines) == 4
    assert all(line.endswith(("MATCH", "MISMATCH")) for line in lines[1:])


def test_probe_rejects_distance_zero():
    with pytest.raises(ValueError):
        conjecture_probe(0, 3)


@pytest.mark.parametrize(
    "model",
    [CLASSICAL, Model(CYCLE_GRAPH, 0), Model.relaxed(1)],
    ids=["classical", "cycle", "relaxed"],
)
def test_witness_moves_are_the_shared_move_objects(model):
    for src, tgt in ((1, 2), (2, 3), (3, 1)):
        result = bfs_distance(model, standard_state(6, src), GoalPredicate.standard_on(tgt))
        assert result.path
        assert all(move is MOVES[(move.src, move.dst)] for move in result.path)
