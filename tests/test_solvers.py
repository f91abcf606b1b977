"""Constructive solvers: lengths, endpoints, and legality by replay."""

import pytest

from hanoilab import solvers
from hanoilab.model import (
    Model,
    Move,
    MoveGraph,
    all_strongly_connected_graphs,
    apply_all,
    standard_state,
)
from hanoilab.recurrence import conjecture_values, eval_move_counts, PAIR_ORDER
from hanoilab.solvers import a_symmetric, classical_solve, directed_move, q_sequence, zeta

CYCLE = MoveGraph.parse("1>2,2>3,3>1")
LINEAR = MoveGraph.parse("1>2,2>1,1>3,3>1")


@pytest.mark.parametrize("n", range(13))
def test_classical_length(n):
    assert len(classical_solve(n, 1, 2)) == 2**n - 1


@pytest.mark.parametrize("n", range(9))
def test_classical_endpoints(n):
    seq = classical_solve(n, 1, 3)
    assert apply_all(Model.classical(), standard_state(n, 1), seq) == standard_state(n, 3)


def test_classical_solve_validates_args():
    with pytest.raises(ValueError):
        classical_solve(3, 1, 1)
    with pytest.raises(ValueError):
        classical_solve(-1, 1, 2)


def test_directed_move_complete_graph_reduces_to_classical():
    assert directed_move(MoveGraph.complete(), 1, 2, 5) == classical_solve(5, 1, 2)


def test_directed_move_cycle_two_discs():
    # hand simulation: disc 1 travels around the cycle while disc 2 crosses
    seq = directed_move(CYCLE, 1, 2, 2)
    assert seq == [Move(1, 2), Move(2, 3), Move(1, 2), Move(3, 1), Move(1, 2)]
    assert apply_all(Model.digraph(CYCLE), standard_state(2, 1), seq) == standard_state(2, 2)


def test_directed_move_linear_end_to_end():
    seq = directed_move(LINEAR, 2, 3, 2)
    assert len(seq) == 8 == 3**2 - 1
    assert apply_all(Model.digraph(LINEAR), standard_state(2, 2), seq) == standard_state(2, 3)


def test_directed_move_requires_strong_connectivity():
    with pytest.raises(ValueError):
        directed_move(MoveGraph.parse("1>2,2>1"), 1, 2, 1)


def test_connectivity_is_checked_once_per_graph(monkeypatch):
    # every transfer on a graph shares one check; a graph that fails it
    # raises the same error on every call
    graphs = all_strongly_connected_graphs()
    solvers._connected_edges.cache_clear()
    checked = []
    check = MoveGraph.is_strongly_connected
    monkeypatch.setattr(
        MoveGraph, "is_strongly_connected", lambda graph: checked.append(graph) or check(graph)
    )
    for graph in graphs:
        for n in range(4):
            for i, j in PAIR_ORDER:
                moves = directed_move(graph, i, j, n)
                blocks = solvers.move_blocks(directed_move, graph, i, j, n)
                assert [mv for block in blocks for mv in block] == moves
    assert checked == list(graphs)
    broken = MoveGraph.parse("1>2,2>1")
    for call in range(1, 3):
        with pytest.raises(ValueError, match="move graph must be strongly connected"):
            directed_move(broken, 1, 2, 1)
        assert checked[len(graphs) :] == [broken] * call


@pytest.mark.parametrize("graph", [CYCLE, LINEAR, MoveGraph.complete()])
@pytest.mark.parametrize("n", range(6))
def test_directed_move_length_matches_recurrence(graph, n):
    table = eval_move_counts(graph, n)
    for i, j in PAIR_ORDER:
        seq = directed_move(graph, i, j, n)
        assert len(seq) == table.value((i, j), n)
        assert apply_all(Model.digraph(graph), standard_state(n, i), seq) == standard_state(n, j)


def test_zeta_base_two_discs():
    assert zeta(2, 1, 1, 2) == [Move(1, 2), Move(1, 2)]
    final = apply_all(Model.relaxed(1), standard_state(2, 1), zeta(2, 1, 1, 2))
    assert final.stacks == ((), (1, 2), ())  # inverted pile, legal at C=1


def test_zeta_four_discs():
    seq = zeta(4, 1, 1, 2)
    assert len(seq) == 6
    final = apply_all(Model.relaxed(1), standard_state(4, 1), seq)
    assert final.stacks == ((), (3, 4, 2, 1), ())


def test_zeta_base_equals_disc_count():
    assert zeta(3, 2, 1, 2) == [Move(1, 2)] * 3


def test_zeta_requires_positive_distance():
    with pytest.raises(ValueError):
        zeta(3, 0, 1, 2)


@pytest.mark.parametrize("C", (1, 2, 3))
def test_zeta_length_and_endpoint(C):
    a, b = conjecture_values(12, C)
    model = Model.relaxed(C)
    for n in range(13):
        seq = zeta(n, C, 1, 3)
        assert len(seq) == b[n]
        final = apply_all(model, standard_state(n, 1), seq)
        assert not final.stacks[0] and not final.stacks[1]
    assert all(b[n] > b[n - 1] for n in range(1, 13))


def test_a_symmetric_reproduces_nine_move_transfer():
    assert a_symmetric(4, 1, 1, 2) == [
        Move(1, 2),
        Move(1, 3),
        Move(1, 3),
        Move(2, 3),
        Move(1, 2),
        Move(3, 1),
        Move(3, 2),
        Move(3, 2),
        Move(1, 2),
    ]


def test_a_symmetric_single_disc():
    assert a_symmetric(1, 1, 1, 2) == [Move(1, 2)]


@pytest.mark.parametrize("C", (1, 2, 3))
def test_a_symmetric_length_and_endpoint(C):
    a, _ = conjecture_values(12, C)
    model = Model.relaxed(C)
    for n in range(1, 13):
        seq = a_symmetric(n, C, 1, 2)
        assert len(seq) == a[n]
        assert len(seq) % 2 == 1
        assert apply_all(model, standard_state(n, 1), seq) == standard_state(n, 2)


def test_q_sequence_small_cases():
    assert q_sequence(1, 1, 1, 2) == [Move(1, 2)]
    assert len(q_sequence(4, 2, 1, 2)) == 9
    assert len(q_sequence(7, 2, 1, 2)) == 25


@pytest.mark.parametrize("C", (1, 2, 3))
def test_q_sequence_is_standard_to_standard(C):
    model = Model.relaxed(C)
    for n in range(13):
        seq = q_sequence(n, C, 1, 2)
        assert apply_all(model, standard_state(n, 1), seq) == standard_state(n, 2)


@pytest.mark.parametrize("C", (1, 2))
def test_q_sequence_length_matches_ideal_recurrence_at_unit_bottoms(C):
    # when the recursion bottoms out at a single disc the emitted length
    # equals the idealized x(n) system exactly
    from hanoilab.recurrence import q_lengths

    k = C + 1
    x = q_lengths(20, C)
    for n in range(1, 21):
        if n % k == 1:
            assert len(q_sequence(n, C, 1, 2)) == x[n]
