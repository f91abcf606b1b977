"""The five classes of strongly connected move graphs: their members, peg
relabeling of the count tables, the closed forms applied to every
labeling, the exact rows `table` prints, and the distance-0 witness of
each class graph against its construction."""

import decimal
import json

import pytest

from hanoilab.cli import run
from hanoilab.model import (
    GRAPH_CLASSES,
    PEG_PERMUTATIONS,
    GoalPredicate,
    Model,
    all_strongly_connected_graphs,
    enumerate_graph_classes,
    standard_state,
)
from hanoilab.oracle import bfs_distance
from hanoilab.recurrence import PAIR_ORDER, closed_form_for, eval_move_counts, move_count_rows
from hanoilab.solvers import directed_move, move_count

GRAPHS = all_strongly_connected_graphs()
CLASS_OF = {graph: c.name for c in enumerate_graph_classes() for graph in c.members}
MEMBERS = sorted(CLASS_OF.items(), key=lambda item: (item[1], item[0].sorted_edges()))


def test_the_classes_partition_the_strongly_connected_graphs():
    classes = enumerate_graph_classes()
    assert [c.name for c in classes] == list(GRAPH_CLASSES)
    assert sum(c.size for c in classes) == len(GRAPHS) == 18
    assert set(CLASS_OF) == set(GRAPHS)
    for c in classes:
        assert c.representative == c.members[0]
        assert list(c.members) == sorted(c.members, key=lambda g: g.sorted_edges())
        # a class is closed under relabeling: no member lands in another class
        for graph in c.members:
            assert {CLASS_OF[graph.relabel(sigma)] for sigma in PEG_PERMUTATIONS} == {c.name}


@pytest.mark.parametrize("graph", GRAPHS, ids=[g.format() for g in GRAPHS])
def test_relabeling_permutes_the_count_columns(graph):
    table = eval_move_counts(graph, 30)
    for sigma in PEG_PERMUTATIONS:
        image = graph.relabel(sigma)
        relabeled = eval_move_counts(image, 30)
        for i, j in PAIR_ORDER:
            column = table.column((i, j))
            assert relabeled.column((sigma[i], sigma[j])) == column
            for n in (0, 1, 2, 7, 30):
                length = move_count(directed_move, image, sigma[i], sigma[j], n, cap=1 << 64)
                assert length == move_count(directed_move, graph, i, j, n, cap=1 << 64)
                assert length == column[n]


@pytest.mark.parametrize("graph,name", MEMBERS, ids=[g.format() for g, _ in MEMBERS])
def test_closed_form_for_every_labeling(graph, name):
    found = closed_form_for(graph)
    if name == "five-edge":
        assert found is None
        return
    assert found is not None and found[0] == name
    count = found[1]
    # every row, independent of the 11 rows `table` checks
    for n, row in enumerate(move_count_rows(graph, 200)):
        assert [count(pair, n) for pair in PAIR_ORDER] == list(row)


@pytest.mark.parametrize("graph,name", MEMBERS, ids=[g.format() for g, _ in MEMBERS])
def test_table_checks_every_labeling_with_a_closed_form(capsys, graph, name):
    argv = ["table", "--model", "digraph", "--edges", graph.format(), "--n", "40"]
    assert run(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert run([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 41
    if name == "five-edge":
        assert not plain[-1].startswith("closed_form")
        assert doc["closed_form"] is None
    else:
        assert plain[-1] == f"closed_form[{name}]: ok"
        assert doc["closed_form"] == {"class": name, "ok": True}


def _context_settings():
    context = decimal.getcontext()
    return context.prec, dict(context.traps)


@pytest.mark.parametrize("graph,name", MEMBERS, ids=[g.format() for g, _ in MEMBERS])
def test_table_prints_the_int_counts_in_every_format(capsys, graph, name):
    n_max = 300
    table = eval_move_counts(graph, n_max)
    header = ["n", *(f"N{i}{j}" for i, j in PAIR_ORDER)]
    rows = [(n, *(table.column(pair)[n] for pair in PAIR_ORDER)) for n in range(n_max + 1)]
    lines = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    closed = None if name == "five-edge" else {"class": name, "ok": True}
    doc = {
        "edges": graph.format(),
        "n_max": n_max,
        "rows": [dict(zip(header, row)) for row in rows],
        "closed_form": closed,
    }
    expected = {
        "plain": lines + ("" if closed is None else f"closed_form[{name}]: ok\n"),
        "csv": lines,
        "json": json.dumps(doc, sort_keys=True) + "\n",
    }
    before = decimal.getcontext(), _context_settings()
    for fmt, text in expected.items():
        argv = ["table", "--model", "digraph", "--edges", graph.format(), "--n", str(n_max)]
        assert run([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == text
        # the exact context of the printed rows does not leak
        assert (decimal.getcontext(), _context_settings()) == before


def _stream_rows(graph, n_max, prec, into):
    """Extend `into` with the Decimal rows, in `table`'s context but with `prec` digits."""
    with decimal.localcontext() as context:
        context.prec = prec
        context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
        into.extend(move_count_rows(graph, n_max, decimal.Decimal(0)))


def _text(rows):
    return [list(map(str, row)) for row in rows]


@pytest.mark.parametrize("name", ["five-edge", "cycle"])
def test_a_context_too_small_for_the_counts_raises_rather_than_round(name):
    graph, n_max = GRAPH_CLASSES[name][0], 300
    exact = list(move_count_rows(graph, n_max))
    digits = max(len(str(count)) for count in exact[-1])
    held = []
    _stream_rows(graph, n_max, digits, held)
    assert _text(held) == _text(exact)
    # one digit fewer: a real exception, and every row yielded before it exact
    streamed = []
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        _stream_rows(graph, n_max, digits - 1, streamed)
    assert 0 < len(streamed) <= n_max
    assert _text(streamed) == _text(exact[: len(streamed)])


@pytest.mark.parametrize("name", GRAPH_CLASSES)
def test_the_distance_zero_witness_is_the_directed_construction(name):
    # C=0 has exactly one shortest transfer on every class graph and peg pair
    # at these sizes, so the search's witness must be the construction
    graph = GRAPH_CLASSES[name][0]
    model = Model.digraph(graph)
    for src, tgt in PAIR_ORDER:
        for n in range(1, 9):
            result = bfs_distance(model, standard_state(n, src), GoalPredicate.standard_on(tgt))
            assert list(result.path) == directed_move(graph, src, tgt, n), (src, tgt, n)
