"""The five classes of strongly connected move graphs: their members, peg
relabeling of the count tables, and the closed forms applied to every
labeling."""

import json

import pytest

from hanoilab.cli import run
from hanoilab.model import (
    GRAPH_CLASSES,
    PEG_PERMUTATIONS,
    all_strongly_connected_graphs,
    enumerate_graph_classes,
)
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
