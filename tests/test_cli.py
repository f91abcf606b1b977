"""Command-line interface: outputs, formats, exit codes, determinism."""

import json

import pytest

from hanoilab.cli import (
    all_strongly_connected_graphs,
    enumerate_graph_classes,
    run,
)
from hanoilab.model import Move
from hanoilab.recurrence import CHORD_GRAPH, CYCLE_GRAPH, FIVE_EDGE_GRAPH, LINEAR_GRAPH


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# graph enumeration


def test_eighteen_labeled_graphs():
    graphs = all_strongly_connected_graphs()
    assert len(graphs) == 18
    assert all(g.is_strongly_connected() for g in graphs)


def test_five_isomorphism_classes():
    classes = enumerate_graph_classes()
    assert len(classes) == 5
    sizes = {c.name: c.size for c in classes}
    assert sizes == {
        "cycle": 2,
        "linear": 3,
        "cycle-chord": 6,
        "five-edge": 6,
        "complete": 1,
    }
    assert sum(sizes.values()) == 18


def test_named_graphs_land_in_their_classes():
    classes = {c.name: c for c in enumerate_graph_classes()}
    assert CYCLE_GRAPH in classes["cycle"].members
    assert LINEAR_GRAPH in classes["linear"].members
    assert CHORD_GRAPH in classes["cycle-chord"].members
    assert FIVE_EDGE_GRAPH in classes["five-edge"].members


# ---------------------------------------------------------------------------
# solve


def test_solve_classical(capsys):
    code, out, _ = invoke(capsys, "solve", "--model", "classical", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "length: 7"
    assert len(lines) == 8
    assert lines[0] == "1>2"


def test_solve_json(capsys):
    code, out, _ = invoke(
        capsys, "solve", "--model", "classical", "--n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 7
    assert payload["moves"][0] == [1, 2]
    assert payload["goal"] == "standard"


def test_solve_relaxed_uses_symmetric_transfer(capsys):
    code, out, _ = invoke(
        capsys, "solve", "--model", "relaxed", "--distance", "1", "--n", "4"
    )
    assert code == 0
    assert out.strip().split("\n")[-1] == "length: 9"


def test_solve_digraph(capsys):
    code, out, _ = invoke(
        capsys,
        "solve",
        "--model",
        "digraph",
        "--edges",
        "1>2,2>3,3>1",
        "--n",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.strip().split("\n") == [
        "index,from,to",
        "1,1,2",
        "2,2,3",
        "3,1,2",
        "4,3,1",
        "5,1,2",
    ]


def test_solve_custom_uses_bfs(capsys):
    code, out, _ = invoke(
        capsys,
        "solve",
        "--model",
        "custom",
        "--edges",
        "1>2,2>3,3>1",
        "--distance",
        "1",
        "--n",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solver"] == "bfs"
    assert payload["length"] == 5  # cycle edges with distance 1; brute-force checked


def test_solve_zeta_goal(capsys):
    code, out, _ = invoke(
        capsys,
        "solve",
        "--model",
        "relaxed",
        "--distance",
        "1",
        "--n",
        "4",
        "--solver",
        "zeta",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["goal"] == "all-on-target"
    assert payload["length"] == 6


@pytest.mark.parametrize(
    "wrong, reason",
    [
        ([], "does not reach the standard goal"),  # legal but stops short
        ([Move(2, 1)], "does not replay"),  # empty source peg
    ],
)
def test_solve_refuses_a_sequence_that_misses_the_goal(capsys, monkeypatch, wrong, reason):
    monkeypatch.setattr("hanoilab.solvers.classical_solve", lambda n, src, tgt: list(wrong))
    code, out, err = invoke(capsys, "solve", "--model", "classical", "--n", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: classical sequence ") and reason in err


# ---------------------------------------------------------------------------
# table


def test_table_linear_csv(capsys):
    code, out, _ = invoke(
        capsys,
        "table",
        "--model",
        "digraph",
        "--edges",
        "1>2,2>1,1>3,3>1",
        "--n",
        "3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,N12,N21,N13,N31,N23,N32"
    assert lines[-1] == "3,13,13,13,13,26,26"


def test_table_plain_reports_closed_form(capsys):
    code, out, _ = invoke(
        capsys, "table", "--model", "digraph", "--edges", "1>2,2>3,3>1", "--n", "5"
    )
    assert code == 0
    assert "closed_form[cycle]: ok" in out


def test_table_json(capsys):
    code, out, _ = invoke(
        capsys, "table", "--model", "classical", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == {"class": "complete", "ok": True}
    assert payload["rows"][2]["N12"] == 3


# ---------------------------------------------------------------------------
# verify / conjecture / graphs commands


def test_verify_claims(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "claims", "--n", "3")
    assert code == 0
    for suite in (
        "eq3-vs-oracle",
        "claim51-inequality",
        "dn-negative",
        "symmetric-odd",
        "symmetric-equals-a",
    ):
        assert f"{suite}: PASS" in out


def test_verify_relaxed(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "relaxed", "--n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["pass"] is True


def test_verify_graphs_small(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "graphs", "--n", "2")
    assert code == 0
    assert "graphs suite: PASS (18 graphs, n<=2)" in out


def test_conjecture_csv(capsys):
    code, out, _ = invoke(capsys, "conjecture", "--distance", "2", "--n-max", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,bfs_std,bfs_any,a_conj,b_conj,len_a_sym,len_q,match"
    assert len(lines) == 5
    assert lines[4].startswith("4,")


def test_graphs_enumerate(capsys):
    code, out, _ = invoke(capsys, "graphs", "enumerate")
    assert code == 0
    assert "total: 5 classes, 18 labeled graphs" in out


def test_graphs_enumerate_csv_quotes_edge_lists(capsys):
    import csv as csv_mod
    import io

    code, out, _ = invoke(capsys, "graphs", "enumerate", "--format", "csv")
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    assert rows[0] == ["class", "size", "representative", "note"]
    assert rows[1][:3] == ["cycle", "2", "1>2,2>3,3>1"]


def test_byte_for_byte_determinism(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = invoke(capsys, "conjecture", "--distance", "2", "--n-max", "4")
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        _, out, _ = invoke(capsys, "graphs", "enumerate", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize(
    "argv",
    [
        ("solve",),  # missing --n
        ("solve", "--model", "digraph", "--n", "2"),  # missing --edges
        ("solve", "--model", "classical", "--edges", "1>2", "--n", "2"),
        ("solve", "--model", "relaxed", "--n", "2"),  # missing --distance
        ("solve", "--model", "relaxed", "--distance", "0", "--n", "2"),
        ("solve", "--model", "classical", "--n", "2", "--from", "1", "--to", "1"),
        ("solve", "--model", "digraph", "--edges", "1>1", "--n", "2"),
        ("solve", "--model", "digraph", "--edges", "1>2,2>1", "--n", "2"),
        ("table", "--model", "relaxed", "--distance", "1", "--n", "2"),
        ("conjecture", "--distance", "0"),
        ("nonsense",),
        ("conjecture", "--distance", "1", "--from", "4"),
        ("conjecture", "--distance", "1", "--from", "2", "--to", "2"),
        ("verify", "--suite", "relaxed", "--distance", "0"),
        ("verify", "--suite", "relaxed", "--n", "-1"),
        # flags the subcommand does not read
        ("graphs", "enumerate", "--n", "3"),
        ("verify", "--suite", "claims", "--distance", "2"),
        ("table", "--n", "2", "--from", "2"),
        ("conjecture", "--distance", "1", "--n", "3"),
        # a suite that would check nothing
        ("verify", "--suite", "claims", "--n", "0"),
        ("verify", "--suite", "relaxed", "--n", "0"),
        # a negative cap on the emitted moves
        ("solve", "--n", "3", "--max-moves", "-1"),
        # a cap above 2^64: no longer sequence can be written
        ("solve", "--n", "1000", "--max-moves", str(2**1001)),
        # a state cap below one state, whether or not a search reads it
        ("solve", "--solver", "bfs", "--n", "3", "--max-states", "-5"),
        ("solve", "--n", "3", "--max-states", "-5"),
        ("verify", "--suite", "graphs", "--n", "1", "--max-states", "-1"),
        ("conjecture", "--distance", "1", "--max-states", "0"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(list(argv))
    assert err.value.code == 2


# values outside a flag's declared range
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "-1"),
        ("solve", "--n", "3", "--max-states", "-5"),
        ("table", "--n", "-1"),
        ("verify", "--suite", "graphs", "--n", "0"),
        ("conjecture", "--distance", "0"),
    ],
)
def test_usage_errors_print_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(list(argv))
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: hanoilab {argv[0]} ")


# each bounded flag: its boundary value, then the value just outside its range
@pytest.mark.parametrize(
    "argv, flag, bound, outside",
    [
        (("solve",), "--n", "0", "-1"),
        (("solve", "--n", "1"), "--max-states", "1", "0"),
        (("solve", "--n", "1"), "--max-moves", "0", "-1"),
        (("solve", "--n", "1"), "--max-moves", str(2**64), str(2**64 + 1)),
        (
            ("solve", "--model", "custom", "--edges", "1>2,2>3,3>1", "--n", "1"),
            "--distance", "0", "-1",
        ),
        (("solve", "--n", "1"), "--from", "3", "4"),
        (("table",), "--n", "0", "-1"),
        (("verify", "--suite", "graphs"), "--n", "1", "0"),
        (("verify", "--suite", "graphs", "--n", "1"), "--max-states", "1", "0"),
        (("verify", "--suite", "relaxed", "--n", "1"), "--distance", "1", "0"),
        (("conjecture", "--n-max", "1"), "--distance", "1", "0"),
        (("conjecture", "--distance", "1"), "--n-max", "1", "0"),
        (("conjecture", "--distance", "1", "--n-max", "1"), "--max-states", "1", "0"),
        (("conjecture", "--distance", "1", "--n-max", "1", "--from", "2"), "--to", "1", "0"),
    ],
)
def test_flag_ranges_are_declared_on_the_flags(capsys, argv, flag, bound, outside):
    # the boundary value is not a usage error (a cap it sets may still be hit)
    assert run([*argv, flag, bound]) in (0, 1)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run([*argv, flag, outside])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith(f"usage: hanoilab {argv[0]} ")
    assert f"hanoilab {argv[0]}: error: argument {flag}: " in message


def test_resource_cap_exits_one(capsys):
    code = run(
        ["conjecture", "--distance", "2", "--n-max", "7", "--max-states", "50"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "resource cap exceeded" in captured.err
    assert "50" in captured.err
