"""Bounded, streamed output: `solve --max-moves` and its ceiling, the
replay-length check, the memory `solve` and `table` hold, `table`'s
closed-form check on rows 0..10 and its int-to-str digit limit."""

import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hanoilab
from hanoilab.cli import run
from hanoilab.model import DEFAULT_MOVE_BUDGET, MoveGraph
from hanoilab.solvers import (
    BLOCK_MOVES,
    a_symmetric,
    classical_solve,
    directed_move,
    move_blocks,
    move_count,
    q_sequence,
    zeta,
)

PATHS = [str(Path(hanoilab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, PATHS)))

CONSTRUCTIVE = {
    "classical": ["--solver", "classical"],
    "directed": ["--model", "digraph", "--edges", "1>2,2>3,3>1"],
    "zeta": ["--model", "relaxed", "--distance", "1", "--solver", "zeta"],
    "symmetric": ["--model", "relaxed", "--distance", "1", "--solver", "symmetric"],
    "q": ["--model", "relaxed", "--distance", "1", "--solver", "q"],
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", ("40", "1000000000"))
@pytest.mark.parametrize("solver", CONSTRUCTIVE)
def test_an_over_long_solve_exits_one_at_once(solver, n):
    argv = [sys.executable, "-m", "hanoilab.cli", "solve", *CONSTRUCTIVE[solver], "--n", n]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=ENV, timeout=20)
    assert time.perf_counter() - start < 2
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        f"error: {solver} sequence is longer than --max-moves {DEFAULT_MOVE_BUDGET}\n"
    )


@pytest.mark.parametrize("fmt", ("plain", "csv", "json"))
@pytest.mark.parametrize("solver", CONSTRUCTIVE)
def test_max_moves_admits_exactly_the_length(capsys, solver, fmt):
    base = ["solve", *CONSTRUCTIVE[solver], "--n", "7"]
    length = json.loads(invoke(capsys, *base, "--format", "json")[1])["length"]
    argv = [*base, "--format", fmt]
    _, default, _ = invoke(capsys, *argv)
    assert invoke(capsys, *argv, "--max-moves", str(length)) == (0, default, "")
    code, out, err = invoke(capsys, *argv, "--max-moves", str(length - 1))
    assert (code, out) == (1, "")
    assert err == f"error: {solver} sequence is longer than --max-moves {length - 1}\n"


def test_max_moves_bounds_the_bfs_path(capsys):
    argv = ["solve", "--solver", "bfs", "--n", "3"]
    assert invoke(capsys, *argv, "--max-moves", "7")[0] == 0
    code, out, err = invoke(capsys, *argv, "--max-moves", "6")
    assert (code, out) == (1, "")
    assert err == "error: bfs sequence is longer than --max-moves 6\n"


def test_a_replay_that_disagrees_with_the_recurrence_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(
        "hanoilab.solvers.move_count", lambda *args, cap: move_count(*args, cap=cap) + 1
    )
    code, out, err = invoke(capsys, "solve", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: classical sequence replays 7 moves, its recurrence counts 8\n"


def _peak_bytes(argv) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_solve_holds_no_sequence():
    _peak_bytes(["solve", "--n", "3"])  # parser, imports and caches first
    # the 2^20 - 1 moves as one list of references alone would take 8 MB
    assert _peak_bytes(["solve", "--n", "20"]) < 1_000_000


@pytest.mark.parametrize("fmt", ("plain", "json"))
def test_table_holds_one_row(fmt):
    argv = ["table", "--model", "digraph", "--edges", "1>2,1>3,2>3,3>1,3>2", "--format", fmt]
    _peak_bytes([*argv, "--n", "3"])
    # all 2001 rows of six 700-digit counts take about 2.6 MB
    assert _peak_bytes([*argv, "--n", "2000"]) < 500_000


# rows 0..10 decide the closed form whatever --n is: at --n 0 the substitute
# matches the one row printed and still fails
@pytest.mark.parametrize("n", (12, 0))
@pytest.mark.parametrize("fmt", ("plain", "csv", "json"))
def test_a_failed_closed_form_still_prints_every_row(capsys, monkeypatch, fmt, n):
    argv = ["table", "--model", "digraph", "--edges", "1>2,2>3,3>1", "--n", str(n), "--format", fmt]
    _, good, _ = invoke(capsys, *argv)
    monkeypatch.setattr(
        "hanoilab.recurrence.closed_form_for", lambda graph: ("cycle", lambda pair, n: 2**n - 1)
    )
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (1, "")
    if fmt == "json":
        doc, expected = json.loads(out), json.loads(good)
        assert doc["rows"] == expected["rows"] and len(doc["rows"]) == n + 1
        assert doc["closed_form"] == {"class": "cycle", "ok": False}
        assert expected["closed_form"] == {"class": "cycle", "ok": True}
    elif fmt == "plain":
        assert good.endswith("closed_form[cycle]: ok\n")
        assert out == good.replace("closed_form[cycle]: ok", "closed_form[cycle]: MISMATCH")
    else:
        assert out == good


# hanoibench/traced_cli.py rebinds every public solver name to a wrapper;
# the streamed solve must still print the same bytes under it
@pytest.mark.parametrize("solver", CONSTRUCTIVE)
def test_benchmark_tracer_keeps_the_streamed_output(solver):
    argv = ["solve", *CONSTRUCTIVE[solver], "--n", "11", "--format", "json"]
    root = Path(__file__).resolve().parents[1]

    def run_with(*command):
        return subprocess.run(
            [sys.executable, *command, *argv], cwd=root, env=ENV, capture_output=True, timeout=120
        )

    plain = run_with("-m", "hanoilab.cli")
    traced = run_with(str(root / "hanoibench" / "traced_cli.py"))
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str limit"
)
@pytest.mark.parametrize("fmt", ("plain", "json"))
def test_a_count_past_the_int_to_str_limit_ends_in_an_error_line(fmt):
    # at the lowest limit CPython allows, 640 digits, the first complete-graph
    # count past it is 2^2127 - 1; at the default 4300 that is n = 14285
    env = dict(ENV, PYTHONINTMAXSTRDIGITS="640")
    argv = [sys.executable, "-m", "hanoilab.cli", "table", "--n", "20000", "--format", fmt]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stderr == (
        "error: resource cap exceeded: the counts for n=2127 have more than 640 digits\n"
    )
    # a silent first pass meets it before anything is written
    assert done.stdout == ""


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str limit"
)
def test_the_last_count_within_the_int_to_str_limit_prints_every_row():
    # 3**2126 passes 10**640, so the silent pass runs and finds no long row
    env = dict(ENV, PYTHONINTMAXSTRDIGITS="640")
    argv = [sys.executable, "-m", "hanoilab.cli", "table", "--n", "2126"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 1 + 2127 + 1
    assert lines[-2] == ",".join(["2126", *[str(2**2126 - 1)] * 6])
    assert lines[-1] == "closed_form[complete]: ok"


def _largest_n(solver, args, cap):
    """The largest n for which ``solver(*args(n))`` fits `cap`."""
    n = 0
    while move_count(solver, *args(n + 1), cap=cap) is not None:
        n += 1
    return n


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


# at C = 1 each recursion level adds the fewest moves, so under a fixed cap
# the relaxed solvers' walks are deepest there
DEEPEST = {
    "classical": (classical_solve, lambda n: (n, 1, 2)),
    "directed": (directed_move, lambda n: (MoveGraph.parse("1>2,2>3,3>1"), 1, 2, n)),
    "zeta": (zeta, lambda n: (n, 1, 1, 2)),
    "symmetric": (a_symmetric, lambda n: (n, 1, 1, 2)),
    "q": (q_sequence, lambda n: (n, 1, 1, 2)),
}


@pytest.mark.parametrize("solver", DEEPEST)
def test_the_deepest_walk_the_move_ceiling_allows_streams(solver):
    fn, args = DEEPEST[solver]
    ceiling = 1 << 64
    n = _largest_n(fn, args, ceiling)
    limit = sys.getrecursionlimit()
    # the walk stays within 100 frames of its caller (about 70 are used)
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        blocks = move_blocks(fn, *args(n))
        first = [next(blocks) for _ in range(3)]
    finally:
        sys.setrecursionlimit(limit)
    assert all(0 < len(block) <= BLOCK_MOVES for block in first)


def test_the_move_ceiling_itself_is_a_valid_cap(capsys):
    code, out, err = invoke(capsys, "solve", "--n", "65", "--max-moves", str(1 << 64))
    assert (code, out) == (1, "")
    assert err == f"error: classical sequence is longer than --max-moves {1 << 64}\n"
