"""How a `hanoilab` process ends: `cli.main` freezes the import-time heap
(`gc.freeze`) before it runs the command and a library call of `cli.run`
does not; a closed stdout ends in exit 1 with nothing on stderr; and the
exit status, stdout and stderr of a command run as `python -m hanoilab.cli`
are pinned byte for byte."""

import contextlib
import gc
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hanoilab
from hanoilab import cli

PACKAGE = Path(hanoilab.__file__).resolve().parent
PATHS = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
# argparse wraps usage lines to COLUMNS
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS), COLUMNS="80")


def _module(*argv: str) -> list[str]:
    return [sys.executable, "-m", "hanoilab.cli", *argv]


# Wraps `cli.run`, then calls `cli.main` as the console script does, and
# prints the freeze count before `main` and inside the subcommand, and
# whether the collector is enabled there.
FREEZE_PROBE = """
import contextlib, gc, io, sys
import hanoilab.cli as cli
inner, seen = cli.run, []
def run(argv=None):
    seen.append((gc.get_freeze_count(), gc.isenabled()))
    with contextlib.redirect_stdout(io.StringIO()):
        return inner(argv)
cli.run = run
before = gc.get_freeze_count()
sys.argv = ["hanoilab", "graphs", "enumerate"]
try:
    cli.main()
except SystemExit as done:
    print(done.code, before, *seen[0])
"""


def test_main_freezes_the_import_time_heap_before_the_subcommand():
    child = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    status, before, inside, enabled = child.stdout.split()
    assert (status, before, enabled) == ("0", "0", "True")
    assert int(inside) > 0


def test_a_library_call_of_run_leaves_the_collector_as_it_was():
    frozen = gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["graphs", "enumerate"]) == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


# A reader that takes one line and closes the pipe: every later write of
# the command fails, and it must end in exit 1 with an empty stderr.
@pytest.mark.parametrize(
    "argv, first",
    [
        (("solve", "--n", "18"), b"1>3\n"),
        (("table", "--n", "3000"), b"n,N12,N21,N13,N31,N23,N32\n"),
    ],
    ids=("solve", "table"),
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv, first):
    with subprocess.Popen(
        _module(*argv), env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        assert child.stdout.readline() == first
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    assert err == b""


# (argv, exit status, sha256 of stdout, stderr), recorded before `main`
# froze the heap and caught a closed stdout
PINNED = [
    (
        ("solve", "--model", "relaxed", "--distance", "1", "--n", "8", "--format", "json"),
        0,
        "b593b5836b4575b06e12f71c4e7dfa2f9e2314dacf5695f72c9b693329a5129b",
        "",
    ),
    (
        ("graphs", "enumerate", "--n", "3"),
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: hanoilab [-h] {solve,table,verify,conjecture,graphs} ...\n"
        "hanoilab: error: unrecognized arguments: --n 3\n",
    ),
    (
        ("solve", "--model", "classical", "--n", "11", "--solver", "bfs", "--max-states", "1000"),
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: resource cap exceeded: search exceeded the state budget of 1000 states"
        " at level 88 (1001 forward and 0 backward states stored)\n",
    ),
]


@pytest.mark.parametrize("argv, status, digest, err", PINNED)
def test_status_stdout_and_stderr_through_the_module_entry_point(argv, status, digest, err):
    child = subprocess.run(_module(*argv), env=ENV, capture_output=True, timeout=60)
    assert child.returncode == status
    assert hashlib.sha256(child.stdout).hexdigest() == digest
    assert child.stderr.decode() == err


# The console script calls `main` of an imported `hanoilab.cli`; `python -m`
# runs `cli.py` as `__main__`, whose command module must reach the very
# exception classes that `run` catches, or a cap ends in a traceback.
SCRIPT = [sys.executable, "-c", "from hanoilab.cli import main; main()"]
ENTRY_POINT_RUNS = [
    (("solve", "--n", "3"), 0),
    (("solve", "--n", "-1"), 2),
    (("table", "--n", "20000"), 1),  # a count past the int-to-str digit limit
    (("verify", "--suite", "graphs", "--n", "12", "--max-states", "100000"), 1),
]


@pytest.mark.parametrize(
    "argv, status", ENTRY_POINT_RUNS, ids=[" ".join(argv) for argv, _ in ENTRY_POINT_RUNS]
)
def test_module_and_console_script_entry_points_agree(argv, status):
    module = subprocess.run(_module(*argv), env=ENV, capture_output=True, timeout=60)
    script = subprocess.run([*SCRIPT, *argv], env=ENV, capture_output=True, timeout=60)
    ran = (module.returncode, module.stdout, module.stderr)
    assert ran == (script.returncode, script.stdout, script.stderr)
    assert module.returncode == status
    assert b"Traceback" not in module.stderr
