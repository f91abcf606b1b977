"""What a `hanoilab` process imports: no subcommand loads `dataclasses`,
`inspect` or the modules `inspect` pulls in, only JSON output loads
`json`, and only `table` loads `fractions` and `decimal`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hanoilab

PACKAGE = Path(hanoilab.__file__).resolve().parent
PATHS = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS))

#: Start-up imports the package must not pay for: `dataclasses` and the
#: `inspect` chain it brings, and `json` outside JSON output.
WATCHED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}

COMMANDS = [
    ("solve", "--n", "4"),
    ("solve", "--model", "relaxed", "--distance", "1", "--n", "4", "--solver", "bfs"),
    ("table", "--model", "digraph", "--edges", "1>2,2>3,3>1", "--n", "6"),
    ("verify", "--suite", "graphs", "--n", "2"),
    ("verify", "--suite", "relaxed", "--n", "2"),
    ("verify", "--suite", "claims", "--n", "2"),
    ("conjecture", "--distance", "1", "--n-max", "3"),
    ("graphs", "enumerate"),
]

# Records sys.modules before `import hanoilab.cli`, runs every command
# through `cli.run` in each given format, and prints the exit statuses and
# the watched modules imported since.  It imports nothing watched itself.
PROBE = """
import contextlib, io, sys
watched, formats = sys.argv[1].split(), sys.argv[2].split()
commands = [line.split() for line in sys.argv[3].splitlines()]
before = set(sys.modules)
import hanoilab.cli

statuses = []
for fmt in formats:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            statuses.append(hanoilab.cli.run([*argv, "--format", fmt]))
print(*statuses)
print(*sorted(set(watched) & (set(sys.modules) - before)))
"""


def _imported(*formats: str, commands=COMMANDS, watched=WATCHED) -> list[str]:
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            PROBE,
            " ".join(sorted(watched)),
            " ".join(formats),
            "\n".join(map(" ".join, commands)),
        ],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    statuses, new = child.stdout.split("\n")[:2]
    assert statuses.split() == ["0"] * len(commands) * len(formats)
    return new.split()


def test_plain_and_csv_output_import_none_of_the_watched_modules():
    assert _imported("plain", "csv") == []


def test_json_output_imports_json_and_nothing_else_watched():
    assert _imported("json") == ["json"]


#: Exact arithmetic only `table` pays for: `fractions` for the closed forms
#: of `recurrence`, and `decimal` (which `fractions` imports too) for the
#: printed counts.  A module stays in `sys.modules` once imported, so each
#: command runs in a process of its own.
EXACT = ["decimal", "fractions"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_only_table_imports_fractions_and_decimal(argv):
    expected = EXACT if argv[0] == "table" else []
    assert _imported("plain", "csv", "json", commands=[argv], watched=EXACT) == expected

