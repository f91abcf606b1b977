"""The usage, help and error texts of `hanoilab`, byte for byte, with the
exit status: captured from `python -m hanoilab.cli` (CPython 3.11, 80
columns) while every process still built the parsers of all five
subcommands, and checked against each stream of a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hanoilab

PACKAGE = Path(hanoilab.__file__).resolve().parent
PATHS = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
# argparse wraps usage lines to COLUMNS
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS), COLUMNS="80")

TOP_USAGE = "usage: hanoilab [-h] {solve,table,verify,conjecture,graphs} ...\n"
TOP_HELP = TOP_USAGE + """
Generalized Tower of Hanoi laboratory

positional arguments:
  {solve,table,verify,conjecture,graphs}
    solve               emit a move sequence
    table               exact move-count table for a digraph
    verify              run a harness suite
    conjecture          probe the conjectured optima
    graphs              enumerate strongly connected digraphs

options:
  -h, --help            show this help message and exit
"""

SOLVE_USAGE = """\
usage: hanoilab solve [-h] [--from {1,2,3}] [--to {1,2,3}]
                      [--max-states MAX_STATES] [--format {plain,csv,json}]
                      [--model {classical,digraph,relaxed,custom}]
                      [--edges EDGES] [--distance DISTANCE] --n N
                      [--solver {auto,classical,directed,zeta,symmetric,q,bfs}]
                      [--max-moves MAX_MOVES]
"""
TABLE_USAGE = """\
usage: hanoilab table [-h] [--format {plain,csv,json}]
                      [--model {classical,digraph}] [--edges EDGES] --n N
"""
VERIFY_USAGE = """\
usage: hanoilab verify [-h] [--max-states MAX_STATES]
                       [--format {plain,csv,json}] --suite
                       {graphs,relaxed,claims} [--n N] [--distance DISTANCE]
"""
CONJECTURE_USAGE = """\
usage: hanoilab conjecture [-h] [--from {1,2,3}] [--to {1,2,3}]
                           [--max-states MAX_STATES]
                           [--format {plain,csv,json}] --distance DISTANCE
                           [--n-max N_MAX]
"""
GRAPHS_USAGE = "usage: hanoilab graphs [-h] [--format {plain,csv,json}] [{enumerate}]\n"

HELP = {
    "solve": SOLVE_USAGE + """
options:
  -h, --help            show this help message and exit
  --from {1,2,3}
  --to {1,2,3}
  --max-states MAX_STATES
                        search state cap
  --format {plain,csv,json}
  --model {classical,digraph,relaxed,custom}
  --edges EDGES         edge list i>j,k>l (digraph/custom models)
  --distance DISTANCE   distance C (relaxed/custom)
  --n N                 disc count
  --solver {auto,classical,directed,zeta,symmetric,q,bfs}
  --max-moves MAX_MOVES
                        move cap
""",
    "table": TABLE_USAGE + """
options:
  -h, --help            show this help message and exit
  --format {plain,csv,json}
  --model {classical,digraph}
  --edges EDGES         edge list i>j,k>l (digraph model)
  --n N                 largest disc count
""",
    "verify": VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --max-states MAX_STATES
                        search state cap
  --format {plain,csv,json}
  --suite {graphs,relaxed,claims}
  --n N                 largest disc count (default: per suite)
  --distance DISTANCE   distance C (relaxed suite)
""",
    "conjecture": CONJECTURE_USAGE + """
options:
  -h, --help            show this help message and exit
  --from {1,2,3}
  --to {1,2,3}
  --max-states MAX_STATES
                        search state cap
  --format {plain,csv,json}
  --distance DISTANCE   placement distance C
  --n-max N_MAX
""",
    "graphs": GRAPHS_USAGE + """
positional arguments:
  {enumerate}

options:
  -h, --help            show this help message and exit
  --format {plain,csv,json}
""",
}

# (argv, exit status, stdout, stderr)
PINNED = [
    (("-h",), 0, TOP_HELP, ""),
    (("--help", "solve"), 0, TOP_HELP, ""),
    *(((name, "-h"), 0, text, "") for name, text in HELP.items()),
    # no subcommand, and an unknown one
    ((), 2, "", TOP_USAGE + "hanoilab: error: the following arguments are required: command\n"),
    (
        ("nosuch",),
        2,
        "",
        TOP_USAGE + "hanoilab: error: argument command: invalid choice: 'nosuch'"
        " (choose from 'solve', 'table', 'verify', 'conjecture', 'graphs')\n",
    ),
    # an unrecognized argument after a subcommand: the top-level usage line
    (
        ("table", "--n", "3", "--distance", "2"),
        2,
        "",
        TOP_USAGE + "hanoilab: error: unrecognized arguments: --distance 2\n",
    ),
    # a missing required flag, a flag missing its value, values out of range
    (
        ("table",),
        2,
        "",
        TABLE_USAGE + "hanoilab table: error: the following arguments are required: --n\n",
    ),
    (
        ("verify",),
        2,
        "",
        VERIFY_USAGE + "hanoilab verify: error: the following arguments are required: --suite\n",
    ),
    (("solve", "--n"), 2, "", SOLVE_USAGE + "hanoilab solve: error: argument --n: expected one argument\n"),
    (("solve", "--n", "-1"), 2, "", SOLVE_USAGE + "hanoilab solve: error: argument --n: must be >= 0\n"),
    (
        ("verify", "--suite", "graphs", "--n", "0"),
        2,
        "",
        VERIFY_USAGE + "hanoilab verify: error: argument --n: must be >= 1\n",
    ),
    (
        ("conjecture", "--distance", "1", "--from", "4"),
        2,
        "",
        CONJECTURE_USAGE
        + "hanoilab conjecture: error: argument --from: invalid choice: 4 (choose from 1, 2, 3)\n",
    ),
    (
        ("graphs", "other"),
        2,
        "",
        GRAPHS_USAGE + "hanoilab graphs: error: argument action: invalid choice: 'other'"
        " (choose from 'enumerate')\n",
    ),
]


@pytest.mark.parametrize(
    "argv, status, out, err", PINNED, ids=[" ".join(argv) or "(none)" for argv, *_ in PINNED]
)
def test_usage_help_and_error_texts_are_pinned(argv, status, out, err):
    child = subprocess.run(
        [sys.executable, "-m", "hanoilab.cli", *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (status, out, err)
