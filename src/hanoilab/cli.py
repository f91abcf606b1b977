"""Command-line laboratory: solvers, exact count tables, oracle
verification, conjecture probes, and graph enumeration.

Output is deterministic byte for byte for identical flags: every
collection is emitted in a fixed sorted order, JSON keys are sorted, and
CSV numbers are exact decimal integers (counts outgrow 64-bit range).

Exit codes: 0 success, 1 verification failure, resource cap or closed
output (a reader that stops early, as `| head` does), 2 usage error.

This module parses the arguments and writes the output; each subcommand's
body is a module of its own, `cmd_<subcommand>`, which `run` imports for
the parsed subcommand alone, and `build_parser` builds only the subparser
that `argv[0]` names.  So a process compiles and builds only the command
it runs.  Under `python -m hanoilab.cli` this file runs as `__main__`, and
it registers itself as `hanoilab.cli` too: a command module's
`from .cli import ...` would otherwise compile it a second time, with
exception classes that `run` does not catch.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from itertools import chain

from .model import (
    DEFAULT_MOVE_BUDGET,
    DEFAULT_STATE_BUDGET,
    PEGS,
    Model,
    MoveGraph,
    SearchCapExceeded,
    # the graph enumerations, which callers still read from `cli`
    all_strongly_connected_graphs,
    enumerate_graph_classes,
)

EXIT_OK = 0
EXIT_FAILURE = 1


# ---------------------------------------------------------------------------
# Output: every CSV and JSON document goes through one of these two writers.


def write_csv(header, rows) -> None:
    """Write `header` and `rows` as CSV lines: fields as `str` writes them, a
    `str` holding a comma, quote, CR or LF quoted as csv.QUOTE_MINIMAL does
    (csv.writer scans every digit of long counts).  A `str` row is a whole line."""
    def field(value) -> str:
        if isinstance(value, str) and any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return str(value)

    sys.stdout.writelines(
        row if isinstance(row, str) else ",".join(map(field, row)) + "\n"
        for row in chain((header,), rows)
    )


def dumps(doc) -> str:
    import json  # here, so that only a command that writes JSON loads it
    return json.dumps(doc, sort_keys=True)


def write_json(doc, key=None, items=()) -> None:
    """Write `doc` as one line of `dumps(doc)`.  Given a `key`, the empty
    list `doc[key]` is streamed from `items`: encoded elements, each led by
    a separator the first drops."""
    text = dumps(doc)
    if key is not None:
        head, mark, tail = text.partition(f'"{key}": []')
        items = iter(items)
        # an encoded element starts with neither a comma nor a space
        sys.stdout.write(head + mark[:-1] + next(items, "").lstrip(", "))
        sys.stdout.writelines(items)
        text = "]" + tail
    print(text)


# ---------------------------------------------------------------------------
# Argument handling.


# Each model's rules: does it read --edges, the least --distance it reads
# (None: it reads none), and the solver `--solver auto` picks for it.
MODELS = {
    "classical": (False, None, "classical"),
    "digraph": (True, None, "directed"),
    "relaxed": (False, 1, "symmetric"),
    "custom": (True, 0, "bfs"),
}


def _int_in(low: int, high: int | None = None):
    """An argparse `type`: an int of at least `low`, and at most `high` unless None."""
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    def integer(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be {bound}")
        return value
    return integer


#: The subcommands, in the order the top-level help lists them.
COMMANDS = ("solve", "table", "verify", "conjecture", "graphs")


def _pegs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--from", dest="src", type=int, choices=PEGS, default=1)
    parser.add_argument("--to", dest="tgt", type=int, choices=PEGS, default=2)


def _budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-states", type=_int_in(1), default=DEFAULT_STATE_BUDGET, help="search state cap"
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hanoilab` parser: with the subparser of `command` alone when it
    names a subcommand, with all of them otherwise.  Its usage line names
    every subcommand either way, so each usage, help and error text is the
    same whichever subparsers it holds."""
    parser = argparse.ArgumentParser(
        prog="hanoilab",
        description="Generalized Tower of Hanoi laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.choices = COMMANDS  # what the usage line lists and argv[0] is checked against
    wanted = (command,) if command in COMMANDS else COMMANDS

    def subcommand(name, summary, flags=(), fmt="plain"):
        # flags are spelled in full, so no abbreviation reaches another flag
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for add in flags:
            add(p)
        p.add_argument("--format", choices=("plain", "csv", "json"), default=fmt)
        # each command reports its usage errors with its own usage line
        p.set_defaults(parser=p)
        return p

    if "solve" in wanted:
        p = subcommand("solve", "emit a move sequence", (_pegs, _budget))
        p.add_argument("--model", choices=tuple(MODELS), default="classical")
        p.add_argument("--edges", help="edge list i>j,k>l (digraph/custom models)")
        p.add_argument("--distance", type=_int_in(0), help="distance C (relaxed/custom)")
        p.add_argument("--n", type=_int_in(0), required=True, help="disc count")
        p.add_argument(
            "--solver",
            choices=("auto", "classical", "directed", "zeta", "symmetric", "q", "bfs"),
            default="auto",
        )
        # no longer sequence can be written, and below 2^64 the block walk stays under 80 levels
        p.add_argument(
            "--max-moves", type=_int_in(0, 1 << 64), default=DEFAULT_MOVE_BUDGET, help="move cap"
        )

    if "table" in wanted:
        p = subcommand("table", "exact move-count table for a digraph")
        at_zero = [name for name, rule in MODELS.items() if rule[1] is None]  # C = 0 only
        p.add_argument("--model", choices=at_zero, default="classical")
        p.add_argument("--edges", help="edge list i>j,k>l (digraph model)")
        p.add_argument("--n", type=_int_in(0), required=True, help="largest disc count")
        p.set_defaults(distance=None)  # for build_model: no table model reads one

    if "verify" in wanted:
        p = subcommand("verify", "run a harness suite", (_budget,))
        p.add_argument("--suite", choices=("graphs", "relaxed", "claims"), required=True)
        # a suite run below one disc would check nothing and still pass
        p.add_argument("--n", type=_int_in(1), help="largest disc count (default: per suite)")
        p.add_argument("--distance", type=_int_in(1), help="distance C (relaxed suite)")

    if "conjecture" in wanted:
        p = subcommand("conjecture", "probe the conjectured optima", (_pegs, _budget), fmt="csv")
        p.add_argument("--distance", type=_int_in(1), required=True, help="placement distance C")
        p.add_argument("--n-max", dest="n_max", type=_int_in(1), default=7)

    if "graphs" in wanted:
        p = subcommand("graphs", "enumerate strongly connected digraphs")
        p.add_argument("action", nargs="?", choices=("enumerate",), default="enumerate")

    return parser


def build_model(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Model:
    """The model of `--model`, its `--edges` and `--distance` checked by its `MODELS` row."""
    name = args.model
    reads_edges, least, _ = MODELS[name]
    if bool(args.edges) != reads_edges:
        parser.error(f"--edges is {'required' if reads_edges else 'not read'} for --model {name}")
    if least is None and args.distance is not None:
        parser.error(f"--distance is not read for --model {name}")
    if least is not None and (args.distance is None or args.distance < least):
        parser.error(f"--model {name} requires --distance >= {least}")
    try:
        graph = MoveGraph.parse(args.edges) if reads_edges else MoveGraph.complete()
    except ValueError as err:
        parser.error(str(err))
    if not graph.is_strongly_connected():
        parser.error("--edges must describe a strongly connected graph")
    return Model(graph, args.distance or 0)


def check_pegs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.src == args.tgt:
        parser.error("--from and --to must differ")


# ---------------------------------------------------------------------------


class Unprintable(Exception):
    """An exact count is too long for this Python to print."""


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    body = importlib.import_module(f"{__package__}.cmd_{args.command}")
    try:
        return body.run(args.parser, args)
    except (SearchCapExceeded, Unprintable) as err:
        print(f"error: resource cap exceeded: {err}", file=sys.stderr)
        return EXIT_FAILURE


def main() -> None:
    import gc  # here, so that `import hanoilab.cli` stays as it is
    import os

    # The import-time heap lives until exit: frozen, neither the collections
    # of the run nor the final one at exit walk it.
    gc.freeze()
    try:
        status = run()
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the SIGPIPE recipe of the Python docs: the flush at exit then
        # writes whatever is buffered to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_FAILURE
    sys.exit(status)


if __name__ == "__main__":
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]  # see the module docstring
    main()
