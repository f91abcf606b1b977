"""Command-line laboratory: solvers, exact count tables, oracle
verification, conjecture probes, and graph enumeration.

Output is deterministic byte for byte for identical flags: every
collection is emitted in a fixed sorted order, JSON keys are sorted, and
CSV numbers are exact decimal integers (counts outgrow 64-bit range).

Exit codes: 0 success, 1 verification failure, resource cap or closed
output (a reader that stops early, as `| head` does), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import Iterator

from . import oracle, recurrence, verify  # lazy: bind them, not their names
from .model import (
    DEFAULT_MOVE_BUDGET,
    DEFAULT_STATE_BUDGET,
    MOVES,
    PEGS,
    GoalPredicate,
    IllegalMoveError,
    Model,
    MoveGraph,
    SearchCapExceeded,
    all_strongly_connected_graphs,
    enumerate_graph_classes,
    replay,
    standard_state,
)
from .solvers import (
    a_symmetric,
    classical_solve,
    directed_move,
    move_blocks,
    move_count,
    q_sequence,
    zeta,
)

EXIT_OK = 0
EXIT_FAILURE = 1


# ---------------------------------------------------------------------------
# Output: every CSV and JSON document goes through one of these two writers.


def _write_csv(header, rows) -> None:
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


def _dumps(doc) -> str:
    import json  # here, so that only a command that writes JSON loads it
    return json.dumps(doc, sort_keys=True)


def _write_json(doc, key=None, items=()) -> None:
    """Write `doc` as one line of `_dumps(doc)`.  Given a `key`, the empty
    list `doc[key]` is streamed from `items`: encoded elements, each led by
    a separator the first drops."""
    text = _dumps(doc)
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
_MODELS = {
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


def build_parser() -> argparse.ArgumentParser:
    pegs = argparse.ArgumentParser(add_help=False)
    pegs.add_argument("--from", dest="src", type=int, choices=PEGS, default=1)
    pegs.add_argument("--to", dest="tgt", type=int, choices=PEGS, default=2)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--max-states", type=_int_in(1), default=DEFAULT_STATE_BUDGET, help="search state cap"
    )

    parser = argparse.ArgumentParser(
        prog="hanoilab",
        description="Generalized Tower of Hanoi laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=(), fmt="plain"):
        # flags are spelled in full, so no abbreviation reaches another flag
        p = sub.add_parser(name, parents=list(parents), help=summary, allow_abbrev=False)
        p.add_argument("--format", choices=("plain", "csv", "json"), default=fmt)
        # each command reports its usage errors with its own usage line
        p.set_defaults(func=func, parser=p)
        return p

    p_solve = command("solve", cmd_solve, "emit a move sequence", (pegs, budget))
    p_solve.add_argument("--model", choices=tuple(_MODELS), default="classical")
    p_solve.add_argument("--edges", help="edge list i>j,k>l (digraph/custom models)")
    p_solve.add_argument("--distance", type=_int_in(0), help="distance C (relaxed/custom)")
    p_solve.add_argument("--n", type=_int_in(0), required=True, help="disc count")
    p_solve.add_argument(
        "--solver",
        choices=("auto", "classical", "directed", "zeta", "symmetric", "q", "bfs"),
        default="auto",
    )
    # no longer sequence can be written, and below 2^64 the block walk stays under 80 levels
    p_solve.add_argument(
        "--max-moves", type=_int_in(0, 1 << 64), default=DEFAULT_MOVE_BUDGET, help="move cap"
    )

    p_table = command("table", cmd_table, "exact move-count table for a digraph")
    at_zero = [name for name, rule in _MODELS.items() if rule[1] is None]  # C = 0 only
    p_table.add_argument("--model", choices=at_zero, default="classical")
    p_table.add_argument("--edges", help="edge list i>j,k>l (digraph model)")
    p_table.add_argument("--n", type=_int_in(0), required=True, help="largest disc count")
    p_table.set_defaults(distance=None)  # for _build_model: no table model reads one

    p_verify = command("verify", cmd_verify, "run a harness suite", (budget,))
    p_verify.add_argument("--suite", choices=("graphs", "relaxed", "claims"), required=True)
    # a suite run below one disc would check nothing and still pass
    p_verify.add_argument("--n", type=_int_in(1), help="largest disc count (default: per suite)")
    p_verify.add_argument("--distance", type=_int_in(1), help="distance C (relaxed suite)")

    p_conj = command(
        "conjecture", cmd_conjecture, "probe the conjectured optima", (pegs, budget), fmt="csv"
    )
    p_conj.add_argument("--distance", type=_int_in(1), required=True, help="placement distance C")
    p_conj.add_argument("--n-max", dest="n_max", type=_int_in(1), default=7)

    p_graphs = command("graphs", cmd_graphs, "enumerate strongly connected digraphs")
    p_graphs.add_argument("action", nargs="?", choices=("enumerate",), default="enumerate")

    return parser


def _build_model(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Model:
    """The model of `--model`, its `--edges` and `--distance` checked by its `_MODELS` row."""
    name = args.model
    reads_edges, least, _ = _MODELS[name]
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


def _check_pegs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.src == args.tgt:
        parser.error("--from and --to must differ")


# ---------------------------------------------------------------------------
# solve


def cmd_solve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_pegs(parser, args)
    model = _build_model(parser, args)
    n, src, tgt, cap = args.n, args.src, args.tgt, args.max_moves

    solver = _MODELS[args.model][2] if args.solver == "auto" else args.solver
    if solver == "zeta":
        goal, predicate = "all-on-target", GoalPredicate.all_on(tgt)
    else:
        goal, predicate = "standard", GoalPredicate.standard_on(tgt)
    if solver == "classical":
        if args.model != "classical":
            parser.error("--solver classical requires the classical model")
        fn, params = classical_solve, (n, src, tgt)
    elif solver == "directed":
        if model.distance != 0:
            parser.error("--solver directed requires distance 0")
        fn, params = directed_move, (model.graph, src, tgt, n)
    elif solver in ("zeta", "symmetric", "q"):
        if model.distance < 1 or model.graph != MoveGraph.complete():
            parser.error(f"--solver {solver} requires the relaxed model")
        fn = {"zeta": zeta, "symmetric": a_symmetric, "q": q_sequence}[solver]
        params = (n, model.distance, src, tgt)
    else:  # bfs
        result = oracle.bfs_distance(
            model, standard_state(n, src), predicate, max_states=args.max_states
        )
        fn, params = lambda: result.path or (), ()

    # the length is known before any move is made; refuse what the cap forbids
    length = move_count(fn, *params, cap=cap)
    if length is None:
        print(f"error: {solver} sequence is longer than --max-moves {cap}", file=sys.stderr)
        return EXIT_FAILURE

    # a printed sequence must replay cleanly; refuse to emit otherwise.  The
    # deterministic block stream is made twice: once replayed, once written.
    try:
        final, replayed = replay(model, standard_state(n, src), move_blocks(fn, *params))
    except IllegalMoveError as err:
        print(f"error: {solver} sequence does not replay: {err}", file=sys.stderr)
        return EXIT_FAILURE
    if not predicate.matches(final):
        print(f"error: {solver} sequence does not reach the {goal} goal", file=sys.stderr)
        return EXIT_FAILURE
    if replayed != length:
        print(
            f"error: {solver} sequence replays {replayed} moves, its recurrence counts {length}",
            file=sys.stderr,
        )
        return EXIT_FAILURE

    blocks = move_blocks(fn, *params)
    # one formatted text per distinct move
    if args.format == "plain":
        sys.stdout.writelines(_rendered(blocks, {move: f"{move}\n" for move in MOVES.values()}))
        print(f"length: {length}")
    elif args.format == "csv":
        tail = {move: f",{move.src},{move.dst}\n" for move in MOVES.values()}
        _write_csv(
            ("index", "from", "to"),
            (f"{index}{tail[move]}" for index, move in enumerate(chain.from_iterable(blocks), 1)),
        )
    else:
        doc = {
            "model": args.model,
            "solver": solver,
            "n": n,
            "from": src,
            "to": tgt,
            "goal": goal,
            "length": length,
            "moves": [],
        }
        item = {move: f", [{move.src}, {move.dst}]" for move in MOVES.values()}
        _write_json(doc, "moves", _rendered(blocks, item))
    return EXIT_OK


def _rendered(blocks, text: dict) -> Iterator[str]:
    """The text of each block in turn, its moves' `text` joined, made once
    per distinct block object (the solvers memoise their blocks)."""
    texts: dict[int, tuple] = {}
    for block in blocks:
        entry = texts.get(id(block))
        if entry is None:
            # the entry keeps the block alive, so its id stays unique
            entry = texts[id(block)] = (block, "".join(map(text.__getitem__, block)))
        yield entry[1]


# ---------------------------------------------------------------------------
# table


class _Unprintable(Exception):
    """An exact count is too long for this Python to print."""


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    graph = _build_model(parser, args).graph
    closed = recurrence.closed_form_for(graph)
    # rows 0..10 decide the closed form for every n (proof: closed_form_for)
    closed_ok = closed is None or all(
        closed[1](pair, n) == value
        for n, row in enumerate(recurrence.move_count_rows(graph, 10))
        for pair, value in zip(recurrence.PAIR_ORDER, row)
    )
    # CPython refuses to print an int longer than its digit limit (0: none).
    # A count at n is at most 3**n - 1 (induction on both recurrence branches),
    # so only when 3**n > 10**digits (true from n = 3 * digits) does a silent
    # first pass look for an unprintable row, before any row is written.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = 10**digits
    if digits and 3 ** min(args.n, 3 * digits) > too_long:
        for n, row in enumerate(recurrence.move_count_rows(graph, args.n)):
            if max(row) >= too_long:
                raise _Unprintable(f"the counts for n={n} have more than {digits} digits")

    import decimal  # here, so that `solve` and `graphs` need not load it

    columns = ("n", *(f"N{i}{j}" for i, j in recurrence.PAIR_ORDER))
    # The printed counts are Decimals, whose str is linear in their digits
    # (an int's is quadratic), in a context that raises rather than round.
    with decimal.localcontext() as exact:
        exact.prec = decimal.MAX_PREC
        exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
        # rows stream from the recurrence, which keeps only the previous row
        rows = enumerate(recurrence.move_count_rows(graph, args.n, decimal.Decimal(0)))
        if args.format in ("plain", "csv"):
            _write_csv(columns, (",".join(map(str, (n, *row))) + "\n" for n, row in rows))
            if args.format == "plain" and closed is not None:
                print(f"closed_form[{closed[0]}]: {'ok' if closed_ok else 'MISMATCH'}")
        else:
            doc = {
                "edges": graph.format(),
                "n_max": args.n,
                "rows": [],
                "closed_form": None if closed is None else {"class": closed[0], "ok": closed_ok},
            }
            # each row as json.dumps(..., sort_keys=True) writes it; a count
            # goes in as its str, which is quicker than Decimal.__format__
            named = sorted(enumerate(columns), key=lambda column: column[1])
            row_json = ", {{" + ", ".join(f'"{name}": {{{c}}}' for c, name in named) + "}}"
            _write_json(doc, "rows", (row_json.format(n, *map(str, row)) for n, row in rows))
    return EXIT_OK if closed_ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# verify


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.distance is not None and args.suite != "relaxed":
        parser.error("--distance is only valid with --suite relaxed")
    if args.suite == "graphs":
        n_max = args.n if args.n is not None else 5
        by_graph = {
            graph: oracle.optimality_reports(graph, n_max, max_states=args.max_states)
            for graph in all_strongly_connected_graphs()
        }
        rows = [report for reports in by_graph.values() for report in reports]
        ok = all(report.ok for report in rows)
        if args.format == "csv":
            _write_csv(
                ("edges", "n", "pair", "bfs", "algorithm", "recurrence", "ok"),
                (
                    (r.graph.format(), c.n, MOVES[c.pair], c.bfs, c.algorithm, c.recurrence, c.ok)
                    for r in rows
                    for c in r.checks
                ),
            )
        elif args.format == "json":
            graphs = [
                {
                    "edges": r.graph.format(),
                    "n": r.n,
                    "ok": r.ok,
                    "failures": [
                        {k: v for k, v in c._asdict().items() if k != "n"} for c in r.failures()
                    ],
                }
                for r in rows
            ]
            _write_json({"suite": "graphs", "n_max": n_max, "pass": ok, "graphs": graphs})
        else:
            for graph, reports in by_graph.items():
                status = "ok" if all(r.ok for r in reports) else "MISMATCH"
                print(f"graph {graph.format()}: n<={n_max} {status}")
            print(f"graphs suite: {'PASS' if ok else 'FAIL'} ({len(by_graph)} graphs, n<={n_max})")
        return EXIT_OK if ok else EXIT_FAILURE

    # --n sizes the suites that search, the others keep their own bounds
    params = {} if args.n is None else {"n_max": args.n}
    if args.distance is not None:
        params["distance"] = args.distance
    reports = [
        verify.claim_harness(name, params if searches else {}, max_states=args.max_states)
        for name, (_, _, searches) in verify.CLAIM_SUITES.items()
        if args.suite == "claims" or name == "eq3-vs-oracle"
    ]
    ok = all(r.passed for r in reports)
    if args.format == "json":
        docs = (
            {
                "suite": r.suite,
                "params": r.params,
                "pass": r.passed,
                "counterexamples": r.counterexamples,
            }
            for r in reports
        )
        # this list's separator is "," where json.dumps writes ", "
        print("[" + ",".join(map(_dumps, docs)) + "]")
    elif args.format == "csv":
        _write_csv(
            ("suite", "pass", "counterexamples"),
            ((r.suite, r.passed, len(r.counterexamples)) for r in reports),
        )
    else:
        for r in reports:
            print(f"{r.suite}: {'PASS' if r.passed else 'FAIL'}")
            for ce in r.counterexamples:
                print(f"  counterexample: {_dumps(ce)}")
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# conjecture


def cmd_conjecture(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_pegs(parser, args)
    report = oracle.conjecture_probe(
        args.distance, args.n_max, src=args.src, tgt=args.tgt, max_states=args.max_states
    )
    rows = [(row._asdict(), row.match) for row in report.rows]
    verdict = {True: "MATCH", False: "MISMATCH"}
    if args.format == "csv":
        _write_csv(
            [*oracle.ProbeRow._fields, "match"],
            ([*values.values(), verdict[match]] for values, match in rows),
        )
    elif args.format == "json":
        docs = [{**values, "match": match} for values, match in rows]
        _write_json({"distance": report.distance, "rows": docs})
    else:
        for values, match in rows:
            print(" ".join([*(f"{k}={v}" for k, v in values.items()), verdict[match]]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# graphs


def cmd_graphs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    classes = enumerate_graph_classes()
    if args.format == "csv":
        _write_csv(
            ("class", "size", "representative", "note"),
            ((c.name, c.size, c.representative.format(), c.note) for c in classes),
        )
    elif args.format == "json":
        _write_json(
            [
                {
                    "class": c.name,
                    "size": c.size,
                    "representative": c.representative.format(),
                    "members": [g.format() for g in c.members],
                    "note": c.note,
                }
                for c in classes
            ]
        )
    else:
        for c in classes:
            print(
                f"{c.name}: members={c.size} representative={c.representative.format()}"
                f" ({c.note})"
            )
        print(f"total: {len(classes)} classes, {sum(c.size for c in classes)} labeled graphs")
    return EXIT_OK


# ---------------------------------------------------------------------------


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args.parser, args)
    except (SearchCapExceeded, _Unprintable) as err:
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
    main()
