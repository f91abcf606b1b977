"""`hanoilab verify`: run a harness suite and write its reports."""

from __future__ import annotations

import argparse

from . import oracle, verify  # lazy: bind them, not their names
from .cli import EXIT_FAILURE, EXIT_OK, dumps, write_csv, write_json
from .model import MOVES, all_strongly_connected_graphs


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
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
            write_csv(
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
            write_json({"suite": "graphs", "n_max": n_max, "pass": ok, "graphs": graphs})
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
        print("[" + ",".join(map(dumps, docs)) + "]")
    elif args.format == "csv":
        write_csv(
            ("suite", "pass", "counterexamples"),
            ((r.suite, r.passed, len(r.counterexamples)) for r in reports),
        )
    else:
        for r in reports:
            print(f"{r.suite}: {'PASS' if r.passed else 'FAIL'}")
            for ce in r.counterexamples:
                print(f"  counterexample: {dumps(ce)}")
    return EXIT_OK if ok else EXIT_FAILURE
