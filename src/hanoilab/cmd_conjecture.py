"""`hanoilab conjecture`: the conjectured optima against exhaustive search."""

from __future__ import annotations

import argparse

from . import oracle  # lazy: bind it, not its names
from .cli import EXIT_OK, check_pegs, write_csv, write_json


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    check_pegs(parser, args)
    report = oracle.conjecture_probe(
        args.distance, args.n_max, src=args.src, tgt=args.tgt, max_states=args.max_states
    )
    rows = [(row._asdict(), row.match) for row in report.rows]
    verdict = {True: "MATCH", False: "MISMATCH"}
    if args.format == "csv":
        write_csv(
            [*oracle.ProbeRow._fields, "match"],
            ([*values.values(), verdict[match]] for values, match in rows),
        )
    elif args.format == "json":
        docs = [{**values, "match": match} for values, match in rows]
        write_json({"distance": report.distance, "rows": docs})
    else:
        for values, match in rows:
            print(" ".join([*(f"{k}={v}" for k, v in values.items()), verdict[match]]))
    return EXIT_OK
