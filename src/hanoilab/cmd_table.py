"""`hanoilab table`: the exact move counts of a digraph, row by row, and
the check of its closed form."""

from __future__ import annotations

import argparse
import decimal
import sys

from . import recurrence  # lazy: bind it, not its names
from .cli import EXIT_FAILURE, EXIT_OK, Unprintable, build_model, write_csv, write_json


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    graph = build_model(parser, args).graph
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
                raise Unprintable(f"the counts for n={n} have more than {digits} digits")

    columns = ("n", *(f"N{i}{j}" for i, j in recurrence.PAIR_ORDER))
    # The printed counts are Decimals, whose str is linear in their digits
    # (an int's is quadratic), in a context that raises rather than round.
    with decimal.localcontext() as exact:
        exact.prec = decimal.MAX_PREC
        exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
        # rows stream from the recurrence, which keeps only the previous row
        rows = enumerate(recurrence.move_count_rows(graph, args.n, decimal.Decimal(0)))
        if args.format in ("plain", "csv"):
            write_csv(columns, (",".join(map(str, (n, *row))) + "\n" for n, row in rows))
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
            write_json(doc, "rows", (row_json.format(n, *map(str, row)) for n, row in rows))
    return EXIT_OK if closed_ok else EXIT_FAILURE
