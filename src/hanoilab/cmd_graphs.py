"""`hanoilab graphs`: the strongly connected digraphs on three pegs, by class."""

from __future__ import annotations

import argparse

from .cli import EXIT_OK, write_csv, write_json
from .model import enumerate_graph_classes


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    classes = enumerate_graph_classes()
    if args.format == "csv":
        write_csv(
            ("class", "size", "representative", "note"),
            ((c.name, c.size, c.representative.format(), c.note) for c in classes),
        )
    elif args.format == "json":
        write_json(
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
