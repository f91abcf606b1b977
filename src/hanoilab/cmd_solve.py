"""`hanoilab solve`: one move sequence, replayed before it is written."""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import Iterator

from . import oracle, solvers  # lazy: bind them, not their names
from .cli import EXIT_FAILURE, EXIT_OK, MODELS, build_model, check_pegs, write_csv, write_json
from .model import MOVES, GoalPredicate, IllegalMoveError, MoveGraph, replay, standard_state


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    check_pegs(parser, args)
    model = build_model(parser, args)
    n, src, tgt, cap = args.n, args.src, args.tgt, args.max_moves

    solver = MODELS[args.model][2] if args.solver == "auto" else args.solver
    if solver == "zeta":
        goal, predicate = "all-on-target", GoalPredicate.all_on(tgt)
    else:
        goal, predicate = "standard", GoalPredicate.standard_on(tgt)
    if solver == "classical":
        if args.model != "classical":
            parser.error("--solver classical requires the classical model")
        fn, params = solvers.classical_solve, (n, src, tgt)
    elif solver == "directed":
        if model.distance != 0:
            parser.error("--solver directed requires distance 0")
        fn, params = solvers.directed_move, (model.graph, src, tgt, n)
    elif solver in ("zeta", "symmetric", "q"):
        if model.distance < 1 or model.graph != MoveGraph.complete():
            parser.error(f"--solver {solver} requires the relaxed model")
        by_name = {"zeta": solvers.zeta, "symmetric": solvers.a_symmetric, "q": solvers.q_sequence}
        fn, params = by_name[solver], (n, model.distance, src, tgt)
    else:  # bfs: the witness is in hand, one block whose length is its len()
        path = oracle.bfs_distance(
            model, standard_state(n, src), predicate, max_states=args.max_states
        ).path or ()
        length, blocks = len(path), lambda: (path,)
    if solver != "bfs":  # the length is known before any move is made
        length = solvers.move_count(fn, *params, cap=cap)
        blocks = lambda: solvers.move_blocks(fn, *params)
    if length is None or length > cap:  # refuse what the cap forbids
        print(f"error: {solver} sequence is longer than --max-moves {cap}", file=sys.stderr)
        return EXIT_FAILURE

    # a printed sequence must replay cleanly; refuse to emit otherwise.  The
    # deterministic block stream is made twice: once replayed, once written.
    try:
        final, replayed = replay(model, standard_state(n, src), blocks())
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

    # one formatted text per distinct move
    if args.format == "plain":
        sys.stdout.writelines(_rendered(blocks(), {move: f"{move}\n" for move in MOVES.values()}))
        print(f"length: {length}")
    elif args.format == "csv":
        tail = {move: f",{move.src},{move.dst}\n" for move in MOVES.values()}
        write_csv(
            ("index", "from", "to"),
            (f"{index}{tail[move]}" for index, move in enumerate(chain.from_iterable(blocks()), 1)),
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
        write_json(doc, "moves", _rendered(blocks(), item))
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
