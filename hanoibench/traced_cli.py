"""Run one ``hanoilab`` command with its library calls timed from outside.

    PYTHONPATH=src python hanoibench/traced_cli.py solve --n 3

Behaves like ``python -m hanoilab.cli`` with the same arguments: the same
stdout, stderr and exit code.  Before running it wraps every public
function of ``model``, ``solvers``, ``recurrence``, ``oracle`` and
``verify`` under every name it is bound to, because ``cli`` and ``oracle``
import functions by name.  A call that enters a module from outside it
opens a span; a call from inside the same module opens none, so each
module's self time is booked to its outermost span.  The whole ``run``,
including the final flush of stdout, is the ``cli`` span.

At exit the spans go to stderr as one line: TRACE_PREFIX followed by a
JSON list of ``[layer, function, parent, start, end, work]``, where
``parent`` indexes the list (-1 for the ``cli`` span) and ``work`` counts
states explored (``oracle``), moves replayed (``model``) or moves built
(``solvers``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections.abc import Sized

import hanoilab.cli

TRACE_PREFIX = "hanoibench-trace "

LAYERS = ("model", "solvers", "recurrence", "oracle", "verify")

#: Per-move helpers.  Wrapping them would measure the wrapper rather than
#: the library; their time lands in the caller (`apply_all`, the solvers).
PER_MOVE = {"apply", "can_place", "stack_is_legal", "mirror_move", "third_peg"}


class Tracer:
    """Spans of one command, kept in memory until the command ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []

    def layer(self) -> str | None:
        return self.spans[self.open[-1]][0] if self.open else None

    def enter(self, layer: str, name: str) -> list:
        span = [layer, name, self.open[-1] if self.open else -1, time.perf_counter(), 0.0, 0]
        self.open.append(len(self.spans))
        self.spans.append(span)
        return span

    def exit(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.open.pop()

    def add_work(self, amount: int) -> None:
        self.spans[self.open[-1]][5] += amount


def _explored(args, kwargs, result) -> int:
    return result.explored


def _moves(args, kwargs, result) -> int:
    # A generator's moves are made while its consumer runs; they count 0.
    return len(result) if isinstance(result, Sized) else 0


def _moves_replayed(args, kwargs, result) -> int:
    seq = args[2] if len(args) > 2 else kwargs["seq"]
    return len(seq) if isinstance(seq, Sized) else 0


#: (layer, function) -> (work counter, whether calls nested inside the same
#: layer also count).  Solvers count only at the boundary: an outer solver's
#: result already contains the moves of the solvers it calls.
WORK = {
    ("oracle", "bfs_distance"): (_explored, True),
    ("oracle", "shortest_symmetric"): (_explored, True),
    ("model", "apply_all"): (_moves_replayed, True),
    **{
        ("solvers", name): (_moves, False)
        for name in ("classical_solve", "directed_move", "zeta", "a_symmetric", "q_sequence")
    },
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    counter, nested_counts = WORK.get((layer, name), (None, False))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.layer() == layer:
            result = fn(*args, **kwargs)
            if nested_counts:
                tracer.add_work(counter(args, kwargs, result))
            return result
        span = tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if counter is not None:
            span[5] += counter(args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Replace each public library function, wherever it is bound in the
    ``hanoilab`` package, with a traced wrapper."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"hanoilab.{layer}"]
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name not in PER_MOVE
            ):
                wrappers[fn] = _wrap(tracer, layer, name, fn)
    for module_name, module in list(sys.modules.items()):
        if module_name != "hanoilab" and not module_name.startswith("hanoilab."):
            continue
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    root = tracer.enter("cli", "run")
    try:
        code = hanoilab.cli.run(argv)
        sys.stdout.flush()
    finally:
        tracer.exit(root)
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
