"""The benchmark's workloads and the checks that certify their outputs.

A workload is a fixed sequence of ``hanoilab`` CLI commands.  The seed
picks a peg permutation that relabels the ``--edges``, ``--from`` and
``--to`` of every ``solve`` and ``conjecture`` command: the relabeled
problems are isomorphic to the originals, so the work is the same while
the bytes differ.  ``table`` commands keep their labelings, because
``table`` checks a closed form only for the four exact labelings that
``hanoilab.recurrence`` names; relabeling would silently drop that work.

Every command carries a check that reads its stdout and returns None when
the output is certified, or a one-line reason when it is not.  Expected
lengths come from a path independent of the command that produced the
moves: ``2^n - 1``, ``eval_move_counts`` or ``conjecture_values``.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from hanoilab import recurrence
from hanoilab.model import MoveGraph

PERMUTATIONS = tuple(itertools.permutations((1, 2, 3)))

COMPLETE = "1>2,1>3,2>1,2>3,3>1,3>2"
CYCLE = "1>2,2>3,3>1"
CHORD = "1>2,1>3,3>1,2>3"
LINEAR = "1>2,2>1,1>3,3>1"
FIVE_EDGE = "1>2,1>3,2>3,3>1,3>2"

#: Optimal standard-transfer lengths on the linear graph at distance 1,
#: recorded from the BFS oracle.  No recurrence covers this model; the
#: length is invariant under peg relabeling because the problems are
#: isomorphic.
CUSTOM_LINEAR_C1_LENGTH = {6: 56, 7: 95, 8: 180}

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def permutation_for(seed: int) -> tuple[int, int, int]:
    """The peg relabeling a workload seed selects: peg p becomes perm[p-1]."""
    return PERMUTATIONS[random.Random(seed).randrange(len(PERMUTATIONS))]


def _relabel(perm: tuple[int, int, int], edges: str) -> str:
    graph = MoveGraph.parse(edges)
    return graph.relabel({p: perm[p - 1] for p in (1, 2, 3)}).format()


# ---------------------------------------------------------------------------
# Command constructors.


def solve(perm, n, src, tgt, *, edges=COMPLETE, distance=0, solver=None, fmt=None):
    """A ``solve`` command on the relabeled problem, checked by replay."""
    src, tgt = perm[src - 1], perm[tgt - 1]
    edges = _relabel(perm, edges)
    complete = edges == COMPLETE
    if distance == 0:
        model = "classical" if complete else "digraph"
    else:
        model = "relaxed" if complete else "custom"
    argv = ["solve", "--model", model, "--n", str(n), "--from", str(src), "--to", str(tgt)]
    if not complete:
        argv += ["--edges", edges]
    if distance:
        argv += ["--distance", str(distance)]
    if solver:
        argv += ["--solver", solver]
    if fmt:
        argv += ["--format", fmt]
    check = functools.partial(
        check_solve,
        n=n,
        src=src,
        tgt=tgt,
        edges=edges,
        distance=distance,
        all_on=solver == "zeta",
        expected=_expected_length(n, src, tgt, edges, distance, solver),
        fmt=fmt or "plain",
    )
    return Command(tuple(argv), check)


def _expected_length(n, src, tgt, edges, distance, solver) -> int:
    if distance == 0:
        if edges == COMPLETE:
            return 2**n - 1
        return recurrence.eval_move_counts(MoveGraph.parse(edges), n).value((src, tgt), n)
    if edges != COMPLETE:
        if distance != 1:
            raise ValueError("no recorded length for this custom model")
        return CUSTOM_LINEAR_C1_LENGTH[n]
    a, b = recurrence.conjecture_values(n, distance)
    if solver == "zeta":
        return b[n]
    if solver == "q":
        return _q_length(n, distance, b)
    if distance != 1:
        raise ValueError("the standard optimum is proven only at distance 1")
    return a[n]


def _q_length(n: int, C: int, b: list[int]) -> int:
    """Length of the five-step transfer: two gathers of n-k discs, 2k
    carries, then the same transfer on n-k discs, bottoming out in a
    symmetric transfer of 2m-1 moves for m <= k discs."""
    k = C + 1
    if n <= k:
        return 2 * n - 1 if n else 0
    return 2 * b[n - k] + 2 * k + _q_length(n - k, C, b)


def conjecture(perm, distance, n_max):
    src, tgt = perm[0], perm[1]
    argv = (
        "conjecture", "--distance", str(distance), "--n-max", str(n_max),
        "--from", str(src), "--to", str(tgt),
    )
    return Command(argv, functools.partial(check_conjecture, n_max=n_max))


def verify_graphs(n):
    return Command(
        ("verify", "--suite", "graphs", "--n", str(n)),
        functools.partial(check_verify_graphs, n=n),
    )


def verify_claims(n):
    return Command(("verify", "--suite", "claims", "--n", str(n)), check_verify_claims)


def table(edges, n, *, fmt=None, closed_form=None):
    argv = ["table", "--model", "digraph", "--edges", edges, "--n", str(n)]
    if fmt:
        argv += ["--format", fmt]
    check = functools.partial(check_table, n=n, fmt=fmt or "plain", closed_form=closed_form)
    return Command(tuple(argv), check)


def graphs_enumerate():
    return Command(("graphs", "enumerate", "--format", "json"), check_graphs)


# ---------------------------------------------------------------------------
# Workloads.  Disc counts are sized so one sequence takes a few seconds on a
# 2-core x86 machine; `smoke` shrinks every count to seconds in total.


def _sizer(smoke: bool):
    return lambda full, tiny: tiny if smoke else full


def certify_digraphs(perm, smoke=False):
    # The dense base-3 BFS core at C=0 does nearly all the work: the
    # multi-goal searches of `verify --suite graphs` and the witness
    # searches of `solve --solver bfs`, on all four non-complete shapes.
    s = _sizer(smoke)
    return [
        verify_graphs(s(8, 3)),
        solve(perm, s(11, 4), 1, 3, solver="bfs"),
        solve(perm, s(9, 4), 2, 1, edges=CYCLE, solver="bfs"),
        solve(perm, s(9, 4), 2, 3, edges=CHORD, solver="bfs"),
        solve(perm, s(8, 4), 2, 3, edges=LINEAR, solver="bfs"),
    ]


def probe_relaxed(perm, smoke=False):
    # The sparse stack-tuple BFS core at C>=1 does nearly all the work.
    # The custom linear graph is not mirror-closed for 1->2, so that search
    # cannot use a half-depth mirror search.
    s = _sizer(smoke)
    return [
        conjecture(perm, 1, s(8, 4)),
        conjecture(perm, 2, s(8, 4)),
        verify_claims(s(8, 3)),
        solve(perm, s(8, 4), 1, 2, distance=1, solver="bfs"),
        solve(perm, s(8, 6), 1, 2, edges=LINEAR, distance=1),
    ]


def emit_exact(perm, smoke=False):
    # No oracle call: time goes to constructing moves (solvers), replaying
    # them (model), exact closed forms (recurrence) and formatting several
    # megabytes of stdout (cli).  `table` keeps its labelings; see the
    # module docstring.
    s = _sizer(smoke)
    return [
        solve(perm, s(17, 5), 1, 3),
        solve(perm, s(10, 4), 1, 2, edges=CYCLE, fmt="csv"),
        solve(perm, s(26, 6), 1, 2, distance=1, fmt="json"),
        solve(perm, s(38, 8), 1, 2, distance=2, solver="q"),
        solve(perm, s(26, 6), 1, 2, distance=1, solver="zeta"),
        table(CYCLE, s(90, 10), closed_form="cycle"),
        table(CHORD, s(90, 10), closed_form="cycle-chord"),
        table(LINEAR, s(400, 10), fmt="json", closed_form="linear"),
        table(FIVE_EDGE, s(2000, 10)),
        graphs_enumerate(),
    ]


WORKLOADS: dict[str, Callable[..., list[Command]]] = {
    "certify-digraphs": certify_digraphs,
    "probe-relaxed": probe_relaxed,
    "emit-exact": emit_exact,
}


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the output is certified, else a reason.


def _replay(n, src, moves, edges, distance):
    """Replay from the standard state on `src` with the pairwise distance
    rule; returns the final stacks, or a reason string on an illegal move."""
    allowed = set(MoveGraph.parse(edges).edges)
    stacks = [[], [], []]
    lows = [[], [], []]  # running minimum of each stack, bottom to top
    for disc in range(n, 0, -1):
        stacks[src - 1].append(disc)
        lows[src - 1].append(disc)
    for index, (i, j) in enumerate(moves, start=1):
        if (i, j) not in allowed:
            return f"move {index} {i}>{j} is not an edge"
        if not stacks[i - 1]:
            return f"move {index} {i}>{j} takes from an empty peg"
        disc = stacks[i - 1][-1]
        if lows[j - 1] and disc > lows[j - 1][-1] + distance:
            return f"move {index} {i}>{j} breaks the distance rule"
        stacks[i - 1].pop()
        lows[i - 1].pop()
        stacks[j - 1].append(disc)
        lows[j - 1].append(min(disc, lows[j - 1][-1]) if lows[j - 1] else disc)
    return stacks


def _parse_moves(text: str, fmt: str):
    lines = text.splitlines()
    if fmt == "json":
        doc = json.loads(text)
        return [tuple(m) for m in doc["moves"]], doc["length"]
    if fmt == "csv":
        if not lines or lines[0] != "index,from,to":
            return None, None
        moves = []
        for k, line in enumerate(lines[1:], start=1):
            index, i, j = (int(x) for x in line.split(","))
            if index != k:
                return None, None
            moves.append((i, j))
        return moves, len(moves)
    if not lines or not lines[-1].startswith("length: "):
        return None, None
    moves = [tuple(int(x) for x in line.split(">")) for line in lines[:-1]]
    return moves, int(lines[-1][len("length: "):])


def check_solve(stdout, *, n, src, tgt, edges, distance, all_on, expected, fmt):
    try:
        moves, length = _parse_moves(stdout.decode(), fmt)
    except (ValueError, KeyError, TypeError) as err:
        return f"unparsable {fmt} output: {err}"
    if moves is None:
        return f"malformed {fmt} output"
    if length != len(moves):
        return f"reported length {length} but {len(moves)} moves"
    if len(moves) != expected:
        return f"{len(moves)} moves, expected {expected}"
    stacks = _replay(n, src, moves, edges, distance)
    if isinstance(stacks, str):
        return stacks
    if any(stacks[p - 1] for p in (1, 2, 3) if p != tgt):
        return "replay leaves discs off the target peg"
    if not all_on and stacks[tgt - 1] != list(range(n, 0, -1)):
        return "replay does not end in the standard state"
    return None


def check_conjecture(stdout, *, n_max):
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != "n,bfs_std,bfs_any,a_conj,b_conj,len_a_sym,len_q,match":
        return "missing conjecture header"
    if [line.split(",", 1)[0] for line in lines[1:]] != [str(n) for n in range(1, n_max + 1)]:
        return "conjecture rows do not cover 1..n-max"
    if not all(line.endswith(",MATCH") for line in lines[1:]):
        return "conjecture row is not MATCH"
    return None


def check_verify_graphs(stdout, *, n):
    lines = stdout.decode().splitlines()
    if lines[-1:] != [f"graphs suite: PASS (18 graphs, n<={n})"]:
        return "graphs suite did not PASS"
    if len(lines) != 19 or not all(line.endswith(f"n<={n} ok") for line in lines[:-1]):
        return "a graph line is not ok"
    return None


CLAIM_SUITES = (
    "eq3-vs-oracle",
    "claim51-inequality",
    "dn-negative",
    "symmetric-odd",
    "symmetric-equals-a",
)


def check_verify_claims(stdout):
    if stdout.decode().splitlines() != [f"{suite}: PASS" for suite in CLAIM_SUITES]:
        return "a claim suite did not PASS"
    return None


def check_table(stdout, *, n, fmt, closed_form):
    text = stdout.decode()
    if fmt == "json":
        doc = json.loads(text)
        if [row["n"] for row in doc["rows"]] != list(range(n + 1)):
            return "table rows do not cover 0..n"
        want = None if closed_form is None else {"class": closed_form, "ok": True}
        return None if doc["closed_form"] == want else "closed form is not ok"
    lines = text.splitlines()
    if not lines or lines[0] != "n,N12,N21,N13,N31,N23,N32":
        return "missing table header"
    rows = lines[1 : n + 2]
    if [row.split(",", 1)[0] for row in rows] != [str(k) for k in range(n + 1)]:
        return "table rows do not cover 0..n"
    tail = lines[n + 2 :]
    want = [] if closed_form is None else [f"closed_form[{closed_form}]: ok"]
    return None if tail == want else "closed form is not ok"


def check_graphs(stdout):
    classes = json.loads(stdout)
    names = sorted(c["class"] for c in classes)
    if names != ["complete", "cycle", "cycle-chord", "five-edge", "linear"]:
        return f"unexpected classes {names}"
    if sum(c["size"] for c in classes) != 18:
        return "classes do not cover the 18 labeled graphs"
    return None
