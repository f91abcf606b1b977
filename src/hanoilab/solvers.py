"""Constructive move-sequence generators for all supported models.

Sequences are pure (src, dst) peg-move lists, independent of disc
identities: legality always depends on the state they are replayed from
and is checked by the engine (`model.apply_all`), never assumed here.
The auxiliary peg is always the one that is neither source nor target.

Each solver is written once, as a recursion rule: a subproblem key
``(rule, parameter, m, i, j)`` expands into parts, each a smaller key or a run of
one repeated move.  `move_blocks` walks the rule and yields the moves in
blocks.  A subproblem of at most BLOCK_MOVES moves is built once per call
as a tuple of the shared `MOVES` and yielded whole wherever it recurs;
above that size the walk yields its parts in order.  A stream therefore
holds O(n + BLOCK_MOVES) moves, and the Python-level recursion runs once
per block, not once per move.  The public solvers return the same blocks
chained into a list, so there is no second code path; callers that read
the moves once (the CLI, `oracle.optimality_reports`) iterate the blocks
instead and never hold the list.  Per-block consumers do their work once
per distinct block object: the CLI formats each block once
(`cli._rendered`), and the replay (`model.replay`) applies a block that
recurs in an equivalent context from its recorded effect.  `move_block_streams` walks many
transfers through one set of memos, so a block they share is built once.
`move_count` gives a sequence's exact length from its recurrence before
any move is made, iteratively and capped, so an input whose answer is
astronomically long costs O(log cap) steps.  For a move graph those
steps are the rows of `move_count_rows`, the one implementation of the
six coupled counts, which `eval_move_counts` tabulates.  The distance-C
counts live here too: b(n) and a(n) (`conjecture_values`) and the
five-step x(n) (`q_lengths`).  All of them are integer recurrences, so
the commands that read them never load `recurrence` and its closed forms.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from .model import MOVES, Move, MoveGraph, third_peg

#: Largest subsequence built as one tuple; longer ones stream as blocks.
BLOCK_MOVES = 1024

_COMPLETE = MoveGraph.complete()

#: Ordered peg pairs in fixed column order (also the CSV column order).
PAIR_ORDER: tuple[tuple[int, int], ...] = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


class _Run(NamedTuple):
    """`count` copies of one move: the only literal part of a rule."""

    move: Move
    count: int


class _Walk:
    """Expansions of rules into blocks, with the memos they share.

    A class rather than nested functions, because recursive closures form
    reference cycles that keep the memos alive until the cyclic collector
    runs, well after the walk ended.
    """

    def __init__(self) -> None:
        self.parts_of: dict[tuple, tuple] = {}
        self.built: dict[tuple, tuple[Move, ...] | None] = {}
        self.runs: dict[tuple[Move, int], tuple[Move, ...]] = {}

    def parts(self, key: tuple) -> tuple:
        found = self.parts_of.get(key)
        if found is None:
            found = self.parts_of[key] = key[0](*key[1:])
        return found

    def run(self, move: Move, count: int) -> tuple[Move, ...]:
        block = self.runs.get((move, count))
        if block is None:
            block = self.runs[move, count] = (move,) * count
        return block

    def build(self, key: tuple) -> tuple[Move, ...] | None:
        """The whole subsequence as one tuple, or None above BLOCK_MOVES."""
        if key in self.built:
            return self.built[key]
        pieces, size, block = [], 0, None
        for part in self.parts(key):
            if type(part) is _Run:
                size += part.count
                piece = self.run(*part) if size <= BLOCK_MOVES else None
            else:
                piece = self.build(part)
                size += BLOCK_MOVES + 1 if piece is None else len(piece)
            if size > BLOCK_MOVES:
                break
            pieces.append(piece)
        else:
            block = tuple(chain.from_iterable(pieces))
        self.built[key] = block
        return block

    def blocks(self, key: tuple) -> Iterator[tuple[Move, ...]]:
        """Yield the moves of `key` in non-empty blocks of at most
        BLOCK_MOVES moves.  Every block is an object memoised for the life
        of the walk, so a consumer may cache per-block work by identity."""
        block = self.build(key)
        if block is not None:
            if block:
                yield block
            return
        for part in self.parts(key):
            if type(part) is _Run:
                full, rest = divmod(part.count, BLOCK_MOVES)
                for _ in range(full):
                    yield self.run(part.move, BLOCK_MOVES)
                if rest:
                    yield self.run(part.move, rest)
            else:
                yield from self.blocks(part)


def _check_transfer(src: int, tgt: int, n: int) -> None:
    if src == tgt:
        raise ValueError("src and tgt must differ")
    if src not in (1, 2, 3) or tgt not in (1, 2, 3):
        raise ValueError("pegs must be in 1..3")
    if n < 0:
        raise ValueError("disc count must be >= 0")


# ---------------------------------------------------------------------------
# Rules.  A key is (rule, parameter, m, i, j): the subproblem of moving m
# discs from peg i to peg j, and rule(parameter, m, i, j) returns its parts.
# The rules are plain functions, so a walk's keys form no reference cycles.


def _directed(edges: frozenset, m: int, i: int, j: int) -> tuple:
    if m == 0:
        return ()
    k = third_peg(i, j)
    if (i, j) in edges:
        return (
            (_directed, edges, m - 1, i, k),
            _Run(MOVES[i, j], 1),
            (_directed, edges, m - 1, k, j),
        )
    return (
        (_directed, edges, m - 1, i, j),
        _Run(MOVES[i, k], 1),
        (_directed, edges, m - 1, j, i),
        _Run(MOVES[k, j], 1),
        (_directed, edges, m - 1, i, j),
    )


def _zeta(C: int, m: int, i: int, j: int) -> tuple:
    if m <= C + 1:
        return (_Run(MOVES[i, j], m),)
    k = third_peg(i, j)
    return ((_zeta, C, m - C - 1, i, k), _Run(MOVES[i, j], C + 1), (_zeta, C, m - C - 1, k, j))


def _symmetric(C: int, m: int, i: int, j: int) -> tuple:
    # the mirrored reverse of zeta(m-1, i, k) under the i/j swap is
    # zeta(m-1, k, j): the zeta rule commutes with mirroring
    if m == 0:
        return ()
    k = third_peg(i, j)
    return ((_zeta, C, m - 1, i, k), _Run(MOVES[i, j], 1), (_zeta, C, m - 1, k, j))


def _q(C: int, m: int, i: int, j: int) -> tuple:
    k = C + 1
    if m <= k:
        return _symmetric(C, m, i, j)
    aux = third_peg(i, j)
    return (
        (_zeta, C, m - k, i, j),
        _Run(MOVES[i, aux], k),
        (_zeta, C, m - k, j, i),
        _Run(MOVES[aux, j], k),
        (_q, C, m - k, i, j),
    )


# ---------------------------------------------------------------------------
# The six coupled move counts of a move graph, streamed and tabulated.


def move_count_rows(graph: MoveGraph, n_max: int, zero=0) -> Iterator[tuple]:
    """Yield the exact move counts for n = 0..n_max, one row per n with
    the six pairs in PAIR_ORDER, keeping only the previous row.  The counts
    are sums built from `zero`, so its type carries the arithmetic: an int
    by default, or a `decimal.Decimal`, whose `str` is linear in its digits,
    under a context that cannot round.

    For each ordered pair (i, j) with auxiliary peg k, the count for n
    discs is counts(i,k) + counts(k,j) + 1 when the edge i>j exists, and
    2*counts(i,j) + counts(j,i) + 2 when it does not (all at n-1 discs).
    The arguments are checked at once, before the first row is asked for.
    """
    if not graph.is_strongly_connected():
        raise ValueError("move graph must be strongly connected")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    column = {pair: c for c, pair in enumerate(PAIR_ORDER)}
    # per column: the columns it adds up, and whether it is an edge
    plan = []
    for i, j in PAIR_ORDER:
        k = third_peg(i, j)
        if graph.has_edge(i, j):
            plan.append((True, column[i, k], column[k, j]))
        else:
            plan.append((False, column[i, j], column[j, i]))

    # the constants in zero's type, so a Decimal row converts no int per count
    one = zero + 1
    two = one + one

    def rows() -> Iterator[tuple]:
        row = (zero,) * len(PAIR_ORDER)
        yield row
        for _ in range(n_max):
            row = tuple(
                row[a] + row[b] + one if edge else two * row[a] + row[b] + two
                for edge, a, b in plan
            )
            yield row

    return rows()


class CountTable(NamedTuple):
    """Exact move counts per ordered peg pair for n = 0..n_max."""

    graph: MoveGraph
    n_max: int
    counts: dict[tuple[int, int], tuple[int, ...]]

    def value(self, pair: tuple[int, int], n: int) -> int:
        return self.counts[pair][n]

    def column(self, pair: tuple[int, int]) -> tuple[int, ...]:
        return self.counts[pair]


def eval_move_counts(graph: MoveGraph, n_max: int) -> CountTable:
    """Iterate the six coupled recurrences with exact integers
    (`move_count_rows`) and keep every row."""
    columns = zip(*move_count_rows(graph, n_max))
    return CountTable(graph, n_max, dict(zip(PAIR_ORDER, columns)))


# ---------------------------------------------------------------------------
# The distance-C counts as lists, n = 0..n_max.


def conjecture_values(n_max: int, C: int) -> tuple[list[int], list[int]]:
    """Iterate the conjectured optimum recurrences for distance C.

    b(m) = m for m <= C+1 (move discs one by one; the inverted pile is
    exactly legal), then b(n) = 2*b(n-C-1) + C + 1; a(n) = 2*b(n-1) + 1
    with a(0) = 0.  For C = 1 this reproduces the proven optimal system.
    """
    if C < 1:
        raise ValueError("distance must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b: list[int] = []
    for n in range(n_max + 1):
        if n <= C + 1:
            b.append(n)
        else:
            b.append(2 * b[n - C - 1] + C + 1)
    a = [0] + [2 * b[n - 1] + 1 for n in range(1, n_max + 1)]
    return a, b


def q_lengths(n_max: int, C: int) -> list[int]:
    """Lengths of the five-step transfer: x(m) = m for m <= C+1, then
    x(n) = 2*b(n-k) + x(n-k) + 2k with k = C+1."""
    k = C + 1
    _, b = conjecture_values(n_max, C)
    x: list[int] = []
    for n in range(n_max + 1):
        if n <= k:
            x.append(n)
        else:
            x.append(2 * b[n - k] + x[n - k] + 2 * k)
    return x


# ---------------------------------------------------------------------------
# Exact lengths, capped: count(parameter, m, i, j, cap) is the length of
# rule(parameter, m, i, j) or None once a partial length passes `cap`.
# Each loop climbs from the recursion's base and stops within O(log cap)
# steps, because the lengths at least double per step.


def _directed_count(edges: frozenset, n: int, src: int, tgt: int, cap: int) -> int | None:
    # every count is at least 2^m - 1, so all six pass cap within
    # log2(cap + 1) + 1 rows
    column = PAIR_ORDER.index((src, tgt))
    for row in move_count_rows(MoveGraph(edges), n):
        if min(row) > cap:
            return None
    return row[column] if row[column] <= cap else None


def _zeta_count(C: int, n: int, src: int, tgt: int, cap: int) -> int | None:
    # b(m) = m for m <= C+1, else 2*b(m-C-1) + C+1
    k = C + 1
    steps = max(0, -(-(n - k) // k))
    length = n - steps * k
    for _ in range(steps):
        length = 2 * length + k
        if length > cap:
            return None
    return length if length <= cap else None


def _symmetric_count(C: int, n: int, src: int, tgt: int, cap: int) -> int | None:
    if n == 0:
        return 0
    half = _zeta_count(C, n - 1, src, tgt, cap)
    if half is None or 2 * half + 1 > cap:
        return None
    return 2 * half + 1


def _q_count(C: int, n: int, src: int, tgt: int, cap: int) -> int | None:
    # x(m) = x(m-k) + 2*b(m-k) + 2k above the symmetric base m <= k, with
    # b (the zeta length) climbed alongside
    k = C + 1
    steps = max(0, -(-(n - k) // k))
    base = n - steps * k
    length, b = _symmetric_count(C, base, src, tgt, cap), base
    for _ in range(steps):
        if length is None:
            return None
        length, b = length + 2 * b + 2 * k, 2 * b + k
        if length > cap:
            return None
    return length


_COUNTS = {
    _directed: _directed_count,
    _zeta: _zeta_count,
    _symmetric: _symmetric_count,
    _q: _q_count,
}


@functools.lru_cache(maxsize=None)  # keys: at most 64 edge sets
def _connected_edges(graph: MoveGraph) -> frozenset:
    """The edges of a strongly connected graph, checked once per graph."""
    if not graph.is_strongly_connected():
        raise ValueError("move graph must be strongly connected")
    return graph.edges


def _root(rule, parameter, n: int, src: int, tgt: int) -> tuple:
    """The checked key of a whole transfer."""
    _check_transfer(src, tgt, n)
    if rule is _directed:
        parameter = _connected_edges(parameter)
    elif parameter < 1:
        raise ValueError("distance must be >= 1")
    return (rule, parameter, n, src, tgt)


# ---------------------------------------------------------------------------
# Public solvers.


def classical_solve(n: int, src: int, tgt: int) -> list[Move]:
    """The classical recursion: park n-1 discs on the spare peg, move the
    largest, bring the n-1 back on top.  Length is 2^n - 1."""
    return list(chain.from_iterable(move_blocks(classical_solve, n, src, tgt)))


def directed_move(graph: MoveGraph, src: int, tgt: int, n: int) -> list[Move]:
    """Transfer under a restricted move digraph (classical placement rule).

    When the edge src>tgt exists the classical recursion applies; when it
    does not, the largest disc detours over the auxiliary peg while the
    smaller discs shuttle around it.  Strong connectivity guarantees the
    detour edges exist.
    """
    return list(chain.from_iterable(move_blocks(directed_move, graph, src, tgt, n)))


def zeta(n: int, C: int, src: int, tgt: int) -> list[Move]:
    """Gather-anywhere transfer for the distance-C model (complete graph).

    Up to C+1 discs move one by one (they land inverted, which distance C
    exactly allows).  Otherwise: park the n-C-1 smallest discs on the
    auxiliary peg, carry the C+1 largest straight across, then stack the
    small discs back on top.  Ends with all discs on `tgt` in a legal, not
    necessarily standard, order; length b(n) with b(m) = m for m <= C+1
    and b(n) = 2*b(n-C-1) + C + 1.
    """
    return list(chain.from_iterable(move_blocks(zeta, n, C, src, tgt)))


def a_symmetric(n: int, C: int, src: int, tgt: int) -> list[Move]:
    """Standard-to-standard transfer built as a symmetric sequence.

    First half gathers the n-1 smaller discs on the auxiliary peg, the
    middle move carries the largest disc across, and the second half is
    the mirrored reverse of the first.  Length 2*b(n-1) + 1, odd.
    """
    return list(chain.from_iterable(move_blocks(a_symmetric, n, C, src, tgt)))


def q_sequence(n: int, C: int, src: int, tgt: int) -> list[Move]:
    """Five-step standard-to-standard transfer for the distance-C model.

    With k = C+1: gather the n-k small discs on the target, carry the k
    largest to the auxiliary peg one by one, shuttle the small discs back
    to the source, carry the k largest onto the (now empty) target - they
    arrive in standard order - and recurse on the n-k small discs.

    The recursion bottoms out in a symmetric transfer (2m-1 moves for
    1 <= m <= k discs): m bare direct moves would leave the pile inverted
    rather than standard.  Whenever the recursion bottoms out at a single
    disc (n = 1 mod k) the length is exactly the idealized
    x(n) = 2*b(n-k) + x(n-k) + 2k with base x(m) = m; otherwise it
    exceeds it by the bottom's extra m-1 moves (`q_lengths` keeps the
    idealized system).
    """
    return list(chain.from_iterable(move_blocks(q_sequence, n, C, src, tgt)))


#: Public solver -> the key of the transfer its arguments ask for.
_ROOTS: dict[Callable, Callable[..., tuple]] = {
    classical_solve: lambda n, src, tgt: _root(_directed, _COMPLETE, n, src, tgt),
    directed_move: lambda graph, src, tgt, n: _root(_directed, graph, n, src, tgt),
    zeta: lambda n, C, src, tgt: _root(_zeta, C, n, src, tgt),
    a_symmetric: lambda n, C, src, tgt: _root(_symmetric, C, n, src, tgt),
    q_sequence: lambda n, C, src, tgt: _root(_q, C, n, src, tgt),
}


def _unwrap(fn: Callable) -> Callable:
    """`fn` with its `functools.wraps` wrappers peeled off."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def move_blocks(solver: Callable[..., list[Move]], *args) -> Iterator[tuple[Move, ...]]:
    """The moves of ``solver(*args)`` as non-empty blocks of at most
    BLOCK_MOVES moves, without building the list.

    `solver` is one of this module's public solvers, or a wrapper of one
    (`functools.wraps`), whose rule is walked block by block; any other
    callable returning moves (a stand-in for a solver, say) is called and
    its sequence forms a single block.  Arguments are checked at once,
    before the first block is asked for.
    """
    return next(move_block_streams(solver, (args,)))


def move_block_streams(
    solver: Callable[..., list[Move]], calls: Iterable[tuple]
) -> Iterator[Iterator[tuple[Move, ...]]]:
    """``move_blocks(solver, *args)`` for each `args` of `calls` in turn,
    all walked with one set of memos: a subproblem of at most BLOCK_MOVES
    moves that several of the transfers share is built once.  The
    arguments of each call are checked when its stream is asked for."""
    root = _ROOTS.get(_unwrap(solver))
    walk = _Walk()
    for args in calls:
        if root is None:
            moves = tuple(solver(*args))
            yield iter((moves,) if moves else ())
        else:
            yield walk.blocks(root(*args))


def move_count(solver: Callable[..., list[Move]], *args, cap: int) -> int | None:
    """The exact length of ``solver(*args)``, or None if it exceeds `cap`.

    For this module's solvers (and wrappers of them) the length comes from
    the solver's own recurrence, without making a move; the loop stops as
    soon as a partial length passes `cap`.  Any other callable is called
    and its result measured.
    """
    root = _ROOTS.get(_unwrap(solver))
    if root is None:
        length = len(solver(*args))
        return length if length <= cap else None
    rule, *key = root(*args)
    return _COUNTS[rule](*key, cap)
