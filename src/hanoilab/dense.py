"""The distance-0 search core: states packed as base-3 integers.

For distance 0 the stack order is forced, so a state packs into a base-3
integer keyed by disc (`oracle.pack_state`), and moves come from a table
cached per graph: the legal (move, code delta) pairs for each placement
of the six smallest discs.  An entry depends only on the placement's
three peg tops, decoded once per process for all 729 placements (93
distinct triples), so each table computes one entry per triple and
shares it.  The visited map is indexed by code, 1 B a state, when its
3**n items take no more bytes than a dict of the whole state budget
would (about 85 B a state), and is such a dict (a `defaultdict(int)`,
whose miss is a C call) otherwise; at the default budget that is to
n = 19 (1.16 GB).  The map is allocated whole, so a search that ends near
its start pays for it all.  A witness search stores depth + 1 in the
narrowest unsigned items that hold 3**n (2 B a state to n = 10, 4 B to
n = 20), indexed by code at the default budget to n = 18 (1.55 GB), and
`oracle.witness` rebuilds the witness from them.

This core has no peg-swap rule (`sparse`): each move-table entry would
need the swapped code delta.  Its mirror search is the one of `oracle`'s
docstring: at distance 0 the start is code 0, the goal 3**n - 1 and M(c)
the goal minus c.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Iterator

from .model import MOVES, Move, SearchCapExceeded
from .oracle import witness

Tops = tuple[int, int, int]


def _tops(code: int, n: int) -> Tops:
    """The top disc of each peg in `code` over `n` discs, 0 for an empty peg."""
    tops = [0, 0, 0]
    remaining = 3
    for disc in range(1, n + 1):
        p = code % 3
        code //= 3
        if tops[p] == 0:
            tops[p] = disc
            remaining -= 1
            if remaining == 0:
                break
    return tops[0], tops[1], tops[2]


def _top_moves(tops: Tops, edges: tuple[tuple[int, int], ...]) -> list[tuple[Move, int]]:
    """Legal `(move, code delta)` pairs from a state with these peg tops,
    in the order of `edges`: the distance-0 placement rule."""
    out = []
    for i, j in edges:
        d = tops[i - 1]
        if d == 0:
            continue
        t = tops[j - 1]
        if t and t < d:
            continue
        out.append((MOVES[i, j], (j - i) * 3 ** (d - 1)))
    return out


def _dense_neighbors(
    code: int, n: int, edges: tuple[tuple[int, int], ...]
) -> list[tuple[Move, int]]:
    """Legal `(move, code delta)` pairs from `code`, in the order of
    `edges`, decoded from the full code."""
    return _top_moves(_tops(code, n), edges)


#: Discs covered by a move-table entry; the table has 3**6 = 729 entries.
_TABLE_DISCS = 6

DenseMoves = tuple[tuple[Move, int], ...]


@functools.lru_cache(maxsize=None)  # keys: the 7 sizes
def _low_tops(k: int) -> tuple[Tops, ...]:
    """The peg tops of every assignment of the k smallest discs, by code,
    one shared tuple per distinct triple (93 for k = 6)."""
    shared: dict[Tops, Tops] = {}
    return tuple(shared.setdefault(tops, tops) for tops in (_tops(low, k) for low in range(3**k)))


# keys: an edge sequence, whose order breaks ties, x 7 sizes; at most 64
# edge sets, each sorted or in one of its 6 relabelings for a mirror search
@functools.lru_cache(maxsize=None)
def _move_table(
    edges: tuple[tuple[int, int], ...], k: int
) -> tuple[DenseMoves | None, ...]:
    """Legal `(move, code delta)` pairs for every assignment L of the k
    smallest discs, in the order of `edges`.

    When those discs sit on at least two pegs, every peg without one has a
    top larger than k, and no such disc may land on a small disc, so the
    entry holds for any code whose low k digits are L.  When all k sit on
    one peg the larger discs decide the other tops: the entry is None and
    the caller decodes the full code with `_dense_neighbors` instead.

    An entry depends only on L's peg tops (`_low_tops`, decoded once per
    k), so it is built once per distinct triple and shared by every L
    with that triple.
    """
    tops = _low_tops(k)
    entries = {t: tuple(_top_moves(t, edges)) for t in set(tops) if t.count(0) < 2}
    return tuple(map(entries.get, tops))


#: Bytes a state costs in a dict keyed by code (85.5 B/state under
#: `tracemalloc`, classical n=12), for the map choice in the module docstring.
_DICT_STATE_BYTES = 85


def search(
    n: int,
    edges: tuple[tuple[int, int], ...],
    start: int,
    goals: set[int],
    max_states: int,
    want_path: bool = False,
    mirror: bool = False,
) -> tuple[dict[int, int], list[Move] | None, int, int]:
    """Level BFS on packed codes until every goal code is found (or the
    component is exhausted).  Returns ({goal: distance}, witness, explored,
    peak).  With `want_path` (one goal) the visited map (chosen as the
    module docstring says) holds each state's depth + 1, which
    `oracle.witness` reads, else 1 or 2 by the parity of the depth, and 0
    for a code not stored (None through the dict's `get`).  With `mirror`
    it runs the mirror search of `oracle`'s docstring.
    """
    table = _move_table(edges, min(n, _TABLE_DISCS))
    low = len(table)
    top = 3**n - 1
    typecode, width = "B", 1
    if want_path:
        typecode, width = next(tw for tw in zip("BHIQ", (1, 2, 4, 8)) if 3**n < 1 << 8 * tw[1])
    visited: bytearray | memoryview | defaultdict[int, int]
    if width * 3**n > _DICT_STATE_BYTES * max_states:
        # an unstored code reads 0 through a C-level default; the loop below
        # marks every code it misses, so only stored codes become keys
        visited = defaultdict(int)
    elif want_path:  # a view, not an `array`: no extension module to load
        visited = memoryview(bytearray(width * 3**n)).cast(typecode)
    else:
        visited = bytearray(3**n)
    visited[start] = 1
    # reads that store nothing, for the mirror test and `oracle.witness`
    get = visited.get if isinstance(visited, dict) else visited.__getitem__
    found: dict[int, int] = {}
    remaining = set(goals)
    if start in remaining:
        found[start] = 0
        remaining.discard(start)
    frontier = [start]
    explored = 1
    level = 0
    peak = 1
    while frontier and remaining:
        level += 1
        mark = level + 1 if want_path else 1 + level % 2
        nxt: list[int] = []
        for code in frontier:
            # a None table entry (small discs all on one peg) decodes the code
            for _, delta in table[code % low] or _dense_neighbors(code, n, edges):
                new = code + delta
                if not visited[new]:
                    visited[new] = mark
                    explored += 1
                    if explored > max_states:
                        raise SearchCapExceeded(max_states, level, explored)
                    nxt.append(new)
                    if new in remaining:
                        found[new] = level
                        remaining.discard(new)
        frontier = nxt
        if len(nxt) > peak:
            peak = len(nxt)
        if mirror and any(map(get, map(top.__sub__, nxt))):
            # the first stored mirrors lie on level L - 1 or L, told apart by their mark
            near = mark - 1 if want_path else 3 - mark
            found[top] = 2 * level - (near in set(map(get, map(top.__sub__, nxt))))
            break
    if not want_path or not found:
        return found, None, explored, peak
    [(goal, distance)] = found.items()
    # predecessors: the mirrors of the successors of M(c) = top - c, or reversed moves
    flip, sign = (top, -1) if mirror else (0, 1)
    steps = edges if mirror else tuple(sorted((j, i) for i, j in edges))
    back = _move_table(steps, min(n, _TABLE_DISCS))

    def successors(code: int) -> list[tuple[Move, int]]:
        out = []  # a loop builds the list faster than a comprehension
        for mv, delta in table[code % low] or _dense_neighbors(code, n, edges):
            out.append((mv, code + delta))
        return out

    def predecessors(code: int) -> Iterator[int]:
        key = flip + sign * code
        for _, delta in back[key % low] or _dense_neighbors(key, n, steps):
            yield code + sign * delta

    rest, seeds, mirrored = ({}, frontier, top.__sub__) if mirror else ({goal: 0}, [goal], None)
    path = witness(start, distance + 1, rest, seeds, get, successors, predecessors, mirrored)
    return found, path, explored, peak
