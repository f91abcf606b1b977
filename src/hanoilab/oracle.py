"""Exhaustive breadth-first search over the legal-state graph.

Ground truth for optimality at desk scale: exact minimal move counts,
deterministic witness paths (lexicographically smallest optimal move at
every step), shortest *symmetric* transfers, and the conjecture probe
table.

Two BFS cores share the public API.  For distance 0 the stack order is
forced, so a state packs into a base-3 integer keyed by disc, and moves
come from a table cached per graph: the legal (move, code delta) pairs
for each placement of the six smallest discs.  An entry depends only on
the placement's three peg tops, decoded once per process for all 729
placements (93 distinct triples), so each table computes one entry per
triple and shares it.  The visited map is indexed
by code, 1 B a state, when its 3**n items take no more bytes than a dict
of the whole state budget would (about 85 B a state), and is such a dict
otherwise; at the default budget that is to n = 19 (1.16 GB).  The map is
allocated whole, so a search that ends near its start pays for it all.
For distance >= 1 a state is one integer per stack, coding each disc with
the smallest disc from it down (`_encode`), and is searched from both
ends: forward from the start and backward from every goal state over the
reversed edges, one level of the smaller frontier at a time, each side a
dict from state to depth (176-179 B a state).  There `explored` counts
both sides' stored states, goal states included, and `peak_frontier` is
the largest level of either side.  Only the level expander `_expand`
writes the placement rule on codes: `shortest_symmetric` grows its levels
with it, a witness step is its level of one state, and the symmetric
midpoint test compares codes.  No search keeps its levels: `_witness`
rebuilds every witness from the depths, which the distance-0 witness
search stores as depth + 1 in the narrowest unsigned items that hold
3**n (2 B a state to n = 10, 4 B to n = 20), indexed by code at the
default budget to n = 18 (1.55 GB).

A standard transfer src -> tgt (src != tgt, n >= 1) on a graph closed
under mirrored moves is searched from the start alone, in either core.
Let M swap the src and tgt stacks.  A legal move s -> t maps to the legal
move M(t) -> M(s): every move can be undone and the graph holds the
mirrored edge.  So d(s, goal) = d(start, M(s)).  Once level L is complete,
a state W on it with M(W) stored gives D <= L + depth(M(W)) <= 2L, and the
state ceil(D/2) moves along a shortest path is such a W with equality, so
the first level with one is ceil(D/2) and D is L plus the least such
depth.  `_witness` keeps the witness's moves.  `explored` then counts the
states within ceil(D/2) of the start (3**(n-1) + 2 for the classical
witness, not 3**n), none backward.  `bfs_distance` relabels the pegs src,
aux, tgt -> 1, 2, 3 for either core and maps the witness back: M swaps
the first and the last stack, and at distance 0 the start is code 0, the
goal 3**n - 1 and M(c) the goal minus c.

`optimality_reports` certifies a graph at every n up to n_max from one
distance-0 search per source peg at n_max discs.  Its goals are the
embedded states: discs 1..k standard on a target, the larger discs still
parked on the source.  Whether a disc may move depends only on the
smaller discs, so deleting the moves of every disc above k keeps a
sequence legal and makes it no longer, and a k-disc sequence stays legal
over the parked discs: the distance to the embedded state is the k-disc
optimum.  A peg relabeling sigma maps each legal move i>j on G to the
legal move sigma(i)>sigma(j) on sigma(G) from the relabeled state, so the
distance from src to tgt on G is that from sigma(src) to sigma(tgt) on
sigma(G): one cached search per class graph and source image serves all
18 labeled graphs and 3 sources with 10 searches.

Searches never truncate silently: the state budget is checked as each
state is stored, and exceeding it raises.
"""

from __future__ import annotations

import functools
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, TypeVar

from . import recurrence
from .model import (
    DEFAULT_STATE_BUDGET,
    GRAPH_CLASSES,
    GoalPredicate,
    MOVES,
    PEGS,
    Model,
    Move,
    MoveGraph,
    SearchCapExceeded,
    Stack,
    State,
    apply_all,
    class_relabelings,
    is_legal_state,
    mirror_sequence,
    standard_state,
    third_peg,
)
from .solvers import a_symmetric, directed_move, move_block_streams, q_sequence


class SearchResult(NamedTuple):
    """Outcome of one search.  `distance` is None when no goal state is
    reachable; a witness path, when present, has length == distance and
    replays cleanly."""

    distance: int | None
    path: tuple[Move, ...] | None
    explored: int
    peak_frontier: int

    @property
    def reachable(self) -> bool:
        return self.distance is not None


S = TypeVar("S", bound=Hashable)


def _witness(
    start: S,
    goal: int,
    rest: dict[S, int],
    seeds: Iterable[S],
    depth: Callable[[S], int | None],
    successors: Callable[[S], Iterable[tuple[Move, S]]],
    predecessors: Callable[[S], Iterable[S]],
    mirror: Callable[[S], S] | None = None,
) -> list[Move]:
    """The witness from `start`: at every step the smallest move, in the
    order of `successors`, to a state one move nearer the goal.

    `depth` puts the goal at `goal`, no unstored state at or above the
    start; `rest` has the seeds' exact distances to the goal.  The sweep
    adds each predecessor one depth nearer: every state on a shortest path
    to a seed.  A `mirror` search passes its last level L, seeds its w with
    d(start, M(w)) = D - L, and adds d(M(q), goal) = d(start, q) to `rest`.
    """
    origin = depth(start)
    if mirror:
        seeds = [w for w in seeds if depth(mirror(w)) == goal + origin - depth(w)]
        rest.update((w, goal - depth(w)) for w in seeds)
    todo = list(seeds)
    while todo:
        state = todo.pop()
        left = rest[state] + 1
        nearer = goal - left
        for prev in predecessors(state):
            if depth(prev) == nearer and prev not in rest:
                rest[prev] = left
                todo.append(prev)
    if mirror:
        rest.update({mirror(state): goal - origin - togo for state, togo in rest.items()})
    path: list[Move] = []
    for left in range(goal - origin - 1, -1, -1):
        for mv, new in successors(start):
            if rest.get(new) == left:
                path.append(mv)
                start = new
                break
    return path


# ---------------------------------------------------------------------------
# Dense core: distance 0, states packed as base-3 integers (digit per disc).


def pack_state(state: State) -> int:
    """Disc-to-peg assignment as a base-3 code; valid when order is forced."""
    code = 0
    for peg in (1, 2, 3):
        for disc in state.stacks[peg - 1]:
            code += (peg - 1) * 3 ** (disc - 1)
    return code


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
#: `tracemalloc`, classical n=12): a map indexed by code is chosen while it
#: is no larger than a dict holding the whole state budget.
_DICT_STATE_BYTES = 85


class _Visited(dict):
    """A visited map keyed by code where an unstored code reads 0, as it
    does in a map indexed by code."""

    def __missing__(self, code: int) -> int:
        return 0


def _dense_search(
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
    peak).  With `want_path` (one goal) the visited map holds each state's
    depth + 1, which `_witness` reads, else 1 or 2 by the parity of the
    depth, and 0 for a code not stored.

    The visited map is indexed by code when its 3**n items take no more
    bytes than a dict holding `max_states` states: a bytearray, or with
    `want_path` a view of one as the narrowest unsigned items that hold
    3**n.  Otherwise it is a dict.  Either way the cap is checked as each
    state is stored.

    With `mirror` (start 0, goal 3**n - 1, M(c) = goal - c) it stops after
    the first level L with a stored mirror: D = 2L - 1 if one is on L - 1.
    """
    table = _move_table(edges, min(n, _TABLE_DISCS))
    low = len(table)
    top = 3**n - 1
    typecode, width = "B", 1
    if want_path:
        typecode, width = next(tw for tw in zip("BHIQ", (1, 2, 4, 8)) if 3**n < 1 << 8 * tw[1])
    visited: bytearray | memoryview | _Visited
    if width * 3**n > _DICT_STATE_BYTES * max_states:
        visited = _Visited()
    elif want_path:  # a view, not an `array`: no extension module to load
        visited = memoryview(bytearray(width * 3**n)).cast(typecode)
    else:
        visited = bytearray(3**n)
    visited[start] = 1
    get = visited.__getitem__
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
    path = _witness(start, distance + 1, rest, seeds, get, successors, predecessors, mirrored)
    return found, path, explored, peak


# ---------------------------------------------------------------------------
# Sparse core: distance >= 1, each stack is one integer code.

Stacks = tuple[Stack, Stack, Stack]
#: one integer code per stack; see `_encode`
Codes = tuple[int, int, int]
#: (source index, target index) for each edge, in the given order
SparseMoves = tuple[tuple[int, int], ...]


def _sparse_moves(edges: tuple[tuple[int, int], ...]) -> tuple[SparseMoves, SparseMoves]:
    """The edges in their order, and the reversed edges sorted, as index pairs."""
    return tuple((i - 1, j - 1) for i, j in edges), tuple(sorted((j - 1, i - 1) for i, j in edges))


def _encode(stacks: Stacks, base: int) -> Codes:
    """Each stack as one integer, its entries the digits in base ``base**2``
    with the top entry lowest; a disc's entry is ``disc + base * low``, `low`
    the smallest disc from it down.  So the top disc is ``code % base``, the
    stack minimum ``code % base**2 // base``, a pop ``code // base**2`` and a
    push ``code * base**2 + entry``.  `base` exceeds every disc; an empty
    stack is 0."""
    square, codes = base * base, []
    for stack in stacks:
        code, low = 0, base
        for disc in stack:
            low = min(low, disc)
            code = code * square + disc + base * low
        codes.append(code)
    return codes[0], codes[1], codes[2]


def _goal_states(goal: GoalPredicate, n: int, distance: int) -> Iterator[Stacks]:
    """Every state the goal accepts: one for standard and exact goals, and
    each legal one-peg stack on the goal peg for all-on goals.  Lazy, so
    that a goal set larger than the state budget hits the cap as it is
    stored instead of exhausting memory first."""
    if goal.kind == "exact":
        yield goal.state.stacks
    elif goal.kind == "standard" or distance == 0:  # order is forced at 0
        yield standard_state(n, goal.peg).stacks
    else:  # all-on
        peg = goal.peg - 1
        # each entry: a stack, the discs left in descending order, the stack's minimum
        todo: list[tuple[Stack, Stack, int]] = [((), tuple(range(n, 0, -1)), n)]
        while todo:  # depth first, bottom up, smallest disc first
            stack, left, low = todo.pop()
            if not left:
                yield tuple(stack if p == peg else () for p in range(3))  # type: ignore[misc]
            # d goes on only if the largest disc left still fits above it:
            # then the rest fit in decreasing order, so no branch dead-ends
            for i, d in enumerate(left):
                if left[0] <= min(low, d) + distance:
                    todo.append((stack + (d,), left[:i] + left[i + 1 :], min(low, d)))


def _expand(
    frontier: list[Codes],
    moves: SparseMoves,
    base: int,
    C: int,
    seen: dict[Codes, int],
    other: dict[Codes, int],
    max_states: int,
    backward: bool = False,
) -> list[Codes] | None:
    """The next level of one search side, or None as soon as a state of
    the other side is reached.  The cap counts both sides' stored states,
    checked as each is inserted; `backward` marks the backward side."""
    depth = seen[frontier[0]] + 1
    limit = max_states - len(other)
    nxt = []
    square = base * base
    # this loop runs once per candidate move of every searched state
    for codes in frontier:
        a, b, c = codes
        for i, j in moves:
            src = codes[i]
            if not src:
                continue
            disc = src % base
            dst = codes[j]
            if dst:
                low = dst % square // base
                if disc > low + C:
                    continue
                dst = dst * square + disc + base * (low if low < disc else disc)
            else:
                dst = disc * (base + 1)
            src //= square
            if i == 0:  # a branch per move builds the tuple fastest
                new = (src, dst, c) if j == 1 else (src, b, dst)
            elif i == 1:
                new = (dst, src, c) if j == 0 else (a, src, dst)
            else:
                new = (dst, b, src) if j == 0 else (a, dst, src)
            if new not in seen:
                if new in other:
                    return None
                seen[new] = depth
                if len(seen) > limit:
                    sides = (len(other), len(seen)) if backward else (len(seen), len(other))
                    raise SearchCapExceeded(max_states, depth, *sides)
                nxt.append(new)
    return nxt


def _sparse_steps(moves: SparseMoves, reverse: SparseMoves, base: int, C: int) -> tuple:
    """`_witness`'s successors and predecessors of a coded state: one
    `_expand` level of that state alone over `moves` or `reverse` (no other
    side: never None; the cap holds the state and one new state a move).
    Each successor's move is read off the codes: the pop shrank the
    source's code and the push grew the target's."""
    level = lambda codes, steps: _expand([codes], steps, base, C, {codes: 0}, {}, len(steps) + 1)

    def successors(codes: Codes) -> Iterator[tuple[Move, Codes]]:
        for new in level(codes, moves):
            grew = [y - x for x, y in zip(codes, new)]
            yield MOVES[grew.index(min(grew)) + 1, grew.index(max(grew)) + 1], new

    return successors, lambda codes: level(codes, reverse)


def _sparse_search(
    edges: tuple[tuple[int, int], ...],
    C: int,
    start: Stacks,
    goals: Iterable[Stacks],
    max_states: int,
    want_path: bool,
    mirror: bool = False,
) -> tuple[int | None, list[Move] | None, int, int]:
    """Bidirectional level BFS: forward from `start`, backward from `goals`
    over the reversed edges (the pairwise rule lets every legal move be
    undone).  Returns (distance, witness, explored, peak frontier).

    The sides stay disjoint until one reaches the other, so the distance is
    then the two completed depths plus one.

    With `mirror` (M swaps the first and the last stack) only the forward
    side grows, to the first level holding a state whose mirror is stored.
    """
    moves, reverse = _sparse_moves(edges)
    swap = (lambda codes: codes[::-1]) if mirror else None
    base = sum(map(len, start)) + 1
    origin = _encode(start, base)
    fwd = {origin: 0}
    bwd: dict[Codes, int] = {}
    for goal in () if mirror else goals:
        code = _encode(goal, base)
        if code == origin:  # stored once, as the start
            return 0, [] if want_path else None, 1, 1
        bwd[code] = 0
        if len(fwd) + len(bwd) > max_states:
            raise SearchCapExceeded(max_states, 0, len(fwd), len(bwd))
    front = [origin]
    back = list(bwd)
    peak = max(1, len(back))
    while True:
        forward = mirror or len(front) <= len(back)
        if forward:
            nxt = _expand(front, moves, base, C, fwd, bwd, max_states)
        else:
            nxt = _expand(back, reverse, base, C, bwd, fwd, max_states, True)
        if nxt is None:
            distance = fwd[front[0]] + bwd[back[0]] + 1
            break
        if not nxt:
            return None, None, len(fwd) + len(bwd), peak
        peak = max(peak, len(nxt))
        front, back = (nxt, back) if forward else (front, nxt)
        if mirror:  # only levels L - 1 and L can hold the first mirrors found
            hits = set(map(fwd.get, map(swap, nxt))) - {None}
            if hits:  # `_witness` finds the midpoints on this level
                distance, back = fwd[nxt[0]] + min(hits), nxt
                break
    explored = len(fwd) + len(bwd)
    if not want_path:
        return distance, None, explored, peak
    # seeds: the last complete backward level; a partial next one is off every shortest path
    steps = _sparse_steps(moves, reverse, base, C)
    path = _witness(origin, distance, bwd, back, fwd.get, *steps, swap)
    return distance, path, explored, peak


# ---------------------------------------------------------------------------
# Public operations.


def _check_budget(max_states: int) -> None:
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, not {max_states!r}")


def bfs_distance(
    model: Model,
    start: State,
    goal: GoalPredicate,
    *,
    max_states: int = DEFAULT_STATE_BUDGET,
    want_path: bool = True,
) -> SearchResult:
    """Exact minimal number of legal moves from `start` to the goal.

    The witness (when requested) takes the lexicographically smallest
    optimal move at every step, so runs are reproducible byte for byte.
    A start that is a goal is distance 0 with one state explored, in
    either core and at any budget.
    """
    _check_budget(max_states)
    if not is_legal_state(model, start):
        raise ValueError("start state is not legal under the model")
    if goal.kind not in ("standard", "all-on", "exact"):
        raise ValueError(f"unknown goal kind {goal.kind!r}")
    if goal.kind != "exact" and goal.peg not in PEGS:
        raise ValueError(f"goal peg must be 1, 2 or 3, not {goal.peg!r}")
    n = start.n
    if goal.kind == "exact":
        if goal.state is None or goal.state.n != n:
            raise ValueError("exact goal must have the same disc count as start")
        goal.state.validate()
        if not is_legal_state(model, goal.state):
            # an illegal state is never reached; don't let the packed
            # encoding collapse it onto a legal one
            return SearchResult(None, None, 0, 0)
    if goal.matches(start):
        return SearchResult(0, () if want_path else None, 1, 1)
    tgt, src = goal.peg, next((p for p in PEGS if start == standard_state(n, p)), None)
    mirror = goal.kind == "standard" and n >= 1 and src not in (None, tgt)
    mirror = mirror and model.graph.is_mirror_closed(src, tgt)
    edges = model.graph.sorted_edges()
    if mirror:  # src, aux, tgt -> 1, 2, 3, in sorted-edge order so that ties break as before
        pegs = (src, third_peg(src, tgt), tgt)
        edges = tuple((pegs.index(i) + 1, pegs.index(j) + 1) for i, j in edges)
        start, goal = standard_state(n, 1), GoalPredicate.standard_on(3)
    if model.distance == 0:
        code = pack_state(State(next(_goal_states(goal, n, 0))))
        found, path, explored, peak = _dense_search(
            n, edges, pack_state(start), {code}, max_states, want_path, mirror
        )
        d = found.get(code)
    else:
        goals = _goal_states(goal, n, model.distance)
        d, path, explored, peak = _sparse_search(
            edges, model.distance, start.stacks, goals, max_states, want_path, mirror
        )
    if mirror and path:  # back from 1, 2, 3 to src, aux, tgt
        back = {MOVES[i, j]: MOVES[pegs[i - 1], pegs[j - 1]] for i, j in MOVES}
        path = list(map(back.__getitem__, path))
    if d is None and goal.kind != "exact" and model.graph.is_strongly_connected():
        raise RuntimeError(
            "standard and all-on-peg goals must be reachable on a strongly "
            "connected graph; unreachable result indicates an engine bug"
        )
    return SearchResult(d, tuple(path) if path is not None else None, explored, peak)


class OptimalityCheck(NamedTuple):
    pair: tuple[int, int]
    n: int
    bfs: int
    algorithm: int
    recurrence: int

    @property
    def ok(self) -> bool:
        return self.bfs == self.algorithm == self.recurrence


class OptimalityReport(NamedTuple):
    """Three-way comparison (search / construction / recurrence) for every
    ordered peg pair of one graph at one disc count."""

    graph: MoveGraph
    n: int
    checks: tuple[OptimalityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> tuple[OptimalityCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)


@functools.lru_cache(maxsize=None)  # keys: at most 10 orbits per (n_max, max_states)
def _embedded_distances(
    edges: tuple[tuple[int, int], ...], src: int, n_max: int, max_states: int
) -> dict[tuple[int, int], int]:
    """``{(tgt, k): distance}`` from `n_max` discs standard on `src` to
    each embedded goal: discs 1..k standard on tgt, the rest on `src`."""
    start = pack_state(standard_state(n_max, src))
    # discs 1..k move from src to tgt: (tgt - src) * 3**(d-1) each
    goals = {
        start + (tgt - src) * (3**k - 1) // 2: (tgt, k)
        for tgt in (1, 2, 3)
        if tgt != src
        for k in range(1, n_max + 1)
    }
    found = _dense_search(n_max, edges, start, set(goals), max_states)[0]
    return {key: found[code] for code, key in goals.items()}


def optimality_reports(
    graph: MoveGraph, n_max: int, *, max_states: int = DEFAULT_STATE_BUDGET
) -> tuple[OptimalityReport, ...]:
    """`verify_optimality` for every n in 1..n_max, from one search per
    source peg at `n_max` discs, one count table and one construction walk.

    A search's goals are the embedded states, discs 1..k standard on a
    target and discs k+1..n_max parked on the source.  Deleting every move
    of a disc above k from a legal sequence leaves a legal k-disc sequence
    (at distance 0 a disc's moves depend only on smaller discs), and a
    k-disc sequence stays legal over the parked discs, so the distance to
    the embedded state is the k-disc optimum.  That never exceeds the
    n_max-disc optimum: the search ends at the level where a search for
    the standard goals alone ends.

    A relabeling sigma onto the class graph is an isomorphism of the state
    graphs, so the distances from src are read at sigma(tgt) from the
    cached search on the class graph from sigma(src), with sigma(src) the
    smallest so that automorphisms merge sources too.
    """
    if not graph.is_strongly_connected():
        raise ValueError("move graph must be strongly connected")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_budget(max_states)
    table = recurrence.eval_move_counts(graph, n_max)
    name, sigmas = class_relabelings(graph)  # type: ignore[misc]
    edges = GRAPH_CLASSES[name][0].sorted_edges()
    shared = {}
    for src in (1, 2, 3):
        sigma = min(sigmas, key=lambda s: s[src])
        shared[src] = sigma, _embedded_distances(edges, sigma[src], n_max, max_states)

    def bfs(pair: tuple[int, int], n: int) -> int:
        sigma, distances = shared[pair[0]]
        return distances[sigma[pair[1]], n]

    calls = [(pair, n) for n in range(1, n_max + 1) for pair in recurrence.PAIR_ORDER]
    streams = move_block_streams(directed_move, ((graph, *pair, n) for pair, n in calls))
    built = {call: sum(map(len, blocks)) for call, blocks in zip(calls, streams)}
    return tuple(
        OptimalityReport(
            graph,
            n,
            tuple(
                OptimalityCheck(pair, n, bfs(pair, n), built[pair, n], table.value(pair, n))
                for pair in recurrence.PAIR_ORDER
            ),
        )
        for n in range(1, n_max + 1)
    )


def verify_optimality(
    graph: MoveGraph, n: int, *, max_states: int = DEFAULT_STATE_BUDGET
) -> OptimalityReport:
    """Compare BFS distance, constructed length and recurrence value for
    all six ordered peg pairs at `n` discs (distance-0 model): the last
    report of `optimality_reports`."""
    return optimality_reports(graph, n, max_states=max_states)[-1]


def shortest_symmetric(
    model: Model,
    n: int,
    src: int,
    tgt: int,
    *,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> SearchResult:
    """Minimal length of a symmetric legal transfer standard(src) ->
    standard(tgt).

    A symmetric sequence is its own mirrored reverse, so it is determined
    by its first half: an odd solution of length 2m+1 exists iff some
    state W at distance m admits a legal middle move (src>tgt or tgt>src)
    landing exactly on W's mirror image; an even solution of length 2m
    needs W equal to its own mirror (both swapped stacks empty).  Levels
    are scanned outward, even candidates before odd, so the first hit is
    minimal.  Levels grow through `_expand` with no other side.  A middle
    move a>b lands on the mirror iff W's code on a pops to its code on b,
    and is then legal: the disc goes back onto the stack it sat on in W.
    The first half is the smallest shortest path to W (`_witness`, the
    rule of every `bfs_distance` witness), and the second half is its
    mirrored reverse.
    """
    if not model.graph.is_swap_invariant(src, tgt):
        raise ValueError("move graph is not invariant under the src/tgt swap")
    if not model.graph.is_mirror_closed(src, tgt):
        raise ValueError("move graph is not closed under mirrored moves")
    _check_budget(max_states)
    start = standard_state(n, src)
    if n == 0:
        return SearchResult(0, (), 1, 1)
    moves, reverse = _sparse_moves(model.graph.sorted_edges())
    i, j = src - 1, tgt - 1  # a state's mirror swaps these two codes
    # only a self-mirrored move the graph has can be an odd solution's middle
    middle_moves = [(a, b) for a, b in moves if {a, b} == {i, j}]
    C, base = model.distance, n + 1
    square = base * base
    steps = _sparse_steps(moves, reverse, base, C)
    origin = _encode(start.stacks, base)
    seen = {origin: 0}
    frontier = [origin]
    peak = 1

    def finish(w: Codes, middle: list[Move]) -> SearchResult:
        half = _witness(origin, seen[w], {w: 0}, [w], seen.get, *steps)
        path = half + middle + mirror_sequence(half, src, tgt)
        if apply_all(model, start, path) != standard_state(n, tgt):  # pragma: no cover - engine bug
            raise RuntimeError("symmetric witness must end standard")
        return SearchResult(len(path), tuple(path), len(seen), peak)

    while frontier:
        for codes in frontier:  # even candidates: length 2*level
            if codes[i] == codes[j]:  # its own mirror
                return finish(codes, [])
        for codes in frontier:  # odd candidates: length 2*level + 1
            for a, b in middle_moves:  # a>b lands on the mirror iff it pops onto b
                if codes[a] and codes[a] // square == codes[b]:
                    return finish(codes, [MOVES[a + 1, b + 1]])
        frontier = _expand(frontier, moves, base, C, seen, {}, max_states)
        peak = max(peak, len(frontier))
    return SearchResult(None, None, len(seen), peak)


class ProbeRow(NamedTuple):
    """One probe row.  Its fields, in order, then `match` are the columns
    of every output format."""

    n: int
    bfs_std: int
    bfs_any: int
    a_conj: int
    b_conj: int
    len_a_sym: int
    len_q: int

    @property
    def match(self) -> bool:
        return self.bfs_std == self.a_conj and self.bfs_any == self.b_conj


class ProbeReport(NamedTuple):
    """Conjecture probe: oracle optima versus conjectured values and the
    two constructive sequence lengths, one row per disc count.  Rows are
    marked MATCH/MISMATCH without failing the run - the recurrences under
    test are conjectural for distance >= 2."""

    distance: int
    rows: tuple[ProbeRow, ...]


def conjecture_probe(
    C: int,
    n_max: int,
    *,
    src: int = 1,
    tgt: int = 2,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> ProbeReport:
    """Probe the conjectured optima for distance C up to `n_max` discs.

    Both constructive sequences are replayed before being measured, and
    the BFS optimum is asserted to be <= each of their lengths (a
    violation would disprove the search or the replay, not the
    conjecture).
    """
    if C < 1:
        raise ValueError("distance must be >= 1")
    _check_budget(max_states)
    model = Model.relaxed(C)
    a_conj, b_conj = recurrence.conjecture_values(n_max, C)
    rows = []
    for n in range(1, n_max + 1):
        start = standard_state(n, src)
        goal_std = standard_state(n, tgt)
        a_seq = a_symmetric(n, C, src, tgt)
        q_seq = q_sequence(n, C, src, tgt)
        if apply_all(model, start, a_seq) != goal_std:
            raise RuntimeError(f"symmetric construction broke at n={n}")
        if apply_all(model, start, q_seq) != goal_std:
            raise RuntimeError(f"five-step construction broke at n={n}")
        bfs_std, bfs_any = (
            bfs_distance(model, start, goal, max_states=max_states, want_path=False).distance
            for goal in (GoalPredicate.standard_on(tgt), GoalPredicate.all_on(tgt))
        )
        if bfs_std > min(len(a_seq), len(q_seq)) or bfs_any > bfs_std:
            raise RuntimeError(
                f"BFS optimum exceeds a replayed construction at n={n}; "
                "the search is broken"
            )
        rows.append(
            ProbeRow(n, bfs_std, bfs_any, a_conj[n], b_conj[n], len(a_seq), len(q_seq))
        )
    return ProbeReport(C, tuple(rows))
