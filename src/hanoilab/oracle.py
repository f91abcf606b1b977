"""Exhaustive breadth-first search over the legal-state graph.

Ground truth for optimality at desk scale: exact minimal move counts,
deterministic witness paths (lexicographically smallest optimal move at
every step), shortest *symmetric* transfers, and the conjecture probe
table.

Two BFS cores share the public API, each a lazy module of its own, so a
command loads only the core its searches use: `dense` for distance 0
(states packed as base-3 codes) and `sparse` for distance >= 1 (one
integer per stack, searched from both ends).  Each states its rules in
its docstring.  No search keeps its levels: `witness` rebuilds every
witness from the depths a core stored.

A standard transfer src -> tgt (src != tgt, n >= 1) on a graph closed
under mirrored moves is searched from the start alone, in either core.
Let M swap the src and tgt stacks.  A legal move s -> t maps to the legal
move M(t) -> M(s): every move can be undone and the graph holds the
mirrored edge.  So d(s, goal) = d(start, M(s)).  Once level L is complete,
a state W on it with M(W) stored gives D <= L + depth(M(W)) <= 2L, and the
state ceil(D/2) moves along a shortest path is such a W with equality, so
the first level with one is ceil(D/2) and D is L plus the least such
depth.  `witness` keeps the witness's moves.  `explored` then counts the
states within ceil(D/2) of the start (3**(n-1) + 2 for the classical
witness, not 3**n), none backward.  `bfs_distance` relabels the pegs src,
aux, tgt -> 1, 2, 3 for either core and maps the witness back, so M swaps
the first and the last stack.

`optimality_reports` certifies a graph at every n up to n_max from one
distance-0 search per source peg at n_max discs to the embedded goals, on
the class graph (the argument is in its docstring): one cached search per
class graph and source image serves all 18 labeled graphs and 3 sources
with 10 searches.

Searches never truncate silently: the state budget is checked as each
state is stored, and exceeding it raises.
"""

from __future__ import annotations

import functools
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, TypeVar

from . import dense, solvers, sparse  # lazy: bind them, not their names
from .model import (
    DEFAULT_STATE_BUDGET,
    GRAPH_CLASSES,
    GoalPredicate,
    MOVES,
    PEGS,
    Model,
    Move,
    MoveGraph,
    SearchCapExceeded,  # re-exported
    Stack,
    State,
    apply_all,
    class_relabelings,
    is_legal_state,
    mirror_sequence,
    standard_state,
    third_peg,
)


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


def witness(
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
    order of `successors`, to a state one move nearer the goal.  The one
    witness rebuild, for both cores and `shortest_symmetric`.

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


def pack_state(state: State) -> int:
    """Disc-to-peg assignment as a base-3 code; valid when order is forced."""
    code = 0
    for peg in (1, 2, 3):
        for disc in state.stacks[peg - 1]:
            code += (peg - 1) * 3 ** (disc - 1)
    return code


def _goal_states(goal: GoalPredicate, n: int, distance: int) -> Iterator[sparse.Stacks]:
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
        found, path, explored, peak = dense.search(
            n, edges, pack_state(start), {code}, max_states, want_path, mirror
        )
        d = found.get(code)
    else:
        goals = _goal_states(goal, n, model.distance)
        d, path, explored, peak = sparse.search(
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
    found = dense.search(n_max, edges, start, set(goals), max_states)[0]
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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_budget(max_states)
    table = solvers.eval_move_counts(graph, n_max)  # refuses a graph not strongly connected
    name, sigmas = class_relabelings(graph)  # type: ignore[misc]
    edges = GRAPH_CLASSES[name][0].sorted_edges()
    shared = {}
    for src in (1, 2, 3):
        sigma = min(sigmas, key=lambda s: s[src])
        shared[src] = sigma, _embedded_distances(edges, sigma[src], n_max, max_states)

    def bfs(pair: tuple[int, int], n: int) -> int:
        sigma, distances = shared[pair[0]]
        return distances[sigma[pair[1]], n]

    calls = [(pair, n) for n in range(1, n_max + 1) for pair in solvers.PAIR_ORDER]
    streams = solvers.move_block_streams(
        solvers.directed_move, ((graph, *pair, n) for pair, n in calls)
    )
    built = {call: sum(map(len, blocks)) for call, blocks in zip(calls, streams)}
    return tuple(
        OptimalityReport(
            graph,
            n,
            tuple(
                OptimalityCheck(pair, n, bfs(pair, n), built[pair, n], table.value(pair, n))
                for pair in solvers.PAIR_ORDER
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
    minimal.  Levels grow through `sparse.expand` with no other side, one
    state of each pair under `sparse.peg_swap` of the start (on the
    complete graph, the swap of the two pegs other than src), and each
    level is tested as its expanded states, then their images.  A middle
    move a>b lands on the mirror iff W's code on a pops to its code on b,
    and is then legal: the disc goes back onto the stack it sat on in W.
    The first half is the smallest shortest path to W (`witness`, the
    rule of every `bfs_distance` witness), and the second half is its
    mirrored reverse.
    """
    if not model.graph.is_swap_invariant(src, tgt):
        raise ValueError("move graph is not invariant under the src/tgt swap")
    if not model.graph.is_mirror_closed(src, tgt):
        raise ValueError("move graph is not closed under mirrored moves")
    _check_budget(max_states)
    start = standard_state(n, src)
    moves, reverse = sparse.index_moves(model.graph.sorted_edges())
    i, j = src - 1, tgt - 1  # a state's mirror swaps these two codes
    # only a self-mirrored move the graph has can be an odd solution's middle
    middle_moves = [(a, b) for a, b in moves if {a, b} == {i, j}]
    C, base = model.distance, n + 1
    square = base * base
    steps = sparse.witness_steps(moves, reverse, base, C)
    origin = sparse.encode(start.stacks, base)
    image = sparse.peg_swap([origin], model.graph)
    seen = {origin: 0}
    frontier = [origin]
    peak = 1

    def finish(w: sparse.Codes, middle: list[Move]) -> SearchResult:
        half = witness(origin, seen[w], {w: 0}, [w], seen.get, *steps)
        path = half + middle + mirror_sequence(half, src, tgt)
        if apply_all(model, start, path) != standard_state(n, tgt):  # pragma: no cover - engine bug
            raise RuntimeError("symmetric witness must end standard")
        return SearchResult(len(path), tuple(path), len(seen), peak)

    while frontier:
        level = sparse.with_images(frontier, image)
        for codes in level:  # even candidates: length 2*level
            if codes[i] == codes[j]:  # its own mirror
                return finish(codes, [])
        for codes in level:  # odd candidates: length 2*level + 1
            for a, b in middle_moves:  # a>b lands on the mirror iff it pops onto b
                if codes[a] and codes[a] // square == codes[b]:
                    return finish(codes, [MOVES[a + 1, b + 1]])
        stored = len(seen)
        frontier = sparse.expand(frontier, moves, base, C, (seen, {}), 0, max_states, image)
        peak = max(peak, len(seen) - stored)
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
    a_conj, b_conj = solvers.conjecture_values(n_max, C)  # refuses C < 1 before Model does
    model = Model.relaxed(C)
    rows = []
    for n in range(1, n_max + 1):
        start = standard_state(n, src)
        goal_std = standard_state(n, tgt)
        a_seq = solvers.a_symmetric(n, C, src, tgt)
        q_seq = solvers.q_sequence(n, C, src, tgt)
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
