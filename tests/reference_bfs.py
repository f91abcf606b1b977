"""Reference oracle for distance >= 1: the one-sided level BFS on stack
tuples that `hanoilab.oracle` used before its bidirectional search.

It searches forward from the start until a goal predicate fires and
shares no search code with the engines under test.  Tests compare
distances, witnesses and, at distance 0, the dense core's counters
against it.
"""

from __future__ import annotations

from typing import Callable, Iterator

from hanoilab.model import Model, Move, Stack, State, standard_state
from hanoilab.oracle import GoalPredicate

Stacks = tuple[Stack, Stack, Stack]


def _neighbors(
    stacks: Stacks, edges: tuple[tuple[int, int], ...], distance: int
) -> Iterator[tuple[Move, Stacks]]:
    for i, j in edges:
        src = stacks[i - 1]
        if not src:
            continue
        disc = src[-1]
        dst = stacks[j - 1]
        if dst and disc > min(dst) + distance:
            continue
        new = list(stacks)
        new[i - 1] = src[:-1]
        new[j - 1] = dst + (disc,)
        yield _MOVES[i, j], (new[0], new[1], new[2])


_MOVES = {(i, j): Move(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}


def goal_match_fn(goal: GoalPredicate, n: int) -> Callable[[Stacks], bool]:
    if goal.kind == "standard":
        target = standard_state(n, goal.peg).stacks
        return lambda stacks: stacks == target
    if goal.kind == "all-on":
        others = tuple(p - 1 for p in (1, 2, 3) if p != goal.peg)
        a, b = others
        return lambda stacks: not stacks[a] and not stacks[b]
    if goal.kind == "exact":
        target = goal.state.stacks
        return lambda stacks: stacks == target
    raise ValueError(f"unknown goal kind {goal.kind!r}")


def sparse_distances(
    model: Model,
    start: Stacks,
    match_fns: list[Callable[[Stacks], bool]],
    max_states: int,
) -> tuple[list[int | None], int, int]:
    """Level BFS on stack tuples until every goal predicate has fired.
    Returns ([distance per predicate], explored, peak frontier)."""
    edges = model.graph.sorted_edges()
    C = model.distance
    found: list[int | None] = [None] * len(match_fns)
    remaining = set(range(len(match_fns)))
    for idx, fn in enumerate(match_fns):
        if fn(start):
            found[idx] = 0
            remaining.discard(idx)
    visited = {start}
    frontier = [start]
    level = 0
    peak = 1
    while frontier and remaining:
        level += 1
        nxt = []
        for stacks in frontier:
            for _, new in _neighbors(stacks, edges, C):
                if new not in visited:
                    visited.add(new)
                    nxt.append(new)
                    for idx in list(remaining):
                        if match_fns[idx](new):
                            found[idx] = level
                            remaining.discard(idx)
        if len(visited) > max_states:
            raise RuntimeError(f"reference search exceeded {max_states} states")
        frontier = nxt
        peak = max(peak, len(nxt))
    return found, len(visited), peak


def level_sizes(model: Model, start: Stacks) -> list[int]:
    """The number of states at each distance from `start`, over its whole
    component."""
    edges = model.graph.sorted_edges()
    visited = {start}
    sizes = []
    frontier = [start]
    while frontier:
        sizes.append(len(frontier))
        nxt = []
        for stacks in frontier:
            for _, new in _neighbors(stacks, edges, model.distance):
                if new not in visited:
                    visited.add(new)
                    nxt.append(new)
        frontier = nxt
    return sizes


def sparse_witness(
    model: Model,
    start: Stacks,
    match: Callable[[Stacks], bool],
    max_states: int,
) -> tuple[int | None, list[Move] | None, int, int]:
    """Level BFS with full levels retained, a backward sweep marking states
    on shortest paths, then a greedy walk taking the smallest optimal move
    at each step.  Returns (distance, path, explored, peak frontier)."""
    edges = model.graph.sorted_edges()
    C = model.distance
    if match(start):
        return 0, [], 1, 1
    levels: list[list[Stacks]] = [[start]]
    dist: dict[Stacks, int] = {start: 0}
    peak = 1
    goal_level: int | None = None
    goals: set[Stacks] = set()
    while levels[-1] and goal_level is None:
        nxt = []
        d = len(levels)
        for stacks in levels[-1]:
            for _, new in _neighbors(stacks, edges, C):
                if new not in dist:
                    dist[new] = d
                    nxt.append(new)
                    if match(new):
                        goal_level = d
                        goals.add(new)
        if len(dist) > max_states:
            raise RuntimeError(f"reference search exceeded {max_states} states")
        levels.append(nxt)
        peak = max(peak, len(nxt))
    explored = len(dist)
    if goal_level is None:
        return None, None, explored, peak
    on_shortest: list[set[Stacks]] = [set() for _ in range(goal_level + 1)]
    on_shortest[goal_level] = goals
    for lvl in range(goal_level - 1, -1, -1):
        marked = on_shortest[lvl + 1]
        keep = on_shortest[lvl]
        for stacks in levels[lvl]:
            for _, new in _neighbors(stacks, edges, C):
                if new in marked:
                    keep.add(stacks)
                    break
    path: list[Move] = []
    current = start
    for lvl in range(goal_level):
        for mv, new in _neighbors(current, edges, C):
            if new in on_shortest[lvl + 1]:
                path.append(mv)
                current = new
                break
        else:
            raise RuntimeError("witness reconstruction lost the shortest-path set")
    return goal_level, path, explored, peak


def reference_search(
    model: Model, start: State, goal: GoalPredicate, *, max_states: int = 10**7
) -> tuple[int | None, list[Move] | None, int, int]:
    """Distance and witness from `start` to `goal` by the one-sided BFS."""
    return sparse_witness(model, start.stacks, goal_match_fn(goal, start.n), max_states)
