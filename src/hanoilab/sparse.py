"""The distance >= 1 search core: each stack is one integer code.

For distance >= 1 a state is one integer per stack, coding each disc with
the smallest disc from it down (`encode`), and is searched from both
ends: forward from the start and backward from every goal state over the
reversed edges, one level at a time of the side whose last level holds
fewer states (the forward side on a tie), each side a dict from state to
depth (176-179 B a state).  There `explored` counts both sides' stored
states, goal states included, and `peak_frontier` is the largest level
of either side.  Only the level expander `expand` writes the placement
rule on codes: `oracle.shortest_symmetric` grows its levels with it, a
witness step is its level of one state (`witness_steps`), and the
symmetric midpoint test compares codes.  `oracle.witness` rebuilds every
witness from the stored depths.

A side whose origins (the start, or every goal state) all leave the same
two stacks empty, on a graph invariant under swapping those two pegs,
expands one state of each swapped pair (`peg_swap`).  The swap sigma maps
each legal move to a legal move, so it is an automorphism of the state
graph (the automorphisms of Hanoi graphs are the peg permutations), and
it fixes every origin, so d(origin, sigma(X)) = d(sigma(origin),
sigma(X)) = d(origin, X): each level of that side is closed under sigma.
`expand` stores each new state and its image at the same depth, and only
the one found first goes on the next level; the mirror stop test, the
witness seeds and the symmetric midpoint test read each level with its
images.  That covers the forward side from a standard start, and the
backward side of standard and all-on goals, on the complete graph and
from the centre of the linear graph.  The stored levels are those of a
search without the rule, so distances, witnesses, the side grown next,
`peak_frontier` and `explored` at a level boundary are the same, and
both still count states, images included.  Only the order within a level
changes: the states stored when the sides meet, and whether a level that
meets the other side also passes the budget first, can differ.

Its mirror search is the one of `oracle`'s docstring, over the forward
side alone; M swaps the first and the last stack.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator

from .model import MOVES, Move, MoveGraph, SearchCapExceeded, Stack
from .oracle import witness

Stacks = tuple[Stack, Stack, Stack]
#: one integer code per stack; see `encode`
Codes = tuple[int, int, int]
#: (source index, target index) for each edge, in the given order
SparseMoves = tuple[tuple[int, int], ...]


def index_moves(edges: tuple[tuple[int, int], ...]) -> tuple[SparseMoves, SparseMoves]:
    """The edges in their order, and the reversed edges sorted, as index pairs."""
    return tuple((i - 1, j - 1) for i, j in edges), tuple(sorted((j - 1, i - 1) for i, j in edges))


def encode(stacks: Stacks, base: int) -> Codes:
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


def expand(
    frontier: list[Codes],
    moves: SparseMoves,
    base: int,
    C: int,
    sides: tuple[dict[Codes, int], dict[Codes, int]],
    grow: int,
    max_states: int,
    image: Callable[[Codes], Codes] | None = None,
) -> list[Codes] | None:
    """The next level of side `grow` of `sides` (forward, backward), or
    None as soon as a state of the other side is reached.  The cap counts
    both sides' stored states, checked as each is stored.  With `image`
    (the peg-swap rule of the module docstring), `frontier` holds one state
    of each pair: each new state is stored, then its image at the same
    depth, and only the first goes on the returned level."""
    seen, other = sides[grow], sides[1 - grow]
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
                    raise SearchCapExceeded(max_states, depth, *map(len, sides))
                nxt.append(new)
                if image:
                    new = image(new)
                    if new not in seen:
                        if new in other:
                            return None
                        seen[new] = depth
                        if len(seen) > limit:
                            raise SearchCapExceeded(max_states, depth, *map(len, sides))
    return nxt


def peg_swap(origins: Iterable[Codes], graph: MoveGraph) -> Callable[[Codes], Codes] | None:
    """The swap of the two stacks that every origin leaves empty, if the
    graph is invariant under swapping those pegs, else None."""
    empty = [k for k in range(3) if not any(codes[k] for codes in origins)]
    if len(empty) != 2 or not graph.is_swap_invariant(empty[0] + 1, empty[1] + 1):
        return None
    order = [0, 1, 2]
    order[empty[0]], order[empty[1]] = empty[1], empty[0]
    return operator.itemgetter(*order)


def with_images(level: list[Codes], image: Callable[[Codes], Codes] | None) -> list[Codes]:
    """A level of one state per pair as every state on it."""
    return [*level, *map(image, level)] if image else level


def witness_steps(moves: SparseMoves, reverse: SparseMoves, base: int, C: int) -> tuple:
    """`oracle.witness`'s successors and predecessors of a coded state: one
    `expand` level of that state alone over `moves` or `reverse` (no other
    side: never None; the cap holds the state and one new state a move).
    Each successor's move is read off the codes: the pop shrank the
    source's code and the push grew the target's."""
    level = lambda codes, steps: expand([codes], steps, base, C, ({codes: 0}, {}), 0, len(steps) + 1)

    def successors(codes: Codes) -> Iterator[tuple[Move, Codes]]:
        for new in level(codes, moves):
            grew = [y - x for x, y in zip(codes, new)]
            yield MOVES[grew.index(min(grew)) + 1, grew.index(max(grew)) + 1], new

    return successors, lambda codes: level(codes, reverse)


def search(
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
    then the two completed depths plus one.  `sides`, `levels`, `steps`,
    `images` and `sizes` are pairs indexed by side, 0 forward and 1
    backward.  With `mirror` only the forward side grows (the mirror search
    of `oracle`'s docstring), and its last level, images included, ends in
    `levels[1]`.
    """
    steps = index_moves(edges)
    swap = (lambda codes: codes[::-1]) if mirror else None
    base = sum(map(len, start)) + 1
    origin = encode(start, base)
    sides = fwd, bwd = {origin: 0}, {}
    for goal in () if mirror else goals:
        code = encode(goal, base)
        if code == origin:  # stored once, as the start
            return 0, [] if want_path else None, 1, 1
        bwd[code] = 0
        if len(fwd) + len(bwd) > max_states:
            raise SearchCapExceeded(max_states, 0, *map(len, sides))
    graph = MoveGraph.from_edges(edges)
    images = peg_swap(fwd, graph), peg_swap(bwd, graph)  # a mirror search has no backward image
    levels = [[origin], list(bwd)]  # every origin is its own image
    sizes = [1, len(bwd)]  # the states on each side's last level, images included
    peak = max(sizes)
    while True:
        grow = 0 if mirror or sizes[0] <= sizes[1] else 1
        stored = len(sides[grow])
        nxt = expand(levels[grow], steps[grow], base, C, sides, grow, max_states, images[grow])
        if nxt is None:
            distance = fwd[levels[0][0]] + bwd[levels[1][0]] + 1
            break
        if not nxt:
            return None, None, len(fwd) + len(bwd), peak
        sizes[grow] = size = len(sides[grow]) - stored
        peak = max(peak, size)
        levels[grow] = nxt
        if mirror:  # only levels L - 1 and L can hold the first mirrors found
            level = with_images(nxt, images[0])
            hits = set(map(fwd.get, map(swap, level))) - {None}
            if hits:  # `oracle.witness` finds the midpoints on this level
                distance, levels[1] = fwd[nxt[0]] + min(hits), level
                break
    explored = len(fwd) + len(bwd)
    if not want_path:
        return distance, None, explored, peak
    # seeds: the last complete backward level; a partial next one is off every shortest path
    seeds = with_images(levels[1], images[1])
    path = witness(origin, distance, bwd, seeds, fwd.get, *witness_steps(*steps, base, C), swap)
    return distance, path, explored, peak
