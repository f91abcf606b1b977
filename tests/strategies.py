"""Shared hypothesis strategies: random legal states under a random model."""

from hypothesis import strategies as st

from hanoilab.model import Model, MoveGraph, State


def _order_stack(draw, discs: list[int], distance: int) -> tuple[int, ...]:
    """Draw a legal bottom-to-top ordering of `discs`.

    Choosing the bottom disc first: everything still unplaced goes above
    it, so the pairwise rule needs max(rest) <= bottom + distance.
    """
    order: list[int] = []
    remaining = sorted(discs)
    while remaining:
        candidates = [
            d
            for d in remaining
            if len(remaining) == 1
            or max(x for x in remaining if x != d) <= d + distance
        ]
        choice = draw(st.sampled_from(candidates))
        order.append(choice)
        remaining.remove(choice)
    return tuple(order)


@st.composite
def legal_states(
    draw, max_n: int = 6, distances: tuple[int, ...] = (0, 1, 2, 3), min_n: int = 0
):
    """A (model, legal state) pair over the complete move graph."""
    distance = draw(st.sampled_from(distances))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pegs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    groups: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for disc, peg in zip(range(1, n + 1), pegs):
        groups[peg].append(disc)
    stacks = tuple(_order_stack(draw, groups[peg], distance) for peg in (1, 2, 3))
    return Model(MoveGraph.complete(), distance), State(stacks)


@st.composite
def move_lists(draw, max_len: int = 12):
    """Arbitrary (not necessarily legal) move lists."""
    from hanoilab.model import Move

    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    return [
        Move(*draw(st.sampled_from(pairs)))
        for _ in range(draw(st.integers(0, max_len)))
    ]
