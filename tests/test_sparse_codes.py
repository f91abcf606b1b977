"""The integer stack codes of the distance >= 1 search: the codec, the
neighbours it generates against the stack-tuple generator of the
reference BFS, the code test for the middle move of a symmetric
transfer, and the memory a stored state costs."""

import tracemalloc
from itertools import permutations

from hypothesis import given, strategies as st

from hanoilab.model import (
    IllegalMoveError,
    Model,
    Move,
    MoveGraph,
    State,
    all_strongly_connected_graphs,
    apply,
    is_legal_state,
    mirror_state,
    standard_state,
)
from hanoilab.oracle import GoalPredicate, bfs_distance
from hanoilab.sparse import encode, expand, index_moves, witness_steps
from reference_bfs import _neighbors
from strategies import legal_states

# every strongly connected graph, plus one whose third peg is unreachable
GRAPHS = [*all_strongly_connected_graphs(), MoveGraph.parse("1>2,2>1")]


def entries(code: int, base: int) -> list[tuple[int, int]]:
    """The (disc, stack minimum from it down) pairs of one stack code,
    bottom to top; read from the documented layout, not from the oracle."""
    out = []
    while code:
        code, entry = divmod(code, base * base)
        out.append((entry % base, entry // base))
    return out[::-1]


def decode(codes, base: int):
    return tuple(tuple(disc for disc, _ in entries(code, base)) for code in codes)


def arrangements(n: int):
    """Every placement of discs 1..n in three ordered stacks; each is
    legal at distance n - 1, so these are all legal states at any C."""
    for order in permutations(range(1, n + 1)):
        for cut in range(n + 1):
            for cut2 in range(cut, n + 1):
                yield order[:cut], order[cut:cut2], order[cut2:]


def test_codec_round_trips_every_state_up_to_six_discs():
    for n in range(7):
        base = n + 1
        codes_seen = set()
        for stacks in arrangements(n):
            codes = encode(stacks, base)
            assert decode(codes, base) == stacks
            for stack, code in zip(stacks, codes):
                lows = [min(stack[: k + 1]) for k in range(len(stack))]
                assert [low for _, low in entries(code, base)] == lows
                # the O(1) reads the search makes: top disc and minimum
                if stack:
                    assert code % base == stack[-1]
                    assert code % (base * base) // base == min(stack)
                else:
                    assert code == 0
            codes_seen.add(codes)
        assert len(codes_seen) == len(list(arrangements(n)))


@given(
    graph=st.sampled_from(GRAPHS),
    drawn=legal_states(max_n=8, distances=(1, 2, 3)),
)
def test_code_neighbours_equal_the_tuple_neighbours(graph, drawn):
    model, state = drawn
    edges, C, base = graph.sorted_edges(), model.distance, state.n + 1
    reverse = tuple(sorted((j, i) for i, j in edges))
    expected = list(_neighbors(state.stacks, edges, C))
    codes = encode(state.stacks, base)
    moves, reversed_moves = index_moves(edges)
    level = expand([codes], moves, base, C, ({codes: 0}, {}), 0, 10**6)
    assert [decode(new, base) for new in level] == [new for _, new in expected]
    # the witness steps: one level of the state alone, each successor's
    # move read off the codes; predecessors over the reversed edges
    successors, predecessors = witness_steps(moves, reversed_moves, base, C)
    assert [(mv, decode(new, base)) for mv, new in successors(codes)] == expected
    expected_back = [new for _, new in _neighbors(state.stacks, reverse, C)]
    assert [decode(prev, base) for prev in predecessors(codes)] == expected_back


def test_middle_move_code_test_matches_the_mirror():
    # `shortest_symmetric`'s odd test: a>b lands on W's mirror iff W's code
    # on a is non-empty and its pop equals W's code on b
    hits = 0
    for C in (1, 2, 3):
        model = Model.relaxed(C)  # the complete graph
        for n in range(7):
            base = n + 1
            square = base * base
            for stacks in arrangements(n):
                state = State(stacks)
                if not is_legal_state(model, state):
                    continue
                codes = encode(stacks, base)
                for src, tgt in permutations((1, 2, 3), 2):
                    a, b = src - 1, tgt - 1
                    coded = bool(codes[a]) and codes[a] // square == codes[b]
                    try:
                        lands = apply(model, state, Move(src, tgt)) == mirror_state(state, src, tgt)
                    except IllegalMoveError:
                        lands = False
                    assert coded == lands, (C, stacks, src, tgt)
                    hits += lands
    assert hits


def test_a_stored_state_costs_under_190_bytes():
    model, start = Model.relaxed(1), standard_state(10, 1)
    tracemalloc.start()
    try:
        result = bfs_distance(model, start, GoalPredicate.standard_on(2), want_path=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.explored == 41335  # the mirror search; 78411 from both sides
    assert peak / result.explored < 190
