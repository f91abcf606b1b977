"""Pegs, discs, states, move legality, goals and graph classes for generalized Hanoi models.

A model couples a directed move graph over the three pegs (which peg-to-peg
moves are permitted at all) with a placement distance C >= 0 (how much larger
than a disc below it a disc may be).  The classical puzzle is the complete
graph with C = 0; keeping the graph but raising C relaxes placement, keeping
C = 0 but removing edges restricts movement, and the engine supports the
product of both axes.

The distance rule is enforced pairwise: a disc must be within C of *every*
disc below it on the same peg, not only its immediate neighbour.  In this
module the check lives in `can_place` / `stack_is_legal` and in the replay
core `replay`, which serves `apply`, `apply_all`, `verify.moved_discs`,
`verify.project_out_largest` and `cli.cmd_solve` and compares against a
running stack minimum so that a move costs O(1).  The search compares
inline, once per candidate move of every searched state: in
`sparse.expand` against the stack minimum each coded stack entry
carries, and at distance 0 in `dense._top_moves`; an adjacent-only
reading would change all five.

`replay` takes its moves in blocks, and the solvers repeat the same block
objects.  From a tuple block's second occurrence on, the replay keys it by
``(id(block), the top depth[p] discs of each peg p, min(minimum below them,
maxd - C) for each peg)``: depth[p] is how far below its starting top the
block ever pops peg p, maxd is the largest disc in those segments, and an
empty remainder counts as maxd - C.  A key that has replayed cleanly is
applied from its recorded effect.  This is exact: the block's moves read
nothing outside those segments but the minimum below them, and every disc
d <= maxd passes d <= low + C for any low >= maxd - C.

All values are immutable and all public operations are pure functions.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from typing import Iterable, NamedTuple

PEGS = (1, 2, 3)


def third_peg(i: int, j: int) -> int:
    """The peg that is neither `i` nor `j`."""
    return 6 - i - j


def _mirror_pegs(src: int, tgt: int) -> dict[int, int]:
    """The src/tgt swap as a peg map; the third peg is fixed."""
    if src == tgt or {src, tgt} - set(PEGS):
        raise ValueError(f"src and tgt must be two of the pegs 1, 2, 3, not {src!r}, {tgt!r}")
    aux = third_peg(src, tgt)
    return {src: tgt, tgt: src, aux: aux}


def _check_peg(value: int) -> int:
    if value not in (1, 2, 3):
        raise ValueError(f"peg must be one of 1, 2, 3; got {value!r}")
    return value


class Move(NamedTuple):
    """A single move: take the topmost disc of `src` and drop it onto `dst`."""

    src: int
    dst: int

    def __str__(self) -> str:
        return f"{self.src}>{self.dst}"


#: The shared Move instance of each ordered pair of distinct pegs.  Solvers
#: and mirroring take their moves from here, so a sequence of any length
#: holds references to six objects instead of one tuple per move.
MOVES: dict[tuple[int, int], Move] = {(i, j): Move(i, j) for i in PEGS for j in PEGS if i != j}

Stack = tuple[int, ...]


class MalformedStateError(ValueError):
    """State is structurally broken: duplicated, missing, or non-positive discs."""


class IllegalMoveError(ValueError):
    """A move that violates a placement rule.

    `reason` is one of ``"empty-source"``, ``"missing-edge"``,
    ``"distance-violation"``.  `index` is the 1-based position of the
    offending move when the error is raised while replaying a sequence.
    """

    def __init__(self, move: Move, reason: str, index: int | None = None) -> None:
        self.move = Move(*move)
        self.reason = reason
        self.index = index
        where = f" at index {index}" if index is not None else ""
        super().__init__(f"illegal move {self.move}{where}: {reason}")


class MoveGraph(NamedTuple("MoveGraph", [("edges", frozenset)])):
    """Directed graph of permitted peg-to-peg moves on the three pegs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def __new__(cls, edges: frozenset[tuple[int, int]]) -> "MoveGraph":
        for i, j in edges:
            _check_peg(i)
            _check_peg(j)
            if i == j:
                raise ValueError(f"self-loop {i}>{j} is not a move")
        return super().__new__(cls, edges)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "MoveGraph":
        return cls(frozenset((int(i), int(j)) for i, j in edges))

    @classmethod
    def complete(cls) -> "MoveGraph":
        return cls.from_edges((i, j) for i in PEGS for j in PEGS if i != j)

    @classmethod
    def parse(cls, text: str) -> "MoveGraph":
        """Parse a comma-separated edge list like ``"1>2, 2>3, 3>1"``.

        Whitespace is ignored.  Duplicate edges are rejected here, and
        self-loops and pegs outside {1,2,3} by the constructor.
        """
        cleaned = "".join(text.split())
        if not cleaned:
            raise ValueError("empty edge list")
        edges: set[tuple[int, int]] = set()
        for part in cleaned.split(","):
            pieces = part.split(">")
            if len(pieces) != 2 or not pieces[0].isdigit() or not pieces[1].isdigit():
                raise ValueError(f"bad edge {part!r}: expected i>j with pegs in 1..3")
            i, j = int(pieces[0]), int(pieces[1])
            if (i, j) in edges:
                raise ValueError(f"duplicate edge {part!r}")
            edges.add((i, j))
        return cls(frozenset(edges))

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def format(self) -> str:
        return ",".join(f"{i}>{j}" for i, j in self.sorted_edges())

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def is_strongly_connected(self) -> bool:
        # On three nodes any existing path shortens to at most two hops.
        return all(
            self.has_edge(i, j)
            or (self.has_edge(i, third_peg(i, j)) and self.has_edge(third_peg(i, j), j))
            for i in PEGS
            for j in PEGS
            if i != j
        )

    def relabel(self, perm: dict[int, int]) -> "MoveGraph":
        return MoveGraph.from_edges((perm[i], perm[j]) for i, j in self.edges)

    def is_swap_invariant(self, src: int, tgt: int) -> bool:
        """True if swapping `src` and `tgt` maps the edge set onto itself."""
        sigma = _mirror_pegs(src, tgt)
        return all((sigma[i], sigma[j]) in self.edges for i, j in self.edges)

    def is_mirror_closed(self, src: int, tgt: int) -> bool:
        """True if every edge's mirror image (src/tgt swapped, direction
        reversed) is also an edge; required for mirrored move sequences to
        stay legal."""
        sigma = _mirror_pegs(src, tgt)
        return all((sigma[j], sigma[i]) in self.edges for i, j in self.edges)


PEG_PERMUTATIONS = tuple(dict(zip(PEGS, perm)) for perm in permutations(PEGS))


class GraphClass(NamedTuple):
    """One isomorphism class of strongly connected move graphs."""

    name: str
    representative: MoveGraph
    members: tuple[MoveGraph, ...]
    note: str

    @property
    def size(self) -> int:
        return len(self.members)


#: The five classes of strongly connected move graphs under peg relabeling
#: (Sapir, "The Tower of Hanoi with forbidden moves", 2004), in output order:
#: each name maps to the labeled graph its closed forms in `recurrence` are
#: written for, and to a note on those forms.
GRAPH_CLASSES: dict[str, tuple[MoveGraph, str]] = {
    "cycle": (MoveGraph.parse("1>2,2>3,3>1"), "sqrt(3) closed forms"),
    "cycle-chord": (MoveGraph.parse("1>2,1>3,3>1,2>3"), "sqrt(17) closed forms"),
    "linear": (MoveGraph.parse("1>2,2>1,1>3,3>1"), "3^n closed forms"),
    "five-edge": (MoveGraph.parse("1>2,1>3,2>3,3>1,3>2"), "growth ~2.34 (reciprocal cubic root)"),
    "complete": (MoveGraph.complete(), "classical 2^n-1"),
}


def class_relabelings(graph: MoveGraph) -> tuple[str, tuple[dict[int, int], ...]] | None:
    """``(class name, every sigma with graph.relabel(sigma) the class's
    graph in GRAPH_CLASSES)``, or None for a graph in no class."""
    for name, (target, _) in GRAPH_CLASSES.items():
        sigmas = tuple(sigma for sigma in PEG_PERMUTATIONS if graph.relabel(sigma) == target)
        if sigmas:
            return name, sigmas
    return None


def all_strongly_connected_graphs() -> tuple[MoveGraph, ...]:
    """Every labeled strongly connected move graph on the three pegs,
    sorted by edge count then edge list."""
    all_edges = sorted((i, j) for i in PEGS for j in PEGS if i != j)
    graphs = []
    for bits in range(1 << 6):
        edges = [edge for k, edge in enumerate(all_edges) if bits >> k & 1]
        graph = MoveGraph.from_edges(edges)
        if graph.is_strongly_connected():
            graphs.append(graph)
    return tuple(sorted(graphs, key=lambda g: (len(g.edges), g.sorted_edges())))


def enumerate_graph_classes() -> tuple[GraphClass, ...]:
    """Each class of `GRAPH_CLASSES` with its members, the relabelings of
    its graph in edge-list order; the first is the representative."""
    classes = []
    for name, (graph, note) in GRAPH_CLASSES.items():
        relabelings = {graph.relabel(perm) for perm in PEG_PERMUTATIONS}
        members = sorted(relabelings, key=MoveGraph.sorted_edges)
        classes.append(GraphClass(name, members[0], tuple(members), note))
    return tuple(classes)


class Model(NamedTuple("Model", [("graph", MoveGraph), ("distance", int)])):
    """A move graph plus the placement distance C."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` validates too

    def __new__(cls, graph: MoveGraph, distance: int = 0) -> "Model":
        if distance < 0:
            raise ValueError("model distance must be >= 0")
        return super().__new__(cls, graph, distance)

    @classmethod
    def classical(cls) -> "Model":
        return cls(MoveGraph.complete(), 0)

    @classmethod
    def relaxed(cls, distance: int) -> "Model":
        """Complete move graph with placement distance `distance`."""
        return cls(MoveGraph.complete(), distance)

    @classmethod
    def digraph(cls, graph: MoveGraph) -> "Model":
        """Classical placement rule restricted to the moves of `graph`."""
        return cls(graph, 0)


class State(NamedTuple):
    """Three disc stacks, bottom to top.  Disc k has size k."""

    stacks: tuple[Stack, Stack, Stack]

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.stacks)

    def stack(self, peg: int) -> Stack:
        return self.stacks[_check_peg(peg) - 1]

    def peg_of(self, disc: int) -> int:
        for peg in PEGS:
            if disc in self.stacks[peg - 1]:
                return peg
        raise ValueError(f"disc {disc} is not in the state")

    def validate(self) -> None:
        """Raise MalformedStateError unless the discs are exactly 1..n."""
        seen = sorted(d for s in self.stacks for d in s)
        if seen != list(range(1, len(seen) + 1)):
            raise MalformedStateError(f"discs must be exactly 1..n, got {seen}")


def standard_state(n: int, peg: int) -> State:
    """All `n` discs on `peg`, largest at the bottom; the other pegs empty."""
    if n < 0:
        raise ValueError("disc count must be >= 0")
    _check_peg(peg)
    stacks: list[Stack] = [(), (), ()]
    stacks[peg - 1] = tuple(range(n, 0, -1))
    return State((stacks[0], stacks[1], stacks[2]))


#: Default visited-set budget of a search; about 3.5 GB at the 176-179
#: bytes a stored state costs at distance >= 1.
DEFAULT_STATE_BUDGET = 20_000_000

#: Default cap on the moves `solve` emits: 2^20, so the classical 20-disc
#: transfer (2^20 - 1 moves, about 4 MB of plain text, about a second) is
#: the longest classical one allowed by default; each further disc doubles
#: the time.
DEFAULT_MOVE_BUDGET = 1 << 20


class SearchCapExceeded(RuntimeError):
    """The search outgrew its state budget while storing `level`, counted
    from its side's origin, with `forward` and `backward` states stored on
    each side (none backward from the start alone); results are incomplete."""

    def __init__(self, cap: int, level: int, forward: int, backward: int = 0) -> None:
        self.cap, self.level, self.forward, self.backward = cap, level, forward, backward
        where = f"at level {level} ({forward} forward and {backward} backward states stored)"
        super().__init__(f"search exceeded the state budget of {cap} states {where}")

    def __reduce__(self):  # `BaseException` would pickle the message alone
        return type(self), (self.cap, self.level, self.forward, self.backward)


class GoalPredicate(NamedTuple):
    """What counts as "done": the standard state on a peg, any legal
    all-on-one-peg state, or one explicit state."""

    kind: str  # "standard" | "all-on" | "exact"
    peg: int | None = None
    state: State | None = None

    @classmethod
    def standard_on(cls, peg: int) -> "GoalPredicate":
        return cls("standard", peg=peg)

    @classmethod
    def all_on(cls, peg: int) -> "GoalPredicate":
        return cls("all-on", peg=peg)

    @classmethod
    def exact(cls, state: State) -> "GoalPredicate":
        return cls("exact", state=state)

    def matches(self, state: State) -> bool:
        if self.kind == "standard":
            return state == standard_state(state.n, self.peg)
        if self.kind == "all-on":
            return all(not state.stacks[p - 1] for p in PEGS if p != self.peg)
        if self.kind == "exact":
            return state == self.state
        raise ValueError(f"unknown goal kind {self.kind!r}")


def can_place(disc: int, stack: Stack, distance: int) -> bool:
    """True if `disc` may be dropped on top of `stack` under distance C.

    Pairwise rule: `disc` must be within C of every disc already in the
    stack, which reduces to a comparison against the stack minimum.
    """
    return not stack or disc <= min(stack) + distance


def stack_is_legal(stack: Stack, distance: int) -> bool:
    """True if every disc is within `distance` of every disc below it."""
    return all(disc <= low + distance for disc, low in zip(stack[1:], accumulate(stack, min)))


def is_legal_state(model: Model, state: State) -> bool:
    """True iff every stack satisfies the pairwise distance rule.

    A malformed state (duplicate or missing discs) raises
    MalformedStateError rather than returning False.
    """
    state.validate()
    return all(stack_is_legal(s, model.distance) for s in state.stacks)


def legal_moves(model: Model, state: State) -> list[Move]:
    """All moves legal in `state`, in lexicographic (src, dst) order."""
    moves = []
    for i, j in model.graph.sorted_edges():
        src = state.stacks[i - 1]
        if src and can_place(src[-1], state.stacks[j - 1], model.distance):
            moves.append(Move(i, j))
    return moves


#: Per peg, how each move changes its height.
_HEIGHT_STEPS = tuple({pair: (pair[1] == p) - (pair[0] == p) for pair in MOVES} for p in PEGS)


def _depths(block: tuple) -> list[int] | None:
    """How far below its starting top `block` ever pops each peg, or None
    if it holds anything but a `Move` between two distinct pegs."""
    if set(map(type, block)) != {Move} or not MOVES.keys() >= set(block):
        return None
    return [max(0, -min(accumulate(map(steps.__getitem__, block)))) for steps in _HEIGHT_STEPS]


def replay(
    model: Model, state: State, blocks: Iterable[Iterable[Move]], carried: list[int] | None = None
) -> tuple[State, int]:
    """The replay core: play the moves of each of `blocks` in turn from
    `state` on mutable stacks, each paired with its running minimum, so
    every move costs O(1) whatever the stack heights.  Returns the final
    state and the number of moves played.  Appends each moved disc to
    `carried` when given.

    Per move the checks run in a fixed order: both pegs (ValueError), then
    ``empty-source``, ``missing-edge`` and ``distance-violation``
    (IllegalMoveError with the 1-based index of the move in the stream).

    From its second occurrence on, a tuple block is keyed by ``(id(block),
    the top depth[p] discs of each peg p, min(minimum below them, maxd - C)
    for each peg)``: depth[p] is how far below its starting top the block
    ever pops peg p (`_depths`, once per distinct block), maxd is the
    largest disc in those segments, and an empty remainder counts as
    maxd - C.  A key that has replayed cleanly is applied by swapping in
    the recorded top segments and rebuilding their running minima.  This
    is exact: the block's moves read nothing outside those segments but
    the minimum below them, and every disc d <= maxd passes d <= low + C
    for any low >= maxd - C, so each move has the same outcome in every
    state with the key.  A miss, a peg holding fewer than depth[p] discs,
    a block with anything but a `Move` and a block met once play move by
    move, so an error keeps its index, reason and move.
    """
    edges = model.graph.edges
    # (source index, target index, edge present) for every pair of valid
    # pegs: a Move found here needs no peg check; any other pair, such as a
    # plain tuple, is unpacked and its pegs are checked
    plan = {(i, j): (i - 1, j - 1, (i, j) in edges) for i in PEGS for j in PEGS}
    limit = model.distance
    stacks = [list(stack) for stack in state.stacks]
    lows = [list(accumulate(stack, min)) for stack in state.stacks]
    record = carried.append if carried is not None else None
    met: dict[int, tuple] = {}  # id(block) -> (block, False once met, then its depths)
    effects: dict[tuple, tuple] = {}  # key -> (top segments after, moved discs)
    index = 0
    for block in blocks:
        key = depth = None
        if type(block) is tuple:
            if id(block) in met:
                depth = met[id(block)][1]
                if depth is False:
                    depth = _depths(block)
                    met[id(block)] = (block, depth)
            else:
                met[id(block)] = (block, False)  # keeps the block alive, so its id stays unique
        cuts = depth and [len(stack) - d for stack, d in zip(stacks, depth)]
        if cuts and min(cuts) >= 0:
            tops = tuple(tuple(stack[cut:]) for stack, cut in zip(stacks, cuts))
            floor = max(max(top) for top in tops if top) - limit
            below = tuple(min(low[cut - 1], floor) if cut else floor for low, cut in zip(lows, cuts))
            key = (id(block), tops, below)
            effect = effects.get(key)
            if effect is not None:
                after, discs = effect
                for stack, low, cut, top in zip(stacks, lows, cuts, after):
                    stack[cut:] = top
                    # the minima go on from the one below the segment, if any
                    low[max(cut - 1, 0) :] = accumulate((*low[cut - 1 : cut], *top), min)
                if carried is not None:
                    carried += discs
                index += len(block)
                continue
        mark = len(carried) if carried is not None else 0
        for index, move in enumerate(block, index + 1):
            step = plan.get(move) if type(move) is Move else None
            if step is None:
                i, j = move
                step = plan[_check_peg(i), _check_peg(j)]
            s, t, allowed = step
            src = stacks[s]
            if not src:
                raise IllegalMoveError(move, "empty-source", index)
            if not allowed:
                raise IllegalMoveError(move, "missing-edge", index)
            disc = src[-1]
            low = lows[t]
            if low and disc > low[-1] + limit:
                raise IllegalMoveError(move, "distance-violation", index)
            src.pop()
            lows[s].pop()
            stacks[t].append(disc)
            low.append(disc if not low or disc < low[-1] else low[-1])
            if record is not None:
                record(disc)
        if key is not None:
            after = tuple(tuple(stack[cut:]) for stack, cut in zip(stacks, cuts))
            effects[key] = (after, tuple(carried[mark:]) if carried is not None else ())
    return State((tuple(stacks[0]), tuple(stacks[1]), tuple(stacks[2]))), index


def apply(model: Model, state: State, move: Move) -> State:
    """Apply one move, returning a new state; the input is unchanged.

    Raises IllegalMoveError carrying the violated rule.  The state is
    assumed well-formed; structural validation is the caller's concern.
    """
    try:
        return replay(model, state, ((move,),))[0]
    except IllegalMoveError as err:
        raise IllegalMoveError(err.move, err.reason) from None


def apply_all(model: Model, state: State, seq: Iterable[Move]) -> State:
    """Replay a whole sequence; on failure the error names the 1-based
    index of the first illegal move and the violated rule."""
    return replay(model, state, (seq,))[0]


def mirror_state(state: State, src: int, tgt: int) -> State:
    """Swap the stacks of `src` and `tgt`; the third peg is unchanged."""
    sigma = _mirror_pegs(src, tgt)
    return State(tuple(state.stack(sigma[peg]) for peg in PEGS))


def mirror_move(move: Move, src: int, tgt: int) -> Move:
    """Relabel pegs by the src/tgt swap and reverse the move's direction.

    (x -> y) maps to (sigma(y) -> sigma(x)); the swap fixes the third peg.
    """
    return mirror_sequence((move,), src, tgt)[0]


def mirror_sequence(seq: Iterable[Move], src: int, tgt: int) -> list[Move]:
    """Reverse the sequence and mirror each move, read as a pair of pegs;
    applying this twice returns the original sequence.  `src` and `tgt`
    are checked even when `seq` is empty, and each move's pegs as the
    replay checks them."""
    sigma = _mirror_pegs(src, tgt)
    moves = list(seq)
    image = {}
    for move in dict.fromkeys(moves):  # first occurrences in order, as the replay meets them
        i, j = move
        x, y = sigma[_check_peg(i)], sigma[_check_peg(j)]
        image[move] = MOVES.get((y, x)) or Move(y, x)
    return [image[move] for move in reversed(moves)]


def remove_disc(state: State, disc: int) -> State:
    """Drop one disc from wherever it sits.

    Under the pairwise distance rule, removing the largest disc from a
    legal state always leaves a legal state.
    """
    stacks = list(state.stacks)
    for k in range(3):
        if disc in stacks[k]:
            stacks[k] = tuple(d for d in stacks[k] if d != disc)
            return State((stacks[0], stacks[1], stacks[2]))
    raise ValueError(f"disc {disc} is not in the state")
