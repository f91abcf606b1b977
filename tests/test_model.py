"""States, moves, legality rules, the mirror transform, and the value
classes of every module."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hanoilab
from hanoilab import oracle, recurrence, verify
from hanoilab.model import (
    GoalPredicate,
    GraphClass,
    IllegalMoveError,
    MalformedStateError,
    Model,
    Move,
    MoveGraph,
    SearchCapExceeded,
    State,
    apply,
    apply_all,
    can_place,
    is_legal_state,
    legal_moves,
    mirror_move,
    mirror_sequence,
    mirror_state,
    remove_disc,
    stack_is_legal,
    standard_state,
    third_peg,
)
from strategies import legal_states

CLASSICAL = Model.classical()
CYCLE = MoveGraph.parse("1>2,2>3,3>1")


def test_standard_state():
    assert standard_state(3, 1).stacks == ((3, 2, 1), (), ())
    assert standard_state(0, 2).stacks == ((), (), ())
    assert standard_state(8, 1).stack(1) == tuple(range(8, 0, -1))


def test_standard_state_rejects_bad_args():
    with pytest.raises(ValueError):
        standard_state(-1, 1)
    with pytest.raises(ValueError):
        standard_state(3, 4)


def test_stack_legality_under_distance():
    assert stack_is_legal((3, 4), 1)  # one size larger may sit on top
    assert not stack_is_legal((2, 4), 1)
    assert stack_is_legal((5, 4, 3, 2, 1), 0)
    # pairwise, not adjacent-only: 4 is within 1 of 3 but not of 2
    assert not stack_is_legal((3, 4, 2, 1, 5), 1)
    assert stack_is_legal((3, 4, 2, 1), 1)


def test_is_legal_state():
    assert is_legal_state(Model.relaxed(1), State(((3, 4), (2, 1), ())))
    assert not is_legal_state(CLASSICAL, State(((3, 4), (2, 1), ())))
    assert is_legal_state(CLASSICAL, standard_state(5, 2))


def test_malformed_state_is_an_error_not_false():
    with pytest.raises(MalformedStateError):
        is_legal_state(CLASSICAL, State(((1, 1), (), ())))
    with pytest.raises(MalformedStateError):
        is_legal_state(CLASSICAL, State(((3, 1), (), ())))  # disc 2 missing


def test_legal_moves_classical():
    assert legal_moves(CLASSICAL, standard_state(2, 1)) == [Move(1, 2), Move(1, 3)]


def test_legal_moves_cycle_digraph():
    # single outgoing edge from peg 1; enumeration cross-check
    model = Model.digraph(CYCLE)
    state = standard_state(2, 1)
    assert legal_moves(model, state) == [Move(1, 2)]
    brute = [
        Move(i, j)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if i != j
        and CYCLE.has_edge(i, j)
        and state.stack(i)
        and can_place(state.stack(i)[-1], state.stack(j), 0)
    ]
    assert brute == [Move(1, 2)]


def test_legal_moves_distance_one():
    state = State(((2,), (1,), ()))
    moves = legal_moves(Model.relaxed(1), state)
    assert Move(1, 2) in moves  # disc 2 onto disc 1, distance exactly 1


def test_apply_moves_top_disc():
    after = apply(CLASSICAL, standard_state(3, 1), Move(1, 2))
    assert after.stacks == ((3, 2), (1,), ())


def test_apply_empty_source():
    with pytest.raises(IllegalMoveError) as err:
        apply(CLASSICAL, standard_state(3, 1), Move(2, 1))
    assert err.value.reason == "empty-source"


def test_apply_missing_edge():
    with pytest.raises(IllegalMoveError) as err:
        apply(Model.digraph(CYCLE), standard_state(1, 2), Move(2, 1))
    assert err.value.reason == "missing-edge"


def test_apply_distance_violation():
    with pytest.raises(IllegalMoveError) as err:
        apply(CLASSICAL, State(((1,), (2,), ())), Move(2, 1))
    assert err.value.reason == "distance-violation"


def test_apply_distance_one_placement():
    # disc exactly one size larger may land on the stack
    after = apply(Model.relaxed(1), State(((3,), (4,), ())), Move(2, 1))
    assert after.stacks == ((3, 4), (), ())


def test_apply_is_pure():
    state = standard_state(3, 1)
    apply(CLASSICAL, state, Move(1, 2))
    assert state == standard_state(3, 1)


def test_apply_all():
    assert apply_all(CLASSICAL, standard_state(1, 1), [Move(1, 2)]) == standard_state(
        1, 2
    )


def test_apply_all_reports_first_bad_index():
    with pytest.raises(IllegalMoveError) as err:
        apply_all(CLASSICAL, standard_state(2, 1), [Move(1, 2), Move(1, 2)])
    assert err.value.index == 2
    assert err.value.reason == "distance-violation"


# the symmetric 9-move transfer of 4 discs at distance 1, src=1 tgt=2
SYMMETRIC_4 = [
    Move(1, 2),
    Move(1, 3),
    Move(1, 3),
    Move(2, 3),
    Move(1, 2),
    Move(3, 1),
    Move(3, 2),
    Move(3, 2),
    Move(1, 2),
]


def test_apply_all_nine_move_transfer():
    final = apply_all(Model.relaxed(1), standard_state(4, 1), SYMMETRIC_4)
    assert final == standard_state(4, 2)


def test_mirror_state_swaps_stacks():
    for n in range(5):
        assert mirror_state(standard_state(n, 1), 1, 2) == standard_state(n, 2)
    state = State(((2,), (1,), (3,)))
    assert mirror_state(state, 1, 2).stacks == ((1,), (2,), (3,))
    # all discs on the aux peg: fixed point
    aux_only = State(((), (), (3, 2, 1)))
    assert mirror_state(aux_only, 1, 2) == aux_only


def test_mirror_move_cases():
    # src=1, tgt=2, aux=3
    assert mirror_move(Move(3, 2), 1, 2) == Move(1, 3)  # aux>tgt -> src>aux
    assert mirror_move(Move(1, 2), 1, 2) == Move(1, 2)  # src>tgt -> src>tgt
    assert mirror_move(Move(3, 1), 1, 2) == Move(2, 3)  # aux>src -> tgt>aux
    assert mirror_move(Move(2, 1), 1, 2) == Move(2, 1)  # tgt>src -> tgt>src


def test_mirror_requires_distinct_pegs():
    with pytest.raises(ValueError):
        mirror_move(Move(1, 2), 2, 2)
    with pytest.raises(ValueError):
        mirror_state(standard_state(1, 1), 3, 3)


MIRROR_CALLS = {
    "mirror_state": lambda src, tgt: mirror_state(standard_state(3, 1), src, tgt),
    "mirror_move": lambda src, tgt: mirror_move(Move(1, 2), src, tgt),
    "mirror_sequence": lambda src, tgt: mirror_sequence([], src, tgt),
    "is_symmetric": lambda src, tgt: verify.is_symmetric([Move(1, 2)], src, tgt),
    "is_mirror_closed": lambda src, tgt: MoveGraph.complete().is_mirror_closed(src, tgt),
    "is_swap_invariant": lambda src, tgt: MoveGraph.complete().is_swap_invariant(src, tgt),
}


@pytest.mark.parametrize("src, tgt", [(1, 0), (1, 4), (2, 2)])
@pytest.mark.parametrize("call", sorted(MIRROR_CALLS))
def test_mirror_refuses_a_bad_peg_pair(call, src, tgt):
    # peg 0 would index the last stack, and an unknown peg miss the peg map
    with pytest.raises(ValueError, match=f"src and tgt .*{src}, {tgt}"):
        MIRROR_CALLS[call](src, tgt)


MOVE_CALLS = {
    "mirror_move": lambda move: mirror_move(move, 1, 3),
    "mirror_sequence": lambda move: mirror_sequence([move, Move(1, 2), move], 1, 3),
    "is_symmetric": lambda move: verify.is_symmetric([move, Move(2, 2), move], 1, 3),
}


@pytest.mark.parametrize("pair", [(i, j) for i in range(5) for j in range(5)], ids=str)
@pytest.mark.parametrize("call", sorted(MOVE_CALLS))
def test_mirroring_reads_a_move_as_a_pair_of_pegs(call, pair):
    # the replay takes a plain (src, dst) pair and refuses a peg outside 1..3
    # with a ValueError; mirroring must do both alike
    bad = [peg for peg in pair if peg not in (1, 2, 3)]
    if not bad:  # a self-loop keeps its image too
        assert MOVE_CALLS[call](pair) == MOVE_CALLS[call](Move(*pair))
        return
    message = f"^peg must be one of 1, 2, 3; got {bad[0]}$"
    with pytest.raises(ValueError, match=message):
        apply_all(Model.classical(), standard_state(1, 1), [pair])
    for move in (pair, Move(*pair)):
        with pytest.raises(ValueError, match=message):
            MOVE_CALLS[call](move)


def test_move_graph_parse_roundtrip():
    graph = MoveGraph.parse(" 1>2, 2>3 ,3>1,1>3 ")
    assert graph.format() == "1>2,1>3,2>3,3>1"


@pytest.mark.parametrize("text", ["", "1>1", "1>2,1>2", "4>1", "1-2", "1>2>3"])
def test_move_graph_parse_rejects(text):
    with pytest.raises(ValueError):
        MoveGraph.parse(text)


def test_strong_connectivity():
    assert CYCLE.is_strongly_connected()
    assert MoveGraph.complete().is_strongly_connected()
    assert not MoveGraph.parse("1>2,2>1").is_strongly_connected()
    assert not MoveGraph.parse("1>2,2>3,1>3").is_strongly_connected()


def test_model_validation():
    with pytest.raises(ValueError):
        Model(MoveGraph.complete(), -1)


def test_remove_disc():
    assert remove_disc(standard_state(3, 1), 3).stacks == ((2, 1), (), ())
    with pytest.raises(ValueError):
        remove_disc(standard_state(1, 1), 5)


# ---------------------------------------------------------------------------
# properties


@given(legal_states())
def test_generated_states_are_legal(pair):
    model, state = pair
    assert is_legal_state(model, state)


@given(legal_states())
def test_disc_conservation(pair):
    model, state = pair
    before = sorted(d for s in state.stacks for d in s)
    for move in legal_moves(model, state):
        after = apply(model, state, move)
        assert sorted(d for s in after.stacks for d in s) == before


@given(legal_states())
def test_apply_succeeds_exactly_on_legal_moves(pair):
    model, state = pair
    allowed = set(legal_moves(model, state))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            move = Move(i, j)
            if move in allowed:
                assert is_legal_state(model, apply(model, state, move))
            else:
                with pytest.raises(IllegalMoveError):
                    apply(model, state, move)


@given(legal_states())
def test_distance_monotonicity(pair):
    model, state = pair
    looser = Model(model.graph, model.distance + 1)
    assert is_legal_state(looser, state)


@given(legal_states(distances=(0,)))
def test_classical_stacks_strictly_decrease(pair):
    _, state = pair
    for stack in state.stacks:
        assert all(a > b for a, b in zip(stack, stack[1:]))


@given(legal_states(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_mirror_state_is_an_involution(pair, pegs):
    _, state = pair
    src, tgt = pegs
    assert mirror_state(mirror_state(state, src, tgt), src, tgt) == state


@given(legal_states(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_mirror_commutation(pair, pegs):
    """A mirrored move undoes the mirrored image of the original move:
    apply(mirror(apply(s, mv)), mirror(mv)) == mirror(s)."""
    model, state = pair
    src, tgt = pegs
    for move in legal_moves(model, state):
        stepped = apply(model, state, move)
        back = apply(model, mirror_state(stepped, src, tgt), mirror_move(move, src, tgt))
        assert back == mirror_state(state, src, tgt)


@given(legal_states(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_mirror_sequence_is_an_involution(pair, pegs):
    model, state = pair
    src, tgt = pegs
    seq = legal_moves(model, state)
    assert mirror_sequence(mirror_sequence(seq, src, tgt), src, tgt) == list(seq)


_CHECK = oracle.OptimalityCheck((1, 2), 2, 3, 3, 3)
_ROW = oracle.ProbeRow(1, 1, 1, 1, 1, 1, 1)

#: Each value class: a factory of fresh, equal values, its field names in
#: order, and whether its values hash (CountTable and HarnessReport hold a
#: dict).
VALUES = {
    "MoveGraph": (lambda: MoveGraph.parse("1>2,2>3,3>1"), "edges", True),
    "GraphClass": (
        lambda: GraphClass("cycle", CYCLE, (CYCLE,), "note"),
        "name representative members note",
        True,
    ),
    "Model": (lambda: Model(CYCLE, 1), "graph distance", True),
    "State": (lambda: standard_state(3, 1), "stacks", True),
    "GoalPredicate": (lambda: GoalPredicate.all_on(2), "kind peg state", True),
    "SearchResult": (
        lambda: oracle.SearchResult(1, (Move(1, 2),), 2, 1),
        "distance path explored peak_frontier",
        True,
    ),
    "OptimalityCheck": (
        lambda: oracle.OptimalityCheck((1, 2), 2, 3, 3, 3),
        "pair n bfs algorithm recurrence",
        True,
    ),
    "OptimalityReport": (
        lambda: oracle.OptimalityReport(CYCLE, 2, (_CHECK,)),
        "graph n checks",
        True,
    ),
    "ProbeRow": (
        lambda: oracle.ProbeRow(1, 1, 1, 1, 1, 1, 1),
        "n bfs_std bfs_any a_conj b_conj len_a_sym len_q",
        True,
    ),
    "ProbeReport": (lambda: oracle.ProbeReport(1, (_ROW,)), "distance rows", True),
    "CountTable": (
        lambda: recurrence.eval_move_counts(CYCLE, 3),
        "graph n_max counts",
        False,
    ),
    "RootBracket": (
        lambda: recurrence.RootBracket(Fraction(2), Fraction(3), (1, 2)),
        "lo hi coefficients",
        True,
    ),
    "ValidationReport": (
        lambda: verify.ValidationReport(True, 0, final_state=standard_state(1, 1)),
        "ok length first_bad_index final_state reason",
        True,
    ),
    "LambdaClassification": (
        lambda: verify.LambdaClassification(True, False),
        "is_lambda is_lambda_prime",
        True,
    ),
    "HarnessReport": (
        lambda: verify.HarnessReport("dn-negative", {"n_max": 2}, True, ()),
        "suite params passed counterexamples",
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_are_immutable_equal_by_value_and_named_in_repr(name):
    make, names, hashable = VALUES[name]
    fields = names.split()
    value, twin = make(), make()
    assert type(value).__name__ == name and value is not twin
    assert value == twin
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
    text = repr(value)
    assert text.startswith(f"{name}(") and all(f"{field}=" in text for field in fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin


def test_constructor_defaults_are_kept():
    assert Model(CYCLE) == Model(CYCLE, 0) == Model(graph=CYCLE, distance=0)
    assert GoalPredicate("exact") == GoalPredicate("exact", None, None)
    report = verify.ValidationReport(False, 3)
    assert (report.first_bad_index, report.final_state, report.reason) == (None, None, None)


def test_quadvalue_refuses_assignment_and_deletion_with_attribute_error():
    value = recurrence.QuadValue(1, 2, 5)
    for act in (lambda: setattr(value, "d", 7), lambda: delattr(value, "d")):
        with pytest.raises(AttributeError) as err:
            act()
        assert type(err.value) is AttributeError
    assert value == recurrence.QuadValue(1, 2, 5)


PACKAGE_ROOT = str(Path(hanoilab.__file__).resolve().parents[1])
PATHS = [PACKAGE_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])]
VALIDATION = """
from hanoilab.model import Model, MoveGraph
bad = [
    lambda: MoveGraph(frozenset({(1, 1)})),
    lambda: MoveGraph(frozenset({(1, 4)})),
    lambda: MoveGraph.from_edges([(0, 2)]),
    lambda: Model(MoveGraph.complete(), -1),
    lambda: Model(MoveGraph.complete(), distance=-2),
    lambda: Model(MoveGraph.complete())._replace(distance=-1),
    lambda: MoveGraph.complete()._replace(edges=frozenset({(2, 2)})),
]
for make in bad:
    try:
        make()
    except ValueError:
        continue
    raise SystemExit("accepted: " + repr(make()))
print("ok")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_validated_classes_reject_bad_values_also_under_python_O(flags):
    child = subprocess.run(
        [sys.executable, *flags, "-c", VALIDATION],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0 and child.stdout == "ok\n", child.stderr + child.stdout


def test_search_cap_exceeded_survives_pickle():
    err = SearchCapExceeded(5, 2, 4, 2)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is SearchCapExceeded
    assert (back.cap, back.level, back.forward, back.backward) == (5, 2, 4, 2)
    assert str(back) == str(err) == (
        "search exceeded the state budget of 5 states at level 2"
        " (4 forward and 2 backward states stored)"
    )
