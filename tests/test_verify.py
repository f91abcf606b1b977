"""Symmetry predicate, largest-disc projection, blocked-state
classification, and the claim harnesses."""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hanoilab import verify
from hanoilab.cli import run
from hanoilab.model import (
    PEGS,
    IllegalMoveError,
    Model,
    Move,
    State,
    mirror_sequence,
    standard_state,
)
from hanoilab.oracle import GoalPredicate, bfs_distance
from hanoilab.solvers import a_symmetric, classical_solve
from hanoilab.verify import (
    claim_harness,
    is_symmetric,
    lambda_predicates,
    moved_discs,
    project_out_largest,
    validate_sequence,
)
from reference_verify import lambda_predicates as reference_lambda_predicates
from strategies import move_lists

RELAXED_1 = Model.relaxed(1)

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


def test_validate_sequence_ok():
    report = validate_sequence(RELAXED_1, standard_state(4, 1), SYMMETRIC_4)
    assert report.ok
    assert report.final_state == standard_state(4, 2)
    assert report.first_bad_index is None
    assert report.length == 9


def test_validate_sequence_failure():
    report = validate_sequence(
        Model.classical(), standard_state(2, 1), [Move(1, 2), Move(1, 2)]
    )
    assert not report.ok
    assert report.first_bad_index == 2
    assert report.reason == "distance-violation"
    assert report.final_state is None


def test_is_symmetric_nine_move_transfer():
    assert is_symmetric(SYMMETRIC_4, 1, 2)
    assert is_symmetric(SYMMETRIC_4, 1, 2, model=RELAXED_1, start=standard_state(4, 1))


def test_is_symmetric_trivial_cases():
    assert is_symmetric([], 1, 2)
    assert is_symmetric([Move(1, 2)], 1, 2)
    # src>aux at the end pairs with tgt>aux, not src>tgt
    assert not is_symmetric([Move(1, 2), Move(1, 3)], 1, 2)


def test_is_symmetric_middle_move_must_be_self_mirrored():
    assert not is_symmetric([Move(1, 3)], 1, 2)
    assert is_symmetric([Move(2, 1)], 1, 2)


def test_is_symmetric_rejects_illegal_replay():
    # palindromic move list that is not legal from the standard state
    seq = [Move(2, 1), Move(1, 2), Move(2, 1)]
    assert is_symmetric(seq, 1, 2)
    assert not is_symmetric(seq, 1, 2, model=RELAXED_1, start=standard_state(2, 1))


def test_is_symmetric_checks_disc_pairing():
    # same peg-pair palindrome, but replayed discs differ at paired slots
    model = Model.relaxed(3)
    seq = [Move(1, 2), Move(1, 2), Move(2, 1), Move(2, 1), Move(1, 2), Move(1, 2)]
    assert is_symmetric(seq, 1, 2)  # on move pairs alone
    assert not is_symmetric(seq, 1, 2, model=model, start=standard_state(3, 1))


def test_is_symmetric_requires_distinct_pegs():
    with pytest.raises(ValueError):
        is_symmetric([], 1, 1)


@given(move_lists(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
def test_mirror_reverse_involution(seq, pegs):
    src, tgt = pegs
    assert mirror_sequence(mirror_sequence(seq, src, tgt), src, tgt) == seq


def test_a_symmetric_outputs_are_symmetric():
    for C in (1, 2, 3):
        for n in range(1, 13):
            seq = a_symmetric(n, C, 1, 2)
            assert is_symmetric(
                seq, 1, 2, model=Model.relaxed(C), start=standard_state(n, 1)
            )


def test_moved_discs():
    assert moved_discs(Model.classical(), standard_state(2, 1), [Move(1, 3), Move(1, 2)]) == [1, 2]
    with pytest.raises(IllegalMoveError) as err:
        moved_discs(Model.classical(), standard_state(2, 1), [Move(2, 1)])
    assert err.value.index == 1


# ---------------------------------------------------------------------------
# projection


def test_projection_of_classical_three_discs():
    seq = classical_solve(3, 1, 2)
    projected = project_out_largest(seq, Model.classical(), standard_state(3, 1))
    assert len(projected) == 6  # the largest disc moves exactly once
    final = validate_sequence(Model.classical(), standard_state(2, 1), projected)
    assert final.ok and final.final_state == standard_state(2, 2)


def test_projection_single_disc():
    assert project_out_largest([Move(1, 2)], Model.classical(), standard_state(1, 1)) == []


def test_projection_of_symmetric_transfer():
    projected = project_out_largest(SYMMETRIC_4, RELAXED_1, standard_state(4, 1))
    assert len(projected) == 8
    assert validate_sequence(RELAXED_1, standard_state(3, 1), projected).ok


def test_projection_rejects_illegal_input():
    with pytest.raises(IllegalMoveError) as err:
        project_out_largest([Move(2, 1)], Model.classical(), standard_state(2, 1))
    assert err.value.index == 1


def test_projection_of_oracle_witnesses():
    for model in (Model.classical(), RELAXED_1, Model.relaxed(2)):
        for n in (2, 3, 4):
            result = bfs_distance(
                model, standard_state(n, 1), GoalPredicate.standard_on(3)
            )
            projected = project_out_largest(
                result.path, model, standard_state(n, 1)
            )
            moved = moved_discs(model, standard_state(n, 1), result.path)
            assert len(result.path) == len(projected) + moved.count(n)


# ---------------------------------------------------------------------------
# blocked-state predicates


def test_lambda_state():
    state = State(((5,), (4,), (2, 3, 1)))
    flags = lambda_predicates(state, 5, 1)
    assert flags.is_lambda and not flags.is_lambda_prime


def test_lambda_prime_state():
    state = State(((), (4, 5), (2, 3, 1)))
    flags = lambda_predicates(state, 5, 1)
    assert flags.is_lambda_prime and not flags.is_lambda


def test_standard_state_is_neither():
    flags = lambda_predicates(standard_state(5, 1), 5, 1)
    assert not flags.is_lambda and not flags.is_lambda_prime


def test_lambda_strict_versus_relaxed():
    # disc n-1 carries a small disc on top: only the relaxed reading accepts
    state = State(((5,), (4, 1), (2, 3)))
    assert not lambda_predicates(state, 5, 1).is_lambda
    assert lambda_predicates(state, 5, 1, strict=False).is_lambda


def test_lambda_prime_strict_versus_relaxed():
    state = State(((), (4, 5, 1), (2, 3)))
    assert not lambda_predicates(state, 5, 1).is_lambda_prime
    assert lambda_predicates(state, 5, 1, strict=False).is_lambda_prime


def test_lambda_predicates_validate_disc_count():
    with pytest.raises(ValueError):
        lambda_predicates(standard_state(4, 1), 5, 1)


def test_lambda_predicates_tiny_states():
    assert lambda_predicates(standard_state(1, 1), 1, 1) == lambda_predicates(
        standard_state(0, 1), 0, 1
    )


def test_lambda_prime_states_need_distance_one():
    # the largest disc rests directly on its predecessor: illegal
    # classically, legal from distance 1 up
    from hanoilab.model import is_legal_state

    state = State(((), (4, 5), (3, 2, 1)))
    assert lambda_predicates(state, 5, 1).is_lambda_prime
    assert not is_legal_state(Model.classical(), state)
    assert is_legal_state(RELAXED_1, state)


def _placements(n):
    """Every placement of discs 1..n on the three pegs, in any stack order."""
    for pegs in itertools.product(PEGS, repeat=n):
        piles = [[d for d, p in enumerate(pegs, 1) if p == peg] for peg in PEGS]
        yield from map(State, itertools.product(*map(itertools.permutations, piles)))


@pytest.mark.parametrize("n", range(6))
def test_lambda_predicates_match_the_reference(n):
    for state in _placements(n):
        for initial in PEGS:
            for strict in (True, False):
                got = lambda_predicates(state, n, initial, strict=strict)
                assert got == reference_lambda_predicates(state, n, initial, strict=strict)


# ---------------------------------------------------------------------------
# claim harnesses


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        claim_harness("no-such-suite")


@pytest.mark.parametrize(
    "name, key",
    [
        ("eq3-vs-oracle", "distances"),
        ("claim51-inequality", "distance"),
        ("dn-negative", "distance"),
        ("symmetric-odd", "distance"),
        ("symmetric-equals-a", "k_values"),
    ],
)
def test_suite_rejects_a_parameter_it_does_not_read(name, key):
    # a report must not claim a check made at a setting the suite never read
    with pytest.raises(ValueError, match=rf"{name}.*{key}.*n_max"):
        claim_harness(name, {"n_max": 3, key: 2})


@pytest.mark.parametrize(
    "name, empty, smallest",
    [
        ("eq3-vs-oracle", {"n_max": 0}, {"n_max": 1}),
        ("claim51-inequality", {"k_values": ()}, {"k_values": (2,), "n_max": 3}),
        ("claim51-inequality", {"n_max": 2}, {"n_max": 3}),
        ("dn-negative", {"n_max": 1}, {"n_max": 2}),
        ("symmetric-odd", {"n_max": 0}, {"n_max": 1}),
        ("symmetric-odd", {"distances": ()}, {"distances": (1,)}),
        ("symmetric-equals-a", {"n_max": 0}, {"n_max": 1}),
    ],
)
def test_suite_that_checks_no_case_is_refused(name, empty, smallest):
    # a report with no counterexample from empty loops checked nothing
    with pytest.raises(ValueError, match=rf"{name}.*no case.*{next(iter(empty))}"):
        claim_harness(name, empty)
    assert claim_harness(name, smallest).passed


def test_symmetric_suites_report_each_failed_case(monkeypatch):
    # even lengths 2n fail both claims at every n, in loop order
    monkeypatch.setattr(verify, "_symmetric_length", lambda C, n, max_states: 2 * n)
    odd = claim_harness("symmetric-odd", {"distances": (1, 2), "n_max": 2})
    assert not odd.passed
    assert odd.counterexamples == tuple(
        {"distance": C, "n": n, "length": 2 * n} for C in (1, 2) for n in (1, 2)
    )
    equal = claim_harness("symmetric-equals-a", {"n_max": 3})
    assert equal.params == {"distance": 1, "n_max": 3}
    assert equal.counterexamples == tuple(
        {"distance": 1, "n": n, "length": 2 * n, "expected": a} for n, a in ((1, 1), (2, 3), (3, 5))
    )


def test_eq3_vs_oracle_passes():
    report = claim_harness("eq3-vs-oracle", {"n_max": 6})
    assert report.passed and not report.counterexamples


def test_claim51_inequality_passes():
    report = claim_harness("claim51-inequality")
    assert report.passed
    assert report.params["k_values"] == [2, 3, 4, 5]
    assert report.params["n_max"] == 60


def test_dn_negative_passes():
    assert claim_harness("dn-negative").passed


def test_symmetric_suites_pass_at_full_defaults():
    # parity claim asserted across distances 1..3 up to 7 discs; a
    # counterexample would fail the suite here
    assert claim_harness("symmetric-odd").passed
    assert claim_harness("symmetric-equals-a").passed


def test_harness_report_json_schema(capsys, monkeypatch):
    # `verify --suite relaxed` writes the one report it is handed
    monkeypatch.setattr(
        "hanoilab.verify.claim_harness",
        lambda name, params, *, max_states: claim_harness("dn-negative", {"n_max": 10}),
    )
    assert run(["verify", "--suite", "relaxed", "--format", "json"]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert set(payload) == {"suite", "params", "pass", "counterexamples"}
    assert payload["suite"] == "dn-negative"
    assert payload["pass"] is True
    assert payload["counterexamples"] == []
