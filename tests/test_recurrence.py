"""Exact recurrences, quadratic-field closed forms, and root isolation."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilab.model import MoveGraph
from hanoilab.recurrence import (
    CHORD_GRAPH,
    CYCLE_GRAPH,
    FIVE_EDGE_DENOMINATOR_CUBIC,
    FIVE_EDGE_GRAPH,
    FIVE_EDGE_RECIPROCAL_CUBIC,
    LINEAR_GRAPH,
    PAIR_ORDER,
    QuadValue,
    ab_closed_form,
    bisect_root,
    closed_form_chord,
    closed_form_cycle,
    closed_form_linear,
    conjecture_values,
    eval_move_counts,
    eval_poly,
    growth_rate_5edge,
    q_lengths,
)

rationals = st.fractions(
    max_denominator=50,
    min_value=Fraction(-50),
    max_value=Fraction(50),
)


def quad(d):
    return st.builds(lambda a, b: QuadValue(a, b, d), rationals, rationals)


# ---------------------------------------------------------------------------
# QuadValue


def test_quadvalue_basic_identity():
    s3 = QuadValue.sqrt(3)
    assert (1 + s3) * (1 - s3) == -2


def test_quadvalue_integer_detection():
    v = QuadValue(Fraction(7), Fraction(0), 2)
    assert v.is_integer and v.as_integer() == 7
    with pytest.raises(ValueError):
        QuadValue.sqrt(2).as_integer()


def test_quadvalue_rejects_bad_radicand():
    with pytest.raises(ValueError):
        QuadValue(Fraction(1), Fraction(1), 4)
    with pytest.raises(ValueError):
        QuadValue(Fraction(1), Fraction(1), 1)


def test_quadvalue_rejects_mixed_radicands():
    with pytest.raises(ValueError):
        QuadValue.sqrt(2) + QuadValue.sqrt(3)


def test_quadvalue_division():
    s17 = QuadValue.sqrt(17)
    x = (3 + 2 * s17) / (5 - s17)
    assert x * (5 - s17) == 3 + 2 * s17
    with pytest.raises(ZeroDivisionError):
        s17 / QuadValue(Fraction(0), Fraction(0), 17)


@given(quad(3), quad(3), quad(3))
def test_quadvalue_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(quad(2))
def test_quadvalue_conjugate_norm(x):
    norm = x * x.conjugate()
    assert norm == QuadValue(x.a * x.a - 2 * x.b * x.b, Fraction(0), 2)


@given(quad(17), quad(17))
def test_quadvalue_division_inverts_multiplication(x, y):
    if y.a == 0 and y.b == 0:
        return
    assert (x / y) * y == x


RADICANDS = (2, 3, 17)

#: operands the field arithmetic accepts besides QuadValue
scalars = st.one_of(st.integers(-30, 30), rationals)


def _ref(x):
    """(a, b) of a QuadValue, int or Fraction as the Fraction reference."""
    if isinstance(x, QuadValue):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def _ref_mul(x, y, d):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2


def _ref_div(x, y, d):
    a2, b2 = y
    norm = a2 * a2 - d * b2 * b2
    return _ref_mul(x, (a2 / norm, -b2 / norm), d)


def _assert_is(value, ref, d):
    """`value` is the field element `ref` = (a, b), in lowest terms."""
    a, b = ref
    assert isinstance(value, QuadValue) and value.d == d
    assert (value.a, value.b) == (a, b)
    assert value == QuadValue(a, b, d)
    assert hash(value) == hash(QuadValue(a, b, d))
    assert repr(value) == f"QuadValue({a}, {b}, d={d})"
    if b == 0:
        assert value == a and hash(value) == hash(a)
        assert value.is_rational and value.is_integer == (a.denominator == 1)
    else:
        assert value != a and not value.is_rational


@settings(max_examples=300)
@given(st.data(), st.sampled_from(RADICANDS))
def test_quadvalue_matches_fraction_pair_reference(data, d):
    x = data.draw(quad(d))
    other = data.draw(st.one_of(quad(d), scalars))
    rx, ro = _ref(x), _ref(other)
    _assert_is(x, rx, d)
    _assert_is(x + other, (rx[0] + ro[0], rx[1] + ro[1]), d)
    _assert_is(other + x, (rx[0] + ro[0], rx[1] + ro[1]), d)
    _assert_is(x - other, (rx[0] - ro[0], rx[1] - ro[1]), d)
    _assert_is(other - x, (ro[0] - rx[0], ro[1] - rx[1]), d)
    _assert_is(-x, (-rx[0], -rx[1]), d)
    _assert_is(x * other, _ref_mul(rx, ro, d), d)
    _assert_is(other * x, _ref_mul(rx, ro, d), d)
    _assert_is(x.conjugate(), (rx[0], -rx[1]), d)
    if ro == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x / other
    else:
        _assert_is(x / other, _ref_div(rx, ro, d), d)
    if rx == (0, 0):
        with pytest.raises(ZeroDivisionError):
            other / x
    else:
        _assert_is(other / x, _ref_div(ro, rx, d), d)
    power = (Fraction(1), Fraction(0))
    for e in range(6):
        _assert_is(x**e, power, d)
        power = _ref_mul(power, rx, d)


@given(quad(3))
def test_quadvalue_zero_and_sign_normalisation(x):
    zero = x - x
    _assert_is(zero, (Fraction(0), Fraction(0)), 3)
    assert zero == 0 and hash(zero) == hash(0) == hash(QuadValue(0, 0, 3))
    # a negative divisor moves its sign to the numerator terms
    _assert_is(x / -2, (x.a / -2, x.b / -2), 3)
    _assert_is(x / Fraction(-3, 4), (x.a * Fraction(-4, 3), x.b * Fraction(-4, 3)), 3)
    _assert_is(x * 0, (Fraction(0), Fraction(0)), 3)


def test_quadvalue_equality_hash_and_immutability():
    assert QuadValue(Fraction(6, 4), 0, 2) == Fraction(3, 2)
    assert hash(QuadValue(Fraction(6, 4), 0, 2)) == hash(Fraction(3, 2))
    assert QuadValue(7, 0, 2) == 7 and hash(QuadValue(7, 0, 2)) == hash(7)
    assert QuadValue(1, 1, 2) != QuadValue(1, 1, 3)  # other field, not an error
    assert QuadValue(1, 0, 2) != "1"
    assert len({QuadValue(Fraction(2, 4), 1, 3), QuadValue(Fraction(1, 2), 1, 3)}) == 1
    v = QuadValue(1, 2, 5)
    with pytest.raises(AttributeError):
        v.a = Fraction(3)
    with pytest.raises(AttributeError):
        v.d = 7
    with pytest.raises(AttributeError):
        v.extra = 1
    assert str(QuadValue(Fraction(-1, 2), 3, 5)) == "-1/2 + 3*sqrt(5)"
    assert float(QuadValue(1, 1, 2)) == 1 + 2**0.5
    with pytest.raises(ValueError):
        QuadValue.sqrt(2) * QuadValue.sqrt(3)
    with pytest.raises(ValueError):
        QuadValue.sqrt(2) ** -1
    with pytest.raises(TypeError):  # floats are not field elements
        QuadValue.sqrt(2) + 1.5
    assert pickle.loads(pickle.dumps(v)) == v


# ---------------------------------------------------------------------------
# CountTable


def test_complete_graph_counts_are_classical():
    table = eval_move_counts(MoveGraph.complete(), 12)
    for pair in PAIR_ORDER:
        assert table.column(pair) == tuple(2**n - 1 for n in range(13))


def test_five_edge_single_step():
    table = eval_move_counts(FIVE_EDGE_GRAPH, 6)
    # with the edge 2>1 missing, the recurrence doubles and detours
    assert table.value((2, 1), 1) == 2
    assert table.value((2, 1), 2) == 7
    assert table.column((2, 1))[:7] == (0, 2, 7, 19, 47, 113, 267)


def test_cycle_single_disc_against_direction():
    table = eval_move_counts(CYCLE_GRAPH, 1)
    assert table.value((2, 1), 1) == 2  # 2 -> 3 -> 1


def test_counts_start_at_zero_and_grow():
    for graph in (CYCLE_GRAPH, LINEAR_GRAPH, CHORD_GRAPH, FIVE_EDGE_GRAPH):
        table = eval_move_counts(graph, 20)
        for pair in PAIR_ORDER:
            column = table.column(pair)
            assert column[0] == 0
            assert all(a <= b for a, b in zip(column, column[1:]))


def test_eval_move_counts_requires_strong_connectivity():
    with pytest.raises(ValueError):
        eval_move_counts(MoveGraph.parse("1>2,2>1"), 3)


# ---------------------------------------------------------------------------
# closed forms


def test_cycle_closed_form_spot_values():
    assert closed_form_cycle((2, 1), 1).as_integer() == 2
    assert closed_form_cycle((1, 2), 1).as_integer() == 1
    assert closed_form_cycle((1, 2), 2).as_integer() == 5


def test_cycle_closed_form_matches_recurrence_exactly():
    table = eval_move_counts(CYCLE_GRAPH, 30)
    for pair in PAIR_ORDER:
        for n in range(31):
            value = closed_form_cycle(pair, n)
            assert value.is_integer  # sqrt(3) parts cancel exactly
            assert value.as_integer() == table.value(pair, n)


def test_linear_closed_form_spot_values():
    assert closed_form_linear((2, 3), 3) == 26
    assert closed_form_linear((1, 2), 3) == 13
    assert all(closed_form_linear(pair, 0) == 0 for pair in PAIR_ORDER)


def test_linear_closed_form_matches_recurrence_exactly():
    table = eval_move_counts(LINEAR_GRAPH, 30)
    for pair in PAIR_ORDER:
        for n in range(31):
            assert closed_form_linear(pair, n) == table.value(pair, n)


def test_chord_closed_form_spot_values():
    assert closed_form_chord((3, 1), 0).as_integer() == 0  # piecewise branch
    assert closed_form_chord((1, 3), 1).as_integer() == 1
    assert closed_form_chord((3, 2), 1).as_integer() == 2


def test_chord_closed_form_matches_recurrence_exactly():
    table = eval_move_counts(CHORD_GRAPH, 30)
    for pair in PAIR_ORDER:
        for n in range(31):
            value = closed_form_chord(pair, n)
            assert value.is_integer  # sqrt(17) parts cancel exactly
            assert value.as_integer() == table.value(pair, n)


def test_closed_forms_reject_bad_input():
    with pytest.raises(ValueError):
        closed_form_cycle((1, 1), 2)
    with pytest.raises(ValueError):
        closed_form_cycle((1, 2), -1)
    with pytest.raises(ValueError):
        closed_form_linear((1, 1), 2)
    with pytest.raises(ValueError):
        closed_form_chord((2, 2), 2)


def test_ab_closed_form_spot_values():
    assert ab_closed_form(0).as_integer() == 0
    assert ab_closed_form(3).as_integer() == 5
    assert ab_closed_form(4).as_integer() == 9


def test_ab_closed_form_matches_recurrence():
    a, b = conjecture_values(40, 1)
    for n in range(41):
        assert ab_closed_form(n, "a").as_integer() == a[n]
        assert ab_closed_form(n, "b").as_integer() == b[n]
    with pytest.raises(ValueError):
        ab_closed_form(3, "c")


# ---------------------------------------------------------------------------
# conjectured recurrences


def test_conjecture_values_distance_two():
    a, b = conjecture_values(6, 2)
    assert b[3] == 3 and b[4] == 5 and b[6] == 9
    assert a[4] == 7


def test_conjecture_values_distance_one_matches_proven_system():
    a, b = conjecture_values(9, 1)
    assert a == [0, 1, 3, 5, 9, 13, 21, 29, 45, 61]
    assert b == [0, 1, 2, 4, 6, 10, 14, 22, 30, 46]


@pytest.mark.parametrize("C", (1, 2, 3, 4, 5))
def test_conjecture_values_base_case(C):
    _, b = conjecture_values(C + 1, C)
    assert b == list(range(C + 2))


def test_q_lengths_distance_two():
    assert q_lengths(8, 2) == [0, 1, 2, 3, 9, 12, 15, 25, 32]


# ---------------------------------------------------------------------------
# root isolation and growth


def test_bisect_root_sqrt_two():
    bracket = bisect_root((1, 0, -2), 1, 2, Fraction(1, 10**9))
    assert bracket.width <= Fraction(1, 10**9)
    assert bracket.lo**2 <= 2 <= bracket.hi**2


def test_bisect_root_validations():
    with pytest.raises(ValueError):
        bisect_root((1, 0, -2), 1, 2, 0)
    with pytest.raises(ValueError):
        bisect_root((1, 0, -2), 2, 3, Fraction(1, 100))  # no sign change
    with pytest.raises(ValueError):
        bisect_root((1, 0, -2), 2, 1, Fraction(1, 100))


def test_cubics_change_sign_on_bracket():
    for cubic in (FIVE_EDGE_DENOMINATOR_CUBIC, FIVE_EDGE_RECIPROCAL_CUBIC):
        assert eval_poly(cubic, Fraction(2)) < 0 < eval_poly(cubic, Fraction(3))


def test_growth_report_roots():
    report = growth_rate_5edge(Fraction(1, 10**6))
    assert Fraction(211, 100) <= report.denominator_root.midpoint <= Fraction(213, 100)
    assert report.denominator_root.width <= Fraction(1, 10**6)
    assert Fraction(234, 100) <= report.reciprocal_root.midpoint <= Fraction(235, 100)


def test_growth_ratio_matches_reciprocal_root():
    report = growth_rate_5edge(Fraction(1, 10**9))
    assert report.error_vs_reciprocal < 1e-3
    assert report.error_vs_denominator > 0.1
    assert report.governing == "reciprocal"
    assert not report.matches_denominator_root


def test_growth_ratio_error_eventually_decreases():
    # consecutive-ratio error against the governing root shrinks
    # monotonically from some n at or before 20
    root = bisect_root(FIVE_EDGE_RECIPROCAL_CUBIC, 2, 3, Fraction(1, 10**12)).midpoint
    errors = []
    from hanoilab.recurrence import eval_move_counts as emc

    column = emc(FIVE_EDGE_GRAPH, 40).column((2, 1))
    for n in range(2, 41):
        errors.append(abs(Fraction(column[n], column[n - 1]) - root))
    tail_start = None
    for idx in range(len(errors) - 1):
        if all(a > b for a, b in zip(errors[idx:], errors[idx + 1 :])):
            tail_start = idx + 2  # errors[idx] is for n = idx + 2
            break
    assert tail_start is not None and tail_start <= 20


def test_growth_validations():
    with pytest.raises(ValueError):
        growth_rate_5edge(0)
    with pytest.raises(ValueError):
        growth_rate_5edge(Fraction(1, 100), ratio_n=1)
