"""Exact recurrences, quadratic-field closed forms, root isolation, and
minimal recurrences by Berlekamp-Massey."""

import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilab import cli, recurrence
from hanoilab.model import (
    GRAPH_CLASSES,
    MoveGraph,
    all_strongly_connected_graphs,
    class_relabelings,
)
from hanoilab.recurrence import (
    CHORD_GRAPH,
    CYCLE_GRAPH,
    FIVE_EDGE_GRAPH,
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
    growth_table,
    minimal_recurrence,
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


def test_table_check_computes_each_root_power_once_per_n(capsys, monkeypatch):
    # the six columns of a sqrt(d) class share r^n at each n of rows 0..10
    powers = Counter()
    power = QuadValue.__pow__
    monkeypatch.setattr(
        QuadValue, "__pow__", lambda x, e: powers.update([(x, e)]) or power(x, e)
    )
    recurrence._root_power.cache_clear()
    for edges in ("1>2,2>3,3>1", "1>2,1>3,2>3,3>1"):  # cycle, cycle-chord
        assert cli.run(["table", "--model", "digraph", "--edges", edges, "--n", "12"]) == 0
    assert capsys.readouterr().out.count("closed_form[") == 2
    assert sorted((x.d, e, k) for (x, e), k in powers.items()) == [
        (d, n, 1) for d in (3, 17) for n in range(11)
    ]


S3, S17 = QuadValue.sqrt(3), QuadValue.sqrt(17)
PHI_PLUS, PHI_MINUS = (1 + S17) / 2, (1 - S17) / 2
HALF = Fraction(1, 2)


def _cycle_form(b):
    # (b + sqrt3)/(2 sqrt3) * (1 + sqrt3)^n - (b - sqrt3)/(2 sqrt3) * (1 - sqrt3)^n - 1
    return -1, [(b + S3) / (2 * S3), 1 + S3, -(b - S3) / (2 * S3), 1 - S3]


def _chord_form(alpha, b, c, den):
    return alpha, [(b + c * S17) / (den * S17), PHI_PLUS, -(b - c * S17) / (den * S17), PHI_MINUS]


#: Each class graph's closed forms as [alpha, beta1, r1, beta2, r2, ...] with
#: count(n) = alpha + sum beta*r^n; chord column (3, 1) is 0 at n = 0.
EXPONENTIAL_FORMS = {
    "complete": {pair: (-1, [1, 2]) for pair in PAIR_ORDER},
    "linear": {
        pair: (-1, [1, 3]) if pair in {(2, 3), (3, 2)} else (-HALF, [HALF, 3])
        for pair in PAIR_ORDER
    },
    "cycle": {
        **dict.fromkeys([(1, 2), (2, 3), (3, 1)], _cycle_form(1)),
        **dict.fromkeys([(2, 1), (3, 2), (1, 3)], _cycle_form(2)),
    },
    "cycle-chord": {
        **dict.fromkeys([(1, 2), (2, 3)], _chord_form(Fraction(-3, 4), 11, 3, 8)),
        **dict.fromkeys([(2, 1), (3, 2)], _chord_form(Fraction(-5, 4), 21, 5, 8)),
        (1, 3): _chord_form(-HALF, 5, 1, 4),
        (3, 1): _chord_form(Fraction(-3, 2), 4, 1, 2),
    },
}


def _first_mismatch(name, pair, form, n_max=10):
    """The first n <= n_max at which `form` misses the class graph's count."""
    alpha, terms = form
    column = eval_move_counts(GRAPH_CLASSES[name][0], n_max).column(pair)
    for n, count in enumerate(column):
        if (name, pair, n) == ("cycle-chord", (3, 1), 0):
            continue  # the n = 0 piece, which the closed form fixes at 0
        if sum((beta * r**n for beta, r in zip(terms[::2], terms[1::2])), alpha) != count:
            return n
    return None


@pytest.mark.parametrize("name", EXPONENTIAL_FORMS)
def test_a_mutated_closed_form_coefficient_fails_by_n_10(name):
    # `table` checks its closed form on rows 0..10 only (the order bound in
    # `closed_form_for`); a wrong coefficient must show there
    for pair, (alpha, terms) in EXPONENTIAL_FORMS[name].items():
        assert _first_mismatch(name, pair, (alpha, terms), 40) is None
        mutants = [(alpha + Fraction(1, 1000), terms)] + [
            (alpha, [*terms[:k], terms[k] + Fraction(1, 1000), *terms[k + 1 :]])
            for k in range(len(terms))
        ]
        for mutant in mutants:
            assert _first_mismatch(name, pair, mutant) is not None, (pair, mutant)


def _row_step_matrix(graph):
    """The 7x7 integer matrix taking (six counts in PAIR_ORDER, 1) at n - 1
    discs to n discs: counts(i,k) + counts(k,j) + 1 on an edge i>j (k the
    third peg), 2*counts(i,j) + counts(j,i) + 2 off one."""
    index = {pair: c for c, pair in enumerate(PAIR_ORDER)}
    matrix = [[0] * 7 for _ in range(6)] + [[0] * 6 + [1]]
    for (i, j), c in index.items():
        k = 6 - i - j
        if graph.has_edge(i, j):
            matrix[c][index[i, k]] += 1
            matrix[c][index[k, j]] += 1
            matrix[c][6] = 1
        else:
            matrix[c][index[i, j]] += 2
            matrix[c][index[j, i]] += 1
            matrix[c][6] = 2
    return matrix


def _characteristic_polynomial(matrix):
    """det(xI - matrix), highest degree first, by Faddeev-LeVerrier."""
    size = len(matrix)
    coefficients, m = [1], [[0] * size for _ in range(size)]
    for k in range(1, size + 1):
        m = [
            [
                sum(matrix[r][t] * m[t][c] for t in range(size)) + coefficients[-1] * (r == c)
                for c in range(size)
            ]
            for r in range(size)
        ]
        trace = sum(matrix[r][t] * m[t][r] for r in range(size) for t in range(size))
        coefficients.append(Fraction(-trace, k))
    return tuple(coefficients)


def _remainder(dividend, divisor):
    """`dividend` modulo the monic `divisor`, both highest degree first."""
    rest = list(dividend)
    while len(rest) >= len(divisor):
        lead = rest.pop(0)
        for k, c in enumerate(divisor[1:]):
            rest[k] -= lead * c
    return rest


@pytest.mark.parametrize("name", GRAPH_CLASSES)
def test_every_column_recurrence_divides_the_row_step_polynomial(name):
    # the premise of the order bound in `closed_form_for`
    graph = GRAPH_CLASSES[name][0]
    matrix = _row_step_matrix(graph)
    vector, table = [0] * 6 + [1], eval_move_counts(graph, 40)
    for n in range(41):
        assert tuple(vector[:6]) == tuple(table.value(pair, n) for pair in PAIR_ORDER)
        vector = [sum(a * v for a, v in zip(row, vector)) for row in matrix]
    polynomial = _characteristic_polynomial(matrix)
    assert len(polynomial) == 8 and all(c.denominator == 1 for c in polynomial)
    if name == "cycle":
        assert polynomial == (1, -7, 18, -20, 5, 9, -8, 2)
    for pair in PAIR_ORDER:
        minimal, _ = minimal_recurrence(table.column(pair))
        assert not any(_remainder(polynomial, minimal)), (pair, minimal)


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


def test_ab_columns_and_forms_follow_one_cubic():
    # the premise of the three-term proof in `ab_closed_form`: both columns
    # of conjecture_values(n, 1) and both sqrt(2) forms follow
    # (x - 1)(x^2 - 2), u(n) = u(n-1) + 2*u(n-2) - 2*u(n-3), from n = 3
    n_max = 60
    a, b = conjecture_values(n_max, 1)
    forms = [[ab_closed_form(n, which) for n in range(n_max + 1)] for which in "ab"]
    for u in (a, b, *forms):
        for n in range(3, n_max + 1):
            assert u[n] == u[n - 1] + 2 * u[n - 2] - 2 * u[n - 3], n
    assert minimal_recurrence(a) == ((1, -1, -2, 2), n_max + 1 - 6)
    assert minimal_recurrence(b) == ((1, -1, -2, 2), n_max + 1 - 6)
    # so agreement on n = 0, 1, 2 decides every n
    assert [[form.as_integer() for form in u[:3]] for u in forms] == [a[:3], b[:3]] == [
        [0, 1, 3],
        [0, 1, 2],
    ]


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


def test_eval_poly_is_exact():
    assert eval_poly((1, -1, -4, 2), Fraction(2)) == -2
    assert eval_poly((1, -1, -4, 2), Fraction(1, 2)) == Fraction(-1, 8)


# ---------------------------------------------------------------------------
# minimal recurrences and growth


def times(*factors):
    """Product of polynomials, coefficients highest degree first."""
    product = (1,)
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = tuple(out)
    return product


def run(polynomial, initial, count):
    """`count` terms of the recurrence with characteristic `polynomial`
    (monic, highest degree first) from the given initial terms."""
    terms = list(initial)
    while len(terms) < count:
        terms.append(-sum(c * terms[-k] for k, c in enumerate(polynomial[1:], 1)))
    return terms[:count]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda order: st.tuples(
            st.lists(st.integers(-6, 6), min_size=order, max_size=order),
            st.lists(st.integers(-50, 50), min_size=order, max_size=order),
        )
    )
)
def test_minimal_recurrence_recovers_drawn_integer_recurrences(drawn):
    coefficients, initial = drawn
    order = len(coefficients)
    polynomial = (1, *coefficients)
    # from the impulse 0, ..., 0, 1 the drawn recurrence is the minimal one,
    # settled by 2 spare terms and not before
    impulse = [0] * (order - 1) + [1] if order else []
    terms = run(polynomial, impulse, 2 * order + 2)
    assert minimal_recurrence(terms) == (polynomial, 2)
    assert minimal_recurrence(terms[:-1])[1] < 2
    # from any start the minimal recurrence is no longer and generates
    # every term
    terms = run(polynomial, initial, 2 * order + 6)
    found, spare = minimal_recurrence(terms)
    assert len(found) <= len(polynomial) and found[0] == 1
    assert spare == len(terms) - 2 * (len(found) - 1)
    assert run(found, terms[: len(found) - 1], len(terms)) == terms


def test_minimal_recurrence_of_too_few_terms_is_not_settled():
    assert minimal_recurrence([]) == ((1,), 0)
    assert minimal_recurrence([0, 0, 0]) == ((1,), 3)
    # every prefix of a class column shorter than 2 * order + 2 reports
    # fewer than 2 spare terms
    for name, (graph, _) in GRAPH_CLASSES.items():
        for column in eval_move_counts(graph, 40).counts.values():
            order = len(minimal_recurrence(column)[0]) - 1
            for m in range(2 * order + 2):
                assert minimal_recurrence(column[:m])[1] < 2, (name, m)
    # rational coefficients where the terms ask for them
    assert minimal_recurrence([2, 1, Fraction(1, 2), Fraction(1, 4)]) == ((1, Fraction(-1, 2)), 2)


@pytest.fixture(scope="module")
def growth():
    return growth_table(Fraction(1, 10**12))


def test_growth_table_derives_every_class_polynomial(growth):
    expected = {
        "complete": times((1, -1), (1, -2)),
        "cycle": times((1, -1), (1, -2, -2)),
        "linear": times((1, -1), (1, -3)),
        "cycle-chord": times((1, -1), (1, -1, -4)),
        "five-edge": times((1, -1), (1, -1, -4, 2)),
    }
    # the (3, 1) chord column is 0 at n = 0 outside its closed form: a factor
    # x; the (1, 2) five-edge column needs no factor x - 1
    exceptions = {
        ("cycle-chord", (3, 1)): times(expected["cycle-chord"], (1, 0)),
        ("five-edge", (1, 2)): (1, -1, -4, 2),
    }
    assert len(growth) == 30
    for (name, pair), (spare, root) in growth.items():
        assert root.coefficients == exceptions.get((name, pair), expected[name])
        assert spare == 41 - 2 * (len(root.coefficients) - 1) >= 2
        assert root.width <= Fraction(1, 10**12)


def test_growth_table_dominant_roots(growth):
    for pair in PAIR_ORDER:
        assert growth["complete", pair][1][:2] == (2, 2)
        assert growth["linear", pair][1][:2] == (3, 3)
        cycle = growth["cycle", pair][1]  # 1 + sqrt(3)
        assert (cycle.lo - 1) ** 2 <= 3 <= (cycle.hi - 1) ** 2
        chord = growth["cycle-chord", pair][1]  # (1 + sqrt(17)) / 2
        assert (2 * chord.lo - 1) ** 2 <= 17 <= (2 * chord.hi - 1) ** 2
        five_edge = growth["five-edge", pair][1]
        assert round(float(five_edge), 7) == 2.3429231


def test_growth_table_rows_hold_for_every_labeling(growth):
    # a relabeling sigma maps each graph onto its class graph, and the
    # column (i, j) onto the class column (sigma[i], sigma[j])
    for graph in all_strongly_connected_graphs():
        name, (sigma, *_) = class_relabelings(graph)
        for pair, column in eval_move_counts(graph, 40).counts.items():
            image = (sigma[pair[0]], sigma[pair[1]])
            spare, root = growth[name, image]
            assert minimal_recurrence(column) == (root.coefficients, spare)


def test_five_edge_growth_is_not_the_reversed_cubic_root(growth):
    # the paper states order ~2.12, the greatest root of the reversed cubic
    # 2x^3 - 4x^2 - x + 1 (the generating function's denominator); the
    # counts grow like the cubic's own greatest root, ~2.34
    root = growth["five-edge", (1, 2)][1]
    assert Fraction(234, 100) <= root.lo <= root.hi <= Fraction(235, 100)
    reversed_root = bisect_root(root.coefficients[::-1], 2, 3, Fraction(1, 10**9))
    assert Fraction(211, 100) <= reversed_root.midpoint <= Fraction(213, 100)
    column = eval_move_counts(FIVE_EDGE_GRAPH, 40).column((2, 1))
    ratio = Fraction(column[40], column[39])
    assert abs(ratio - root.midpoint) < Fraction(1, 1000)
    assert abs(ratio - reversed_root.midpoint) > Fraction(1, 10)


def test_growth_ratio_error_eventually_decreases(growth):
    # consecutive-ratio error against the dominant root shrinks
    # monotonically from some n at or before 20
    root = growth["five-edge", (2, 1)][1].midpoint
    column = eval_move_counts(FIVE_EDGE_GRAPH, 40).column((2, 1))
    errors = [abs(Fraction(column[n], column[n - 1]) - root) for n in range(2, 41)]
    tail_start = None
    for idx in range(len(errors) - 1):
        if all(a > b for a, b in zip(errors[idx:], errors[idx + 1 :])):
            tail_start = idx + 2  # errors[idx] is for n = idx + 2
            break
    assert tail_start is not None and tail_start <= 20


def test_growth_validations():
    with pytest.raises(ValueError):
        growth_table(0)
