"""Closed forms of the move counts, and the growth of every count column.

The counts themselves are integer recurrences and live in `solvers`
(`move_count_rows`, `eval_move_counts`, `conjecture_values`, `q_lengths`),
so `conjecture` and `verify` read them without running this module or
importing `fractions`; this module re-exports them as the same objects.
Closed forms are evaluated in exact quadratic fields (numbers a + b*sqrt(d)
with rational a, b, each a `Fraction`), so every equality check is exact:
move counts grow exponentially and floating point would mask errors at the
sizes we verify.

The five named graphs below are the labeled graphs of the classes in
`hanoilab.model.GRAPH_CLASSES`, for which the closed forms are written.
Four classes have closed forms, and `closed_form_for` applies them to
every labeling by relabeling the pegs.  For all five, `growth_table`
derives each column's minimal recurrence from its terms by exact
Berlekamp-Massey (`minimal_recurrence`) and brackets its dominant root.
An order bound (`closed_form_for`) proves both for every n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Literal, NamedTuple, Sequence

from .model import GRAPH_CLASSES, MoveGraph, class_relabelings
from .solvers import (  # the integer counts, re-exported as the same objects
    PAIR_ORDER,
    CountTable,
    conjecture_values,
    eval_move_counts,
    move_count_rows,
    q_lengths,
)

COMPLETE_GRAPH = GRAPH_CLASSES["complete"][0]
#: Directed cycle 1 -> 2 -> 3 -> 1; sqrt(3) closed forms.
CYCLE_GRAPH = GRAPH_CLASSES["cycle"][0]
#: Two double edges sharing peg 1 (the centre); 3^n closed forms.
LINEAR_GRAPH = GRAPH_CLASSES["linear"][0]
#: Directed cycle plus the reverse chord 1>3; sqrt(17) closed forms.
CHORD_GRAPH = GRAPH_CLASSES["cycle-chord"][0]
#: Complete graph minus the edge 2>1; no closed form, see `growth_table`.
FIVE_EDGE_GRAPH = GRAPH_CLASSES["five-edge"][0]


def _is_square_free(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class QuadValue:
    """Exact number a + b*sqrt(d) with rational a, b and square-free d >= 2.

    `a` and `b` are `Fraction`s, so every value has one representation.
    Arithmetic never leaves the field and mixing radicands raises
    ValueError; equality is exact.  Values with b == 0 compare and hash
    equal to the corresponding int or Fraction.  Values are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int) -> None:
        if not _is_square_free(d):
            raise ValueError(f"radicand must be square-free and >= 2, got {d}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QuadValue, (self.a, self.b, self.d)

    @classmethod
    def sqrt(cls, d: int) -> "QuadValue":
        return cls(0, 1, d)

    @classmethod
    def rational(cls, value: int | Fraction, d: int) -> "QuadValue":
        return cls(value, 0, d)

    def _terms(self, other: object) -> tuple[int | Fraction, int | Fraction] | None:
        """(a, b) of `other` in this field, or None for a foreign type."""
        if isinstance(other, QuadValue):
            if other.d != self.d:
                raise ValueError(f"mixed radicands {self.d} and {other.d}")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    def __add__(self, other: object) -> "QuadValue":
        t = self._terms(other)
        if t is None:
            return NotImplemented
        return QuadValue(self.a + t[0], self.b + t[1], self.d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadValue":
        t = self._terms(other)
        if t is None:
            return NotImplemented
        return QuadValue(self.a - t[0], self.b - t[1], self.d)

    def __rsub__(self, other: object) -> "QuadValue":
        t = self._terms(other)
        if t is None:
            return NotImplemented
        return QuadValue(t[0] - self.a, t[1] - self.b, self.d)

    def __neg__(self) -> "QuadValue":
        return QuadValue(-self.a, -self.b, self.d)

    def __mul__(self, other: object) -> "QuadValue":
        t = self._terms(other)
        if t is None:
            return NotImplemented
        p, q = t
        return QuadValue(self.a * p + self.d * self.b * q, self.a * q + self.b * p, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadValue":
        t = self._terms(other)
        if t is None:
            return NotImplemented
        p, q = t
        # multiply by (p - q*sqrt(d)) / norm, norm = p^2 - d*q^2
        norm = Fraction(p * p - self.d * q * q)
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return self * QuadValue(p / norm, -q / norm, self.d)

    def __rtruediv__(self, other: object) -> "QuadValue":
        t = self._terms(other)
        if t is None:
            return NotImplemented
        return QuadValue(*t, self.d) / self

    def __pow__(self, exponent: int) -> "QuadValue":
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        result = QuadValue(1, 0, self.d)
        for bit in bin(exponent)[2:]:  # square and multiply, high bit first
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadValue):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def conjugate(self) -> "QuadValue":
        return QuadValue(self.a, -self.b, self.d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.a.numerator

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"QuadValue({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.d})"


#: The root r of each radicand's closed forms, as (a, b) of a + b*sqrt(d).
_ROOTS = {3: (1, 1), 17: (Fraction(1, 2), Fraction(1, 2)), 2: (0, 1)}

#: Every sqrt(d) closed form is alpha + beta*r^n + conj(beta*r^n), with
#: beta = (u + v*sqrt(d)) / (w*sqrt(d)): (alpha, u, v, w) by radicand, for
#: the cycle's columns, the cycle-chord's and the distance-1 a(n).
_COEFFICIENTS = {
    3: {
        **dict.fromkeys([(1, 2), (2, 3), (3, 1)], (-1, 1, 1, 2)),
        **dict.fromkeys([(2, 1), (3, 2), (1, 3)], (-1, 2, 1, 2)),
    },
    17: {
        **dict.fromkeys([(1, 2), (2, 3)], (Fraction(-3, 4), 11, 3, 8)),
        **dict.fromkeys([(2, 1), (3, 2)], (Fraction(-5, 4), 21, 5, 8)),
        (1, 3): (Fraction(-1, 2), 5, 1, 4),
        (3, 1): (Fraction(-3, 2), 4, 1, 2),
    },
    2: {"a": (-3, 4, 3, 2)},
}
#: (alpha, beta) of each form, beta = v/w + u/(w*d) * sqrt(d)
_FORMS = {
    d: {
        key: (alpha, QuadValue(Fraction(v, w), Fraction(u, w * d), d))
        for key, (alpha, u, v, w) in forms.items()
    }
    for d, forms in _COEFFICIENTS.items()
}


@functools.lru_cache(maxsize=32)
def _root_power(d: int, n: int) -> QuadValue:
    """r^n for the root r of the sqrt(d) forms; every column evaluated at
    the same n shares it."""
    return QuadValue(*_ROOTS[d], d) ** n


def _binet(d: int, key: object, n: int) -> QuadValue:
    """The sqrt(d) form at `key` for n: alpha + t + conj(t) with
    t = beta*r^n, so the sqrt(d) parts cancel by construction."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if key not in _FORMS[d]:
        raise ValueError(f"unknown pair {key!r}")
    alpha, beta = _FORMS[d][key]
    term = beta * _root_power(d, n)
    return term + term.conjugate() + alpha


def closed_form_cycle(pair: tuple[int, int], n: int) -> QuadValue:
    """Exact count for the directed-cycle graph, via the sqrt(3) forms.

    Pairs along the cycle direction and pairs against it have different
    leading coefficients; both results are plain integers.
    """
    return _binet(3, tuple(pair), n)


def closed_form_linear(pair: tuple[int, int], n: int) -> int:
    """Exact count for the linear graph (double edges 1-2 and 1-3).

    End-to-end transfers cost 3^n - 1; transfers involving the centre peg
    cost (3^n - 1) / 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if tuple(pair) in {(2, 3), (3, 2)}:
        return 3**n - 1
    if tuple(pair) in {(1, 2), (2, 1), (1, 3), (3, 1)}:
        return (3**n - 1) // 2
    raise ValueError(f"unknown pair {pair!r}")


def closed_form_chord(pair: tuple[int, int], n: int) -> QuadValue:
    """Exact count for the cycle-plus-chord graph, via the sqrt(17) forms.

    The (3, 1) column is piecewise: its expression is valid only for
    n >= 1, with the n = 0 value fixed at 0.
    """
    if n == 0 and tuple(pair) == (3, 1):
        return QuadValue.rational(0, 17)
    return _binet(17, tuple(pair), n)


#: The exact integer count at (pair, n) of each class with closed forms, on
#: the class's graph in `GRAPH_CLASSES`.
_CLOSED_FORMS = {
    "complete": lambda pair, n: 2**n - 1,
    "cycle": lambda pair, n: closed_form_cycle(pair, n).as_integer(),
    "linear": closed_form_linear,
    "cycle-chord": lambda pair, n: closed_form_chord(pair, n).as_integer(),
}


def closed_form_for(graph: MoveGraph) -> tuple[str, Callable[[tuple[int, int], int], int]] | None:
    """``(class name, count(pair, n))`` for any labeling of a class with
    closed forms, else None.  A relabeling sigma maps `graph` onto the
    class's graph, so the count of (i, j) is the closed form at
    (sigma[i], sigma[j]).

    Rows 0..10 decide a closed form for every n.  With a constant seventh
    coordinate `move_count_rows` is a 7x7 integer matrix, so each column
    satisfies its characteristic polynomial, of degree 7 (Cayley-Hamilton).
    A closed form alpha + sum beta*r^n over at most three roots satisfies
    (x - 1) * prod(x - r), times x for chord column (3, 1)'s n = 0 piece:
    degree at most 4.  Their difference satisfies the product, of degree
    at most 11, so it is zero for every n if it is zero for n = 0..10."""
    name, sigmas = class_relabelings(graph) or (None, ())
    if name not in _CLOSED_FORMS:
        return None
    count, sigma = _CLOSED_FORMS[name], sigmas[0]
    return name, lambda pair, n: count((sigma[pair[0]], sigma[pair[1]]), n)


def ab_closed_form(n: int, which: Literal["a", "b"] = "a") -> QuadValue:
    """Exact sqrt(2) closed form for the distance-1 optimal counts.

    ``a(n)`` is the standard-to-standard optimum, ``b(n)`` the
    gather-on-one-peg optimum; they satisfy a(n) = 2*b(n-1) + 1, so b is
    evaluated as (a(n+1) - 1) / 2.

    Both forms equal ``conjecture_values(n, 1)`` for every n once they
    agree for n = 0, 1, 2, by the order bound of `closed_form_for`.  Let
    P = (x - 1)(x^2 - 2) = x^3 - x^2 - 2x + 2: u follows P at n when
    u(n) = u(n-1) + 2*u(n-2) - 2*u(n-3).  At C = 1, b(n) - 2*b(n-2) = 2
    for every n >= 2 (b(0..2) = 0, 1, 2), and the difference of that at n
    and at n - 1 is P's relation: b follows P for n >= 3, from offset 0.
    Then a(n) = 2*b(n-1) + 1 follows P for n >= 4, from offset 1, as
    P(1) = 0 cancels the constant.  a(0) = 0 lies outside that relation,
    but a(3) = a(2) + 2*a(1) - 2*a(0) = 3 + 2 - 0 = 5 holds, so a follows
    P from offset 0 too.  The form alpha + beta*sqrt(2)^n +
    conj(beta)*(-sqrt(2))^n sums powers of P's roots 1, sqrt(2) and
    -sqrt(2), so it follows P for n >= 3, and so does
    (form(n+1) - 1) / 2.  A column minus its form therefore follows P
    from offset 0, and is zero for every n if it is zero for n = 0, 1, 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if which == "b":
        return (_binet(2, "a", n + 1) - 1) / 2
    if which != "a":
        raise ValueError(f"which must be 'a' or 'b', got {which!r}")
    return _binet(2, "a", n)


class RootBracket(NamedTuple):
    """Rational interval [lo, hi] across which the polynomial changes sign."""

    lo: Fraction
    hi: Fraction
    coefficients: tuple[int, ...]  # highest degree first

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint)


def eval_poly(coefficients: tuple[int, ...], x: Fraction) -> Fraction:
    """Horner evaluation with exact rationals."""
    acc = Fraction(0)
    for c in coefficients:
        acc = acc * x + c
    return acc


def bisect_root(
    coefficients: tuple[int, ...],
    lo: Fraction | int,
    hi: Fraction | int,
    tolerance: Fraction | float,
) -> RootBracket:
    """Shrink a sign-changing bracket below `tolerance` by exact bisection."""
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    f_lo, f_hi = eval_poly(coefficients, lo), eval_poly(coefficients, hi)
    if f_lo == 0:
        return RootBracket(lo, lo, tuple(coefficients))
    if f_hi == 0:
        return RootBracket(hi, hi, tuple(coefficients))
    if (f_lo < 0) == (f_hi < 0):
        raise ValueError("no sign change across the bracket")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        f_mid = eval_poly(coefficients, mid)
        if f_mid == 0:
            return RootBracket(mid, mid, tuple(coefficients))
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return RootBracket(lo, hi, tuple(coefficients))


def minimal_recurrence(
    terms: Sequence[int | Fraction],
) -> tuple[tuple[int | Fraction, ...], int]:
    """The minimal characteristic polynomial of `terms` and its spare terms.

    Exact Berlekamp-Massey over Fraction (Massey, IEEE Trans. Inf. Theory
    1969) finds the shortest recurrence a(n) = -c1*a(n-1) - ... - cL*a(n-L)
    that generates every term from the first L; it is returned monic and
    highest degree first, x^L + c1*x^(L-1) + ... + cL, each coefficient an
    int when integral.  A zero cL leaves a factor x: the recurrence holds
    only from n = L.  The first 2L terms fix a recurrence of order L, so
    only the len(terms) - 2L spare terms test it; with fewer than 2 spare
    terms the order is not settled.
    """
    c, b = [Fraction(1)], [Fraction(1)]  # connection polynomials, lowest degree first
    order, shift, last = 0, 1, Fraction(1)
    for n in range(len(terms)):
        discrepancy = sum(ci * terms[n - i] for i, ci in enumerate(c[: n + 1]))
        if discrepancy == 0:
            shift += 1
            continue
        previous, scale = c[:], discrepancy / last
        c += [Fraction(0)] * (len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] -= scale * bi
        if 2 * order <= n:
            order, b, last, shift = n + 1 - order, previous, discrepancy, 1
        else:
            shift += 1
    c = (c + [Fraction(0)] * order)[: order + 1]
    return tuple(x.numerator if x.denominator == 1 else x for x in c), len(terms) - 2 * order


def _greatest_root(coefficients: tuple, tolerance: Fraction | float) -> RootBracket:
    """Bracket the greatest real root of a monic polynomial.

    Every root lies below the Cauchy bound 1 + max|c|; the scan steps down
    from it one unit at a time to the first sign change.  A double root, or
    two roots within one unit above it, would be passed over; the columns
    of the five classes have neither, and the tests pin each root.
    """
    bound = math.ceil(1 + max(map(abs, coefficients[1:]), default=0))
    for lo in range(bound - 1, -bound - 1, -1):
        if eval_poly(coefficients, Fraction(lo)) <= 0:
            return bisect_root(coefficients, lo, lo + 1, tolerance)
    raise ValueError("no real root changes sign")


def growth_table(
    tolerance: Fraction | float,
) -> dict[tuple[str, tuple[int, int]], tuple[int, RootBracket]]:
    """``(spare terms, dominant root)`` of each column (class name, pair)
    of the five class graphs in GRAPH_CLASSES, counted to 40 discs.

    The root bracket is narrower than `tolerance`, and its `coefficients`
    are the column's minimal characteristic polynomial
    (`minimal_recurrence`); it divides the graph's degree-7 row-step
    polynomial (`closed_form_for`), so 14 terms prove it.  The counts grow
    like the greatest real root of that polynomial: for the five-edge
    class, x^3 - x^2 - 4x + 2 gives about 2.3429, not the greatest root of
    the reversed polynomial (the generating function's denominator), about
    2.12.
    """
    table = {}
    for name, (graph, _) in GRAPH_CLASSES.items():
        for pair, column in eval_move_counts(graph, 40).counts.items():
            polynomial, spare = minimal_recurrence(column)
            table[name, pair] = spare, _greatest_root(polynomial, tolerance)
    return table
