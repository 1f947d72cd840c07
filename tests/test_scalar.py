"""Tests for the exact scalar field Q(q^(1/2))."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere import scalar
from qsphere.errors import DivisionByZero, EvaluationPole
from qsphere.coordalg import CoordElement
from qsphere.podles import PodlesElement, gen_A
from qsphere.scalar import (
    LaurentPoly,
    Q_ONE,
    Q_ZERO,
    RationalQ,
    Surd,
    evaluate,
    poly_exact_div,
    poly_gcd,
    qgeom,
    qhalfpow,
    qint,
    qlambda,
    qpow,
    render,
)


def polys(max_terms=4, max_exp=6, max_num=5, max_den=4):
    """Laurent polynomials in q^(1/2); exponents count half powers of q."""
    coeff = st.builds(Fraction, st.integers(-max_num, max_num), st.integers(1, max_den))
    return st.dictionaries(
        st.integers(-max_exp, max_exp), coeff, max_size=max_terms
    ).map(LaurentPoly)


def nonzero_polys(**kw):
    return polys(**kw).filter(bool)


rqs = st.builds(RationalQ, polys(), nonzero_polys())


def _lp(*terms):
    """LaurentPoly from (half-exponent, coefficient) pairs."""
    return LaurentPoly(dict(terms))


# planted common factors: cyclotomic in s = q^(1/2), and not cyclotomic
FACTORS = [
    _lp((0, 1), (1, 1)),  # 1 + q^(1/2)
    _lp((0, 1), (2, -1)),  # 1 - q
    _lp((0, 1), (4, 1)),  # 1 + q^2
    _lp((0, 1), (2, 1), (4, 1)),  # 1 + q + q^2
    _lp((0, 1), (1, -1), (2, 1)),  # 1 - q^(1/2) + q
    _lp((0, 1), (1, 2)),  # 1 + 2 q^(1/2)
    _lp((0, 1), (2, -2)),  # 1 - 2q
    _lp((-1, Fraction(3, 2)), (2, -5), (3, 1)),  # 3/2 q^(-1/2) - 5q + q^(3/2)
]
planted = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3).map(math.prod)
bigger = dict(max_terms=6, max_exp=9, max_num=9, max_den=6)


def test_qint_small_values():
    assert qint(0) == Q_ZERO
    assert qint(1) == Q_ONE
    assert qint(2) == qpow(1) + qpow(-1)
    assert qint(-2) == -(qpow(1) + qpow(-1))


def test_qint_at_half():
    # q^2 + 1 + q^-2 at q = 1/2
    assert float(evaluate(qint(3), Fraction(1, 2))) == pytest.approx(5.25, abs=1e-12)


def test_qint_times_lambda():
    lam = qlambda()
    for n in range(1, 31):
        assert qint(n) * lam == qpow(n) - qpow(-n)


def test_qgeom_sums_half_powers():
    # [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)
    for n in range(7):
        assert qgeom(n, 2 * (n - 1), -4) == qint(n)
    assert qgeom(2, 1, 3) == qhalfpow(1) + qhalfpow(4)


def test_normalize_reduces():
    # (q^2 - 1)/(q - 1) -> q + 1
    num = qpow(1) * qpow(1) - Q_ONE
    x = RationalQ(num.num, (qpow(1) - Q_ONE).num)
    assert x == qpow(1) + Q_ONE
    assert x.den.is_one()


def test_normalize_zero_num():
    x = RationalQ(LaurentPoly(), LaurentPoly({6: 1}))
    assert x == Q_ZERO
    assert x.den.is_one()


def test_zero_denominator_raises():
    with pytest.raises(DivisionByZero):
        RationalQ(LaurentPoly({0: 1}), LaurentPoly())
    with pytest.raises(DivisionByZero):
        Q_ZERO.inverse()


@settings(max_examples=100)
@given(rqs)
def test_normalize_idempotent_randomized(x):
    assert RationalQ(x.num, x.den) == x
    assert (x - x) == Q_ZERO


@settings(max_examples=60)
@given(rqs, rqs, rqs)
def test_field_axioms_randomized(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=200)
@given(nonzero_polys(**bigger), nonzero_polys(**bigger), planted)
def test_poly_gcd_matches_euclid(f, g, c):
    a, b = f * c, g * c
    h = poly_gcd(a, b)[0]
    assert h == scalar._euclid_gcd(a, b)
    assert poly_exact_div(h, c) * c == h  # the planted factor divides the gcd


@settings(max_examples=60)
@given(st.integers(1, 150), st.integers(1, 150))
def test_poly_gcd_of_q_power_binomials(m, n):
    # q^m - 1 has s-degree 2m, up to 300
    minus_one = LaurentPoly({0: -1})
    g = poly_gcd(LaurentPoly({2 * m: 1}) + minus_one, LaurentPoly({2 * n: 1}) + minus_one)[0]
    assert g == LaurentPoly({2 * math.gcd(m, n): 1}) + minus_one


@settings(max_examples=200)
@given(nonzero_polys(**bigger), nonzero_polys(**bigger))
def test_poly_exact_div_inverts_multiplication(f, h):
    assert poly_exact_div(f * h, h) == f
    if len(h.coeffs) > 1:  # h divides f h + 1 only if h is a unit
        with pytest.raises(ValueError):
            poly_exact_div(f * h + LaurentPoly({0: 1}), h)


def test_poly_exact_div_when_the_quotient_outgrows_the_dividend():
    # (1 - q^5)^6 / (1 - q^(1/2))^6 = (1 + q^(1/2) + ... + q^(9/2))^6: the
    # quotient's coefficients reach 4.3e4 against 20 in the dividend, so the
    # first packing radix cannot hold them and the multiply-back must refuse it
    s = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    quo = sum((s**i for i in range(1, 10)), one) ** 6
    assert max(quo.coeffs.values()) > 4 * 10**4
    assert poly_exact_div((one - s**10) ** 6, (one - s) ** 6) == quo
    assert poly_gcd((one - s**10) ** 6, quo * (one + s))[0] == quo.scale(
        Fraction(1, quo.leading_coeff())
    )


@settings(max_examples=200)
@given(nonzero_polys(**bigger), nonzero_polys(**bigger), planted)
def test_poly_gcd_cofactors_multiply_back_and_are_coprime(f, g, c):
    a, b = f * c, g * c
    h, a_h, b_h = poly_gcd(a, b)
    assert h * a_h == a and h * b_h == b
    assert scalar._euclid_gcd(a_h, b_h) == LaurentPoly({0: 1})


def test_poly_gcd_with_a_zero_operand():
    p = _lp((-3, Fraction(-4, 9)), (1, 2))
    h, zero, unit = poly_gcd(LaurentPoly(), p)
    assert h == _lp((0, Fraction(-2, 9)), (4, 1)) and zero.is_zero() and h * unit == p
    assert poly_gcd(p, LaurentPoly()) == (h, unit, zero)
    assert poly_gcd(LaurentPoly(), LaurentPoly()) == (zero, zero, zero)


@settings(max_examples=60)
@given(nonzero_polys(**bigger), nonzero_polys(**bigger), planted)
def test_euclid_fallback_gives_the_same_results(f, g, c):
    a, b = f * c, g * c
    gcd, quo, pair = poly_gcd(a, b), poly_exact_div(a, c), scalar._reduce(a, b)
    with pytest.MonkeyPatch.context() as mp:
        # the integer heuristics find nothing, so Euclid over Fraction decides
        mp.setattr(scalar, "_HEU_DOUBLINGS", -1)
        assert poly_gcd(a, b) == gcd
        assert poly_exact_div(a, c) == quo
        assert scalar._reduce(a, b) == pair
        with pytest.raises(ValueError):
            poly_exact_div(a + LaurentPoly({0: 1}), c)


def _int_coeffs(p):
    return all(type(v) is int for v in p.coeffs.values())


int_polys = st.dictionaries(
    st.integers(-9, 9), st.integers(-9, 9), min_size=1, max_size=6
).map(LaurentPoly).filter(bool)
int_planted = st.lists(
    st.sampled_from([f for f in FACTORS if _int_coeffs(f)]), min_size=1, max_size=3
).map(math.prod)


@settings(max_examples=100)
@given(int_polys, int_polys, int_planted, st.integers(-5, 5).filter(bool))
def test_integral_polynomials_keep_int_coefficients(f, g, c, n):
    a, b = f * c, g * c
    assert all(map(_int_coeffs, (a, b, a + b, a - b, a.scale(n), a.scale(Fraction(2 * n, 2)))))
    assert all(map(_int_coeffs, poly_gcd(a, b)[1:]))
    assert _int_coeffs(poly_exact_div(a, c))
    # integral results of rational coefficients are ints too
    half = LaurentPoly({e: Fraction(v, 2) for e, v in f.coeffs.items()})
    assert _int_coeffs(half * LaurentPoly({0: 2})) and _int_coeffs(half + half)
    assert _int_coeffs(half.scale(Fraction(4, 2)))


def test_float_coefficients_are_refused():
    one = LaurentPoly({0: 1})
    for make in (
        lambda: LaurentPoly({0: 0.5}),
        lambda: LaurentPoly({0: 2.0}),
        lambda: LaurentPoly({2: 0.5}),
        lambda: one.scale(0.5),
        lambda: one * 0.5,
        lambda: RationalQ(0.5),
        lambda: RationalQ(1, 0.5),
        lambda: gen_A.scale(0.5),
        lambda: PodlesElement({(1, 0): 0.5}),
    ):
        with pytest.raises(TypeError):
            make()


# canonical forms that must not change: reductions with rational
# coefficients and negative leading denominators, rendered as before
# integer coefficients came in
GOLDEN_FACTORS = {
    "a": {0: 1, 1: 1},
    "b": {0: 1, 2: -1},
    "c": {-1: Fraction(3, 2), 2: -5, 3: 1},
    "d": {0: Fraction(-2, 3), 4: Fraction(1, 5)},
    "e": {1: -7, 3: Fraction(2, 9)},
    "f": {0: 1, 2: 1, 4: 1},
    "g": {-3: Fraction(-4, 9)},
    "n": {0: -1},
}
GOLDEN = {
    "ab/na": "-1 + q",
    "ab/nbd": "(-5 - 5*q^(1/2))/(-10/3 + q^2)",
    "c/d": "(15/2*q^(-1/2) - 25*q + 5*q^(3/2))/(-10/3 + q^2)",
    "cd/nde": "(-27/4*q^-1 + 45/2*q^(1/2) - 9/2*q)/(-63/2 + q)",
    "ee/ne": "7*q^(1/2) - 2/9*q^(3/2)",
    "g/ng": "-1",
    "f/gd": "(-45/4*q^(3/2) - 45/4*q^(5/2) - 45/4*q^(7/2))/(-10/3 + q^2)",
    "af/nbf": "(1)/(-1 + q^(1/2))",
    "bc/ga": "-27/8*q + 27/8*q^(3/2) + 45/4*q^(5/2) - 27/2*q^3 + 9/4*q^(7/2)",
    "d/c": "(-2/3*q^(1/2) + 1/5*q^(5/2))/(3/2 - 5*q^(3/2) + q^2)",
    "abc/nab": "-3/2*q^(-1/2) + 5*q - q^(3/2)",
    "e/nd": "(35*q^(1/2) - 10/9*q^(3/2))/(-10/3 + q^2)",
    "gg/nf": "(-16/81*q^-3)/(1 + q + q^2)",
    "dd/nde": "(3*q^(-1/2) - 9/10*q^(3/2))/(-63/2 + q)",
    "acf/nbce": "(9/2*q^(-1/2) + 9/2*q^(1/2) + 9/2*q^(3/2))/(63/2 - 63/2*q^(1/2) - q + q^(3/2))",
    "ne/ggd": "(2835/16*q^(7/2) - 45/8*q^(9/2))/(-10/3 + q^2)",
    "b/nbb": "(1)/(-1 + q)",
    "cc/ncd": "(-15/2*q^(-1/2) + 25*q - 5*q^(3/2))/(-10/3 + q^2)",
    "/nd": "(-5)/(-10/3 + q^2)",
    "cdf/ndg": "27/8*q + 27/8*q^2 - 45/4*q^(5/2) + 45/8*q^3 - 45/4*q^(7/2)"
    " + 9/4*q^4 - 45/4*q^(9/2) + 9/4*q^5",
}


@pytest.mark.parametrize("case", GOLDEN)
def test_reduction_renders_as_before(case):
    num, den = (
        math.prod((LaurentPoly(GOLDEN_FACTORS[ch]) for ch in word), start=LaurentPoly({0: 1}))
        for word in case.split("/")
    )
    assert render(RationalQ(num, den)) == GOLDEN[case]


def test_eval_examples():
    q0 = Fraction(1, 2)
    assert float(evaluate(qint(2), q0)) == pytest.approx(2.5)
    h1 = (Q_ONE - qpow(2)) / (Q_ONE - qpow(4))
    assert float(evaluate(h1, q0)) == pytest.approx(0.8)
    assert float(evaluate(qlambda(), q0)) == pytest.approx(-1.5)


@settings(max_examples=40)
@given(rqs)
def test_eval_matches_normalized_randomized(x):
    for q0 in (Fraction(1, 2), Fraction(3, 10)):
        try:
            a = evaluate(x, q0)
        except EvaluationPole:
            continue
        b = evaluate(RationalQ(x.num, x.den), q0)
        assert a == b


def test_eval_pole_detection():
    x = RationalQ(LaurentPoly({0: 1}), (Q_ONE - qpow(1) * 2).num)  # 1/(1 - 2q)
    with pytest.raises(EvaluationPole):
        evaluate(x, Fraction(1, 2))
    # pole at sqrt(q0): 1/(1 - 2 q^(1/2)) at q0 = 1/4
    y = RationalQ(LaurentPoly({0: 1}), (Q_ONE - qhalfpow(1) * 2).num)
    with pytest.raises(EvaluationPole):
        evaluate(y, Fraction(1, 4))


def test_eval_divides_in_the_canonical_pair():
    # 1 + 2 q^(1/2) is 2 at q0 = 1/4 and its conjugate 1 - 2 q^(1/2) is 0
    # there, so dividing by the pair (1, 2) would divide by 0
    x = RationalQ(LaurentPoly({0: 1}), (Q_ONE + qhalfpow(1) * 2).num)
    pair = scalar._poly_at((Q_ONE + qhalfpow(1) * 2).num, Fraction(1, 4))
    assert (pair.e, pair.o, pair.d) == (2, 0, 1)
    assert evaluate(x, Fraction(1, 4)) == 0.5


def _poly_at_by_powers(poly, q0):
    """The power-sum evaluation that Horner's rule replaced, as a reference:
    sum_k c p^(k-lo) r^(hi-k) with two powers per coefficient."""
    p, r = q0.numerator, q0.denominator
    scale = math.lcm(*(c.denominator for c in poly.coeffs.values()))
    ints = ({}, {})
    for e, c in poly.coeffs.items():
        ints[e % 2][e // 2] = c.numerator * scale // c.denominator
    lo, hi = min(poly.coeffs, default=0) // 2, max(poly.coeffs, default=0) // 2
    even, odd = (sum(c * p ** (k - lo) * r ** (hi - k) for k, c in part.items())
                 * p ** max(lo, 0) * r ** max(-hi, 0) for part in ints)
    d = scale * p ** max(-lo, 0) * r ** max(hi, 0)
    if odd and math.isqrt(p) ** 2 == p and math.isqrt(r) ** 2 == r:
        even, odd, d = even * math.isqrt(r) + odd * math.isqrt(p), 0, d * math.isqrt(r)
    return scalar._reduced(even, odd, d, q0)


@settings(max_examples=200)
@given(polys(max_terms=8, max_exp=40, max_num=10**6, max_den=30),
       st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(9, 16),
                        Fraction(81, 100), Fraction(5, 7)]))
def test_horner_evaluation_equals_the_power_sums(poly, q0):
    # the same canonical Surd, down to its parts
    got, want = scalar._poly_at(poly, q0), _poly_at_by_powers(poly, q0)
    assert (got.e, got.o, got.d) == (want.e, want.o, want.d)


def test_eval_rounds_without_cancellation():
    # 985 - 1393 sqrt(1/2) = 0.5 / (985 + 1393 sqrt(1/2)): the naive sum of
    # two floats near 985 loses about 4e-10 of its value
    x = Q_ONE * 985 - qhalfpow(1) * 1393
    expected = 0.5 / (985 + 1393 * math.sqrt(0.5))
    assert abs(evaluate(x, Fraction(1, 2)) - expected) <= 1e-15 * expected


def _eval_pair(poly, q0):
    """The canonical Fraction parts (P_even(q0), P_odd(q0)) of
    poly = P_even + sqrt(q0) P_odd at q0, by Horner per parity: the
    reference evaluation of `FractionSurd`."""
    p, r = q0.numerator, q0.denominator
    scale = math.lcm(*(c.denominator for c in poly.coeffs.values()))
    out = []
    for parity in (0, 1):
        ints = {(e - parity) // 2: c.numerator * scale // c.denominator
                for e, c in poly.coeffs.items() if e % 2 == parity}
        lo, hi = min(ints, default=0), max(ints, default=0)
        acc, rpow = 0, 1
        for k in range(hi, lo - 1, -1):
            acc = acc * p + ints.get(k, 0) * rpow
            rpow *= r
        num = acc * p ** max(lo, 0) * r ** max(-hi, 0)
        out.append(Fraction(num, scale * p ** max(-lo, 0) * r ** max(hi, 0)))
    even, odd = out
    if odd and math.isqrt(p) ** 2 == p and math.isqrt(r) ** 2 == r:
        return even + odd * Fraction(math.isqrt(p), math.isqrt(r)), 0
    return even, odd


class FractionSurd:
    """even + odd sqrt(q0) with Fraction parts, each reduced by Fraction:
    the oracle of `Surd`'s integer parts (e + o sqrt(q0)) / d."""

    __slots__ = ("even", "odd", "q0")

    def __init__(self, even, odd, q0):
        self.even = even
        self.odd = odd
        self.q0 = q0

    @staticmethod
    def at(x: RationalQ, q0: Fraction):
        num = FractionSurd(*_eval_pair(x.num, q0), q0)
        return num if x.den.is_one() else num / FractionSurd(*_eval_pair(x.den, q0), q0)

    def __add__(self, other):
        a, b, c, d = self.even, self.odd, other.even, other.odd
        return FractionSurd(a + c if c else a, b + d if d else b, self.q0)

    def __neg__(self):
        return FractionSurd(-self.even, -self.odd, self.q0)

    def __mul__(self, other):
        a, b, c, d = self.even, self.odd, other.even, other.odd
        if b and d:
            return FractionSurd(a * c + self.q0 * b * d, a * d + b * c, self.q0)
        return FractionSurd(a * c, b * c if b else a * d if d else 0, self.q0)

    def __truediv__(self, other):
        a, b, c, d = self.even, self.odd, other.even, other.odd
        norm = c * c - self.q0 * d * d if d else c
        if not norm:
            raise EvaluationPole(f"division by 0 at q0 = {self.q0}")
        if not d:
            return FractionSurd(a / c, b / c if b else 0, self.q0)
        return self * FractionSurd(c / norm, -d / norm, self.q0)

    def __eq__(self, other):
        return (self.even, self.odd, self.q0) == (other.even, other.odd, other.q0)

    def __bool__(self):
        return bool(self.even or self.odd)

    def __float__(self):
        even, odd, q0 = self.even, self.odd, self.q0
        root = math.sqrt(q0)
        if even and odd and (even < 0) != (odd < 0):
            return float(even * even - q0 * odd * odd) / (float(even) - float(odd) * root)
        return float(even) + float(odd) * root


def _surd(even, odd, q0) -> Surd:
    """The Surd even + odd sqrt(q0) of int or Fraction parts."""
    even, odd = Fraction(even), Fraction(odd)
    d = math.lcm(even.denominator, odd.denominator)
    return Surd(even.numerator * d // even.denominator, odd.numerator * d // odd.denominator, d, q0)


def _parts(x: Surd) -> tuple:
    return Fraction(x.e, x.d), Fraction(x.o, x.d)


# 1/4, 9/16 and 81/100 are squares: there every value has the odd part 0
SURD_Q0 = [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(9, 16), Fraction(81, 100)]


@settings(max_examples=60)
@given(rqs, rqs)
def test_surd_at_respects_the_field_operations(x, y):
    for q0 in SURD_Q0:
        try:
            sx, sy = Surd.at(x, q0), Surd.at(y, q0)
        except EvaluationPole:
            continue
        assert Surd.at(x + y, q0) == sx + sy
        assert Surd.at(-x, q0) == -sx
        assert Surd.at(x * y, q0) == sx * sy
        # equal at q0 exactly when the difference vanishes there
        assert (sx == sy) == (not Surd.at(x - y, q0))
        if sy:
            assert Surd.at(x / y, q0) == sx / sy
        else:
            with pytest.raises(EvaluationPole):
                sx / sy
        assert float(sx) == evaluate(x, q0)


@settings(max_examples=60)
@given(rqs, rqs)
def test_integer_parts_equal_the_fraction_parts(x, y):
    # the integer Surd against its Fraction-part oracle, at the five q0:
    # the same parts after each operation, the same float and the same ==
    for q0 in SURD_Q0:
        try:
            pairs = [(Surd.at(v, q0), FractionSurd.at(v, q0)) for v in (x, y)]
        except EvaluationPole:
            continue
        (sx, fx), (sy, fy) = pairs
        got = [sx + sy, sx * sy, -sx, sx]
        want = [fx + fy, fx * fy, -fx, fx]
        if fy:
            got.append(sx / sy)
            want.append(fx / fy)
        else:
            with pytest.raises(EvaluationPole):
                sx / sy
        for g, w in zip(got, want):
            assert _parts(g) == (w.even, w.odd), (q0, g)
            assert math.gcd(g.e, g.o, g.d) == 1 and g.d > 0
            assert float(g).hex() == float(w).hex()
        assert (sx == sy) == (fx == fy)


def _general_mul(x, y):
    (a, b), (c, d) = _parts(x), _parts(y)
    return _surd(a * c + x.q0 * b * d, a * d + b * c, x.q0)


@settings(max_examples=40)
@given(rqs, rqs)
def test_surd_zero_odd_parts_stay_int(x, y):
    # at a square q0, products and quotients keep the odd part the int 0,
    # equal to the general formula's value
    for q0 in (Fraction(1, 4), Fraction(9, 16), Fraction(81, 100)):
        try:
            sx, sy = Surd.at(x, q0), Surd.at(y, q0)
        except EvaluationPole:
            continue
        assert sx.o == 0 and sy.o == 0
        prod = sx * sy
        assert type(prod.o) is int and prod.o == 0
        assert prod == _general_mul(sx, sy)
        if sy:
            quot = sx / sy
            assert type(quot.o) is int and quot.o == 0
            assert quot * sy == sx


def test_surd_mixed_zero_parts_match_the_general_formula():
    for q0 in (Fraction(1, 4), Fraction(2, 3)):
        zero_odd = [_surd(3, Fraction(0), q0), _surd(5, 0, q0)]
        with_odd = [_surd(Fraction(-2, 7), Fraction(4, 3), q0), _surd(0, Fraction(1, 5), q0)]
        for x in zero_odd + with_odd:
            for y in zero_odd + with_odd:
                assert x * y == _general_mul(x, y), (x, y)
                if y:
                    assert (x / y) * y == x, (x, y)


def test_surd_division_by_zero_raises():
    for q0 in (Fraction(1, 4), Fraction(2, 3)):
        for zero in (_surd(0, 0, q0), _surd(Fraction(0), Fraction(0), q0)):
            with pytest.raises(EvaluationPole):
                _surd(1, 0, q0) / zero
            with pytest.raises(EvaluationPole):
                _surd(1, Fraction(1, 2), q0) / zero
    # 1/2 - sqrt(1/4) is 0 with a nonzero odd part, which `Surd.at` never makes
    with pytest.raises(EvaluationPole):
        _surd(1, 0, Fraction(1, 4)) / _surd(Fraction(1, 2), -1, Fraction(1, 4))


@pytest.mark.parametrize(
    "q0, pole",
    [
        (Fraction(1, 4), {0: 1, 1: -2}),  # 1 - 2 q^(1/2)
        (Fraction(1, 2), {0: 1, 2: -2}),  # 1 - 2 q
        (Fraction(2, 3), {0: 2, 2: -3}),  # 2 - 3 q
    ],
)
def test_surd_pole_raises(q0, pole):
    with pytest.raises(EvaluationPole):
        Surd.at(RationalQ(LaurentPoly({0: 1}), LaurentPoly(pole)), q0)
    with pytest.raises(EvaluationPole):
        Surd.at(Q_ONE, q0) / Surd.at(RationalQ(LaurentPoly(pole)), q0)


@pytest.mark.parametrize(
    "q0, even, odd, norm",
    [
        (Fraction(1, 4), 1, -2, 0),  # 1 - 2 sqrt(1/4) = 0
        (Fraction(1, 2), 985, -1393, Fraction(1, 2)),
        (Fraction(2, 3), 881, -1079, Fraction(1, 3)),
    ],
)
def test_surd_float_rounds_without_cancellation(q0, even, odd, norm):
    # even^2 - q0 odd^2 = norm: even + odd sqrt(q0) = norm / (even - odd
    # sqrt(q0)), far below the two floats near even whose naive sum cancels
    x = _surd(even, odd, q0)
    expected = float(norm) / (even - odd * math.sqrt(q0))
    assert abs(float(x) - expected) <= 1e-15 * abs(expected)
    assert float(-x) == -float(x)


def test_render_example():
    x = (qpow(2) - Q_ONE) / (Q_ONE - qpow(4))
    # canonical form is fully reduced with monic denominator
    assert render(x) == "(-1)/(1 + q^2)"
    # unreduced input reduces to the same field element
    one = LaurentPoly({0: 1})
    assert RationalQ(LaurentPoly({4: 1}) - one, one - LaurentPoly({8: 1})) == x


def test_render_parse_half_powers():
    x = qhalfpow(3) - qhalfpow(-1) * Fraction(5, 2)
    s = render(x)
    assert "q^(3/2)" in s


def test_half_integer_exponents():
    s = qhalfpow(1)
    assert s * s == qpow(1)
    assert qhalfpow(-1) * s == Q_ONE
    assert float(evaluate(s, Fraction(1, 4))) == pytest.approx(0.5)


def test_structural_equality_decides_field_equality():
    lhs = (qpow(4) - Q_ONE) / (qpow(2) - Q_ONE)
    rhs = qpow(2) + Q_ONE
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


@given(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=1000)))
def test_equal_values_hash_alike(c):
    # a constant field value, coordinate function or sphere element equals
    # its int or Fraction, so it must be found under it in a set or dict
    for x in (RationalQ(c), CoordElement.one().scale(c), PodlesElement.one().scale(c)):
        assert x == c and hash(x) == hash(c), x
        assert x in {c} and {c: "x"}.get(x) == "x", x
    assert RationalQ(c) + qpow(1) not in {c}


# -- one-term products, unit products and sums reduced once -------------------


def _loop_product(f, g):
    """f g by the double loop over the terms: the reference for shortcuts."""
    d = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(d)


def _stored_canonically(p):
    return all(type(v) is int or v.denominator != 1 for v in p.coeffs.values())


one_terms = st.builds(
    lambda n, c: LaurentPoly({n: c}),
    st.integers(-6, 6),
    st.one_of(
        st.sampled_from([1, -1]),
        st.integers(-4, 4).filter(bool),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    ),
)


@settings(max_examples=200)
@given(one_terms, polys())
def test_one_term_products_match_the_double_loop(m, f):
    expected = _loop_product(m, f)
    for p in (m * f, f * m):
        assert p.coeffs == expected.coeffs
        assert _stored_canonically(p)


def test_one_term_products_store_integral_fractions_as_ints():
    f = LaurentPoly({0: Fraction(2, 3), 2: Fraction(4, 3)})
    p = LaurentPoly({1: Fraction(3, 2)}) * f
    assert p.coeffs == {1: 1, 3: 2} and _stored_canonically(p)
    assert LaurentPoly({-2: -1}) * f == LaurentPoly({-2: Fraction(-2, 3), 0: Fraction(-4, 3)})
    assert LaurentPoly({3: 1}) * f == f.shift(3)


@settings(max_examples=100)
@given(one_terms, rqs)
def test_unit_products_and_inverses_are_canonical(m, x):
    u = RationalQ(m)
    expected = RationalQ(m * x.num, x.den)  # reduced by the general path
    assert u * x == expected and x * u == expected
    assert u.inverse() == RationalQ(LaurentPoly({0: 1}), m)
    assert u.inverse() * u == Q_ONE


@settings(max_examples=30)
@given(polys(max_terms=3, max_exp=3, max_num=3, max_den=2), st.integers(0, 5))
def test_powers_are_repeated_products(p, n):
    assert p**n == math.prod([p] * n, start=LaurentPoly({0: 1}))
    x = RationalQ(p, _q_den(1))
    assert x**n == math.prod([x] * n, start=Q_ONE)
    if p:
        assert x ** -n * x**n == Q_ONE
    with pytest.raises(ValueError):
        p ** -1


def _q_den(n):
    """1 for n = 0, else 1 - q^(2n); 1 - q^2 divides all of these."""
    return LaurentPoly({0: 1}) - LaurentPoly({4 * n: 1}) if n else LaurentPoly({0: 1})


small_fractions = st.builds(
    RationalQ, polys(max_terms=3, max_exp=4, max_num=3, max_den=2), st.integers(0, 4).map(_q_den)
)
product_pairs = st.lists(st.tuples(small_fractions, small_fractions), max_size=6)


def _naive_sum(pairs):
    """The left-to-right sum over the product of the denominators, each
    product and each partial sum reduced by the constructor."""
    total = Q_ZERO
    for x, y in pairs:
        total = RationalQ(total.num * x.den * y.den + x.num * y.num * total.den,
                          total.den * x.den * y.den)
    return total


@settings(max_examples=200)
@given(product_pairs)
def test_sum_products_matches_the_naive_sum(pairs):
    assert scalar.sum_products(pairs) == _naive_sum(pairs)


def test_sum_products_on_empty_polynomial_and_cancelling_sums():
    sum_products = scalar.sum_products
    assert sum_products([]) == Q_ZERO and sum_products([]).den.is_one()
    polys_only = [(qpow(1), qint(3)), (RationalQ(2), qhalfpow(-1)), (qlambda(), Q_ZERO)]
    total = sum_products(polys_only)
    assert total == _naive_sum(polys_only) and total.den.is_one()
    x, y = RationalQ(1, _q_den(1)), RationalQ(qpow(1).num, _q_den(3))
    cancelling = [(x, y), (-x, y), (x, x), (x, -x)]
    assert sum_products(cancelling) == Q_ZERO and sum_products(cancelling).den.is_one()
    # 1/(1 - q^2) + 1/(1 - q^4) joins over the lcm 1 - q^4, not the product
    lcm = sum_products([(x, Q_ONE), (RationalQ(1, _q_den(2)), Q_ONE)])
    assert (lcm.num, lcm.den) == (LaurentPoly({0: -2, 4: -1}), LaurentPoly({0: -1, 8: 1}))


def _stretch(p, g, shift):
    """s^shift p(s^g): a polynomial in q^(g/2), shifted."""
    return LaurentPoly({shift + g * e: c for e, c in p.coeffs.items()})


@settings(max_examples=150)
@given(st.sampled_from([1, 2, 4]), nonzero_polys(**bigger), nonzero_polys(**bigger), planted,
       st.integers(-7, 7), st.integers(-7, 7))
def test_stride_path_equals_the_unit_stride_path(g, f, h, c, sa, sb):
    # in q^(g/2) with a planted common factor c(s^g); the stride path packs
    # in x = s^g, the oracle, stride 1, in s
    a, b, cg = _stretch(f * c, g, sa), _stretch(h * c, g, sb), _stretch(c, g, 0)
    got = poly_gcd(a, b), poly_exact_div(a, cg), poly_exact_div(b * cg, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_stride", lambda *polys: 1)
        want = poly_gcd(a, b), poly_exact_div(a, cg), poly_exact_div(b * cg, b)
    assert got == want
    assert got[0][0] == _stretch(poly_gcd(f * c, h * c)[0], g, 0)


def test_stride_of_polynomials_in_a_power_of_q():
    assert scalar._stride(_lp((-3, 1), (5, 2)), _lp((2, 1), (14, -1))) == 4
    assert scalar._stride(_lp((1, 1)), _lp((3, 2))) == 1  # monomials alone
    assert scalar._stride(_lp((0, 1), (4, 1)), _lp((1, 1), (3, 1))) == 2


def _dict_sum(pairs):
    """sum x y as LaurentPoly products and sums, over dicts."""
    total = LaurentPoly()
    for x, y in pairs:
        total = total + x.num * y.num
    return total


int_polys_big = st.dictionaries(
    st.integers(-12, 12), st.integers(-2**70, 2**70).filter(bool), max_size=5
).map(LaurentPoly)


def _packed_sum(pairs, den=_q_den(0)):
    """sum x y / den by `pack` and `over_packed`, for integer polynomials x,
    y and a monic den: in s^g at 2^k, k from the coefficient bound
    sum |x|_inf |y|_1 of the sum and from 2 |den|_inf + 2."""
    pairs = [(x.num.coeffs, y.num.coeffs) for x, y in pairs if x and y]
    if not pairs:
        return scalar.over_packed(0, 0, 2, 1, den, 1)
    xlo, ylo = (min(min(p[i]) for p in pairs) for i in (0, 1))
    g = math.gcd(*(e - xlo for x, _ in pairs for e in x), *(e - ylo for _, y in pairs for e in y),
                 *den.coeffs) or 1
    bound = sum(max(map(abs, x.values())) * sum(map(abs, y.values())) for x, y in pairs)
    k = max(bound.bit_length() + 1, (2 * max(map(abs, den.coeffs.values())) + 2).bit_length())

    def packed(coeffs, lo):
        return scalar.pack(scalar.to_ints(coeffs, lo, g), k)

    total = sum(packed(x, xlo) * packed(y, ylo) for x, y in pairs)
    return scalar.over_packed(total, xlo + ylo, k, g, den, packed(den.coeffs, 0))


@settings(max_examples=200)
@given(st.lists(st.tuples(int_polys_big, int_polys_big), max_size=6))
def test_packed_sum_equals_the_dict_sum(pairs):
    # negative coefficients and coefficients past 2^64, over a shared
    # denominator that makes the reduction real
    pairs = [(RationalQ(x), RationalQ(y)) for x, y in pairs]
    den = -_q_den(3)  # monic
    assert _packed_sum(pairs) == RationalQ(_dict_sum(pairs))
    assert _packed_sum(pairs, den) == RationalQ(_dict_sum(pairs), den)


def test_packed_sum_at_the_coefficient_bound():
    # a coefficient of the sum equals the bound sum |x|_inf |y|_1 that sets
    # the packing radix, of either sign, at 2^65, 2^65 - 2^34 + 2 and 18
    for big in (2**32, 2**32 - 1, 3):
        for sign in (1, -1):
            x, y = RationalQ(LaurentPoly({2: sign * big})), RationalQ(LaurentPoly({-4: big}))
            total = _packed_sum([(x, y), (x, y)])
            assert total.num.coeffs == {-2: sign * 2 * big * big}
    x = RationalQ(LaurentPoly({0: 2**40, 4: -(2**40)}))
    assert _packed_sum([(x, x)]).num.coeffs == {0: 2**80, 4: -(2**81), 8: 2**80}
    assert _packed_sum([(Q_ZERO, x)]) == Q_ZERO and _packed_sum([]) == Q_ZERO


@pytest.mark.parametrize("k, f, den", [
    (4, [6, -3], [5, 1]),
    (3, [3, -1], [-2, 1, 1]),
    (3, [-2, 1, 3, 3, -2, -1, -1], [-3, 1]),
])
def test_over_packed_proves_its_quotients(k, f, den):
    # at 2^4, f = 6 - 3s and D = 5 + s have gcd(f(16), D(16)) = 21 = D(16),
    # and the quotient -2 of the values is no quotient of f by D: the lifting
    # bound refuses it, and poly_gcd finds f/D reduced, as in the others
    fp, dp = (LaurentPoly(dict(enumerate(p))) for p in (f, den))
    got = scalar.over_packed(scalar.pack(f, k), 0, k, 1, dp, scalar.pack(den, k))
    assert got == RationalQ(fp, dp)


def test_unpack_refuses_one_bit_digits():
    # at k = 1 the balanced digits are {0, 1}, so x = -1 would map to itself
    with pytest.raises(ValueError, match="k >= 2"):
        scalar._unpack(-1, 1)
    # at k = 2 they are {-1, 0, 1, 2}, and negative digits round-trip
    for digits in ([-1], [2, -1], [-1, 0, 2, -1], [1, -1, -1, 1]):
        assert scalar._unpack(scalar.pack(digits, 2), 2) == digits


def test_integral_values():
    assert scalar.is_integral(qint(3)) and scalar.is_integral(Q_ZERO)
    assert not scalar.is_integral(RationalQ(Fraction(1, 2)))
    assert not scalar.is_integral(RationalQ(1, _q_den(1)))
