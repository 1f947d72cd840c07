"""Tests for the exact scalar field Q(q^(1/2))."""

import math
import random
from fractions import Fraction

import pytest

from qsphere.errors import DivisionByZero, EvaluationPole
from qsphere.scalar import (
    LaurentPoly,
    Q,
    QINV,
    Q_ONE,
    Q_ZERO,
    RationalQ,
    evaluate,
    qhalfpow,
    qint,
    qlambda,
    qpow,
    render,
)


def rand_poly(rng, max_terms=4, max_exp=6):
    return LaurentPoly(
        {
            rng.randint(-max_exp, max_exp): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, max_terms))
        }
    )


def rand_rq(rng):
    num = rand_poly(rng)
    den = rand_poly(rng)
    while den.is_zero():
        den = rand_poly(rng)
    return RationalQ(num, den)


def test_qint_small_values():
    assert qint(0) == Q_ZERO
    assert qint(1) == Q_ONE
    assert qint(2) == Q + QINV
    assert qint(-2) == -(Q + QINV)


def test_qint_at_half():
    # q^2 + 1 + q^-2 at q = 1/2
    assert float(evaluate(qint(3), Fraction(1, 2))) == pytest.approx(5.25, abs=1e-12)


def test_qint_times_lambda():
    lam = qlambda()
    for n in range(1, 31):
        assert qint(n) * lam == qpow(n) - qpow(-n)


def test_normalize_reduces():
    # (q^2 - 1)/(q - 1) -> q + 1
    num = qpow(1) * qpow(1) - Q_ONE
    x = RationalQ(num.num, (Q - Q_ONE).num)
    assert x == Q + Q_ONE
    assert x.den.is_one()


def test_normalize_zero_num():
    x = RationalQ(LaurentPoly.zero(), LaurentPoly.q_power(3))
    assert x == Q_ZERO
    assert x.den.is_one()


def test_zero_denominator_raises():
    with pytest.raises(DivisionByZero):
        RationalQ(LaurentPoly.one(), LaurentPoly.zero())
    with pytest.raises(DivisionByZero):
        Q_ZERO.inverse()


def test_normalize_idempotent_randomized():
    rng = random.Random(11)
    for _ in range(100):
        x = rand_rq(rng)
        assert RationalQ(x.num, x.den) == x
        assert (x - x) == Q_ZERO


def test_field_axioms_randomized():
    rng = random.Random(5)
    for _ in range(60):
        x, y, z = rand_rq(rng), rand_rq(rng), rand_rq(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if not y.is_zero():
            assert (x / y) * y == x


def test_eval_examples():
    q0 = Fraction(1, 2)
    assert float(evaluate(qint(2), q0)) == pytest.approx(2.5)
    h1 = (Q_ONE - qpow(2)) / (Q_ONE - qpow(4))
    assert float(evaluate(h1, q0)) == pytest.approx(0.8)
    assert float(evaluate(qlambda(), q0)) == pytest.approx(-1.5)


def test_eval_matches_normalized_randomized():
    rng = random.Random(77)
    for _ in range(40):
        x = rand_rq(rng)
        for q0 in (Fraction(1, 2), Fraction(3, 10)):
            try:
                a = evaluate(x, q0)
            except EvaluationPole:
                continue
            b = evaluate(RationalQ(x.num, x.den), q0)
            assert a == b


def test_eval_pole_detection():
    x = RationalQ(LaurentPoly.one(), (Q_ONE - qpow(1) * 2).num)  # 1/(1 - 2q)
    with pytest.raises(EvaluationPole):
        evaluate(x, Fraction(1, 2))
    # pole at sqrt(q0): 1/(1 - 2 q^(1/2)) at q0 = 1/4
    y = RationalQ(LaurentPoly.one(), (Q_ONE - qhalfpow(1) * 2).num)
    with pytest.raises(EvaluationPole):
        evaluate(y, Fraction(1, 4))


def test_eval_divides_in_the_canonical_pair():
    # 1 + 2 q^(1/2) is 2 at q0 = 1/4 and its conjugate 1 - 2 q^(1/2) is 0
    # there, so dividing by the pair (1, 2) would divide by 0
    x = RationalQ(LaurentPoly.one(), (Q_ONE + qhalfpow(1) * 2).num)
    assert (Q_ONE + qhalfpow(1) * 2).num.eval_pair(Fraction(1, 4)) == (2, 0)
    assert evaluate(x, Fraction(1, 4)) == 0.5


def test_eval_rounds_without_cancellation():
    # 985 - 1393 sqrt(1/2) = 0.5 / (985 + 1393 sqrt(1/2)): the naive sum of
    # two floats near 985 loses about 4e-10 of its value
    x = Q_ONE * 985 - qhalfpow(1) * 1393
    expected = 0.5 / (985 + 1393 * math.sqrt(0.5))
    assert abs(evaluate(x, Fraction(1, 2)) - expected) <= 1e-15 * expected


def test_render_example():
    x = (qpow(2) - Q_ONE) / (Q_ONE - qpow(4))
    # canonical form is fully reduced with monic denominator
    assert render(x) == "(-1)/(1 + q^2)"
    # unreduced input reduces to the same field element
    one = LaurentPoly.one()
    assert RationalQ(LaurentPoly.q_power(2) - one, one - LaurentPoly.q_power(4)) == x


def test_render_parse_half_powers():
    x = qhalfpow(3) - qhalfpow(-1) * Fraction(5, 2)
    s = render(x)
    assert "q^(3/2)" in s


def test_half_integer_exponents():
    s = qhalfpow(1)
    assert s * s == Q
    assert qhalfpow(-1) * s == Q_ONE
    assert float(evaluate(s, Fraction(1, 4))) == pytest.approx(0.5)


def test_structural_equality_decides_field_equality():
    lhs = (qpow(4) - Q_ONE) / (qpow(2) - Q_ONE)
    rhs = qpow(2) + Q_ONE
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)
