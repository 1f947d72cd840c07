"""Tests for the invariant state and its inner product."""

from fractions import Fraction
import random
from itertools import product

import pytest
from hypothesis import given, settings

from qsphere.coordalg import CoordElement, gen_a, gen_b, gen_c, gen_d
from qsphere import haar as haar_module
from qsphere.haar import (
    haar,
    haar_podles,
    haar_product,
    haar_value_A,
    inner,
)
from qsphere.podles import embed, gen_A, sigma
from qsphere.scalar import (
    LaurentPoly,
    Q_ONE,
    Q_ZERO,
    RationalQ,
    evaluate,
    qhalfpow,
    qpow,
    sum_products,
)
from qsphere.uq import (
    act_left,
    act_right,
    gen_E,
    gen_F,
    gen_K,
    gen_Kinv,
    r_action,
    uq_counit,
    uq_star,
)
from tests.test_podles import podles_elements
from tests.test_uq import coord_elements, uq_elements

# every normal monomial a^i b^j c^k d^l (i l = 0) of total degree <= 4
NORMAL_SMALL = [
    m for m in product(range(5), repeat=4) if sum(m) <= 4 and not (m[0] and m[3])
]


def test_haar_unit():
    assert haar(CoordElement.one()) == Q_ONE


def test_haar_vanishes_off_balanced_monomials():
    assert haar(gen_a) == Q_ZERO
    assert haar(gen_b) == Q_ZERO
    assert haar(gen_a * gen_d) != Q_ZERO  # contains 1 + q bc
    assert haar(gen_b * gen_b * gen_c) == Q_ZERO


def test_haar_on_A_powers():
    for j in range(1, 11):
        expected = RationalQ(
            LaurentPoly({0: 1}) - LaurentPoly({4: 1}),
            LaurentPoly({0: 1}) - LaurentPoly({4 * j + 4: 1}),
        )
        assert haar_value_A(j) == expected
        assert haar_podles(gen_A ** j) == expected


def test_haar_bc_powers():
    # h((bc)^n) = (-q)^n (1-q^2)/(1-q^(2n+2))
    for n in range(1, 6):
        x = (gen_b * gen_c) ** n
        expected = haar_value_A(n) * qhalfpow(2 * n, (-1) ** n)
        assert haar(x) == expected


def test_haar_value_at_half():
    assert float(evaluate(haar_value_A(1), Fraction(1, 2))) == pytest.approx(0.8)


@settings(max_examples=60)
@given(coord_elements(3, 3), coord_elements(3, 3))
def test_haar_product_matches_naive_randomized(x, y):
    assert haar_product(x, y) == haar(x * y)


def _h_monos(m1, m2):
    """h(m1 m2) for normal monomials, through haar_product."""
    return haar_product(CoordElement.monomial(m1), CoordElement.monomial(m2))


def test_haar_mono_product_spot():
    # h(d^2 a^2) expands through the crossing tables
    assert _h_monos((0, 0, 0, 2), (2, 0, 0, 0)) == haar(
        (gen_d * gen_d) * (gen_a * gen_a)
    )


def test_haar_mono_product_on_small_monomials():
    assert len(NORMAL_SMALL) == 55
    for m1 in NORMAL_SMALL:
        x = CoordElement.monomial(m1)
        for m2 in NORMAL_SMALL:
            assert _h_monos(m1, m2) == haar(x * CoordElement.monomial(m2)), (m1, m2)


@settings(max_examples=50)
@given(coord_elements(4, 3))
def test_invariance_under_actions_randomized(x):
    hx = haar(x)
    for f in (gen_E, gen_F, gen_K, gen_Kinv):
        assert haar(act_left(f, x)) == uq_counit(f) * hx
        assert haar(act_right(x, f)) == uq_counit(f) * hx


def test_haar_zero_on_a_forced_by_invariance():
    # h(K |> a) = q^(-1/2) h(a) and invariance forces eps(K) h(a) = h(a),
    # hence h(a) = 0; check both routes agree.
    lhs = haar(act_left(gen_K, gen_a))
    assert lhs == haar(gen_a)
    assert haar(gen_a) == Q_ZERO


@settings(max_examples=30)
@given(coord_elements(3, 2), coord_elements(3, 2))
def test_modular_property_randomized(x, y):
    twisted = act_right(act_left(gen_Kinv, act_left(gen_Kinv, y)), gen_Kinv)
    twisted = act_right(twisted, gen_Kinv)
    assert haar_product(x, y) == haar_product(twisted, x)


@settings(max_examples=30)
@given(podles_elements(2, 3), podles_elements(2, 3))
def test_twisted_trace_on_sphere_randomized(x, y):
    assert haar_podles(x * y) == haar_podles(sigma(y) * x)


@settings(max_examples=30)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_rf_re_exchange_randomized(x, y):
    # h(R_F(x) R_E(y)) = q^2 h(R_E(x) R_F(y)) on the sphere
    x, y = embed(x), embed(y)
    lhs = haar(r_action(gen_F, x) * r_action(gen_E, y))
    rhs = haar(r_action(gen_E, x) * r_action(gen_F, y))
    assert lhs == rhs * qpow(2)


def test_inner_unit_and_orthogonality():
    assert inner(CoordElement.one(), CoordElement.one()) == Q_ONE
    assert inner(gen_a, gen_b) == Q_ZERO
    assert inner(gen_a, gen_c) == Q_ZERO
    # |a|^2 = h(a* a) = h(d a) = q^2/(1+q^2)
    expected = RationalQ(LaurentPoly({4: 1}), LaurentPoly({0: 1}) + LaurentPoly({4: 1}))
    assert inner(gen_a, gen_a) == expected


@settings(max_examples=20)
@given(coord_elements(3, 3))
def test_inner_positive_at_numeric_points_randomized(x):
    v = inner(x, x)
    for q0 in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        assert float(evaluate(v, q0)) >= -1e-12


@settings(max_examples=20)
@given(uq_elements(2, 1), coord_elements(2, 2), coord_elements(2, 2))
def test_r_is_star_representation_randomized(f, x, y):
    # (x, R_f(y)) = (R_(f*)(x), y)
    assert inner(x, r_action(f, y)) == inner(r_action(uq_star(f), x), y)


def _level_coefficients(rng, top, fraction):
    """{n: c_n} with n <= top, the top level included; integer polynomials,
    and with fraction a c_n with a Fraction coefficient and one with a
    denominator."""
    def poly():
        return RationalQ(LaurentPoly({2 * rng.randint(-4, 4) + rng.randint(0, 1): rng.randint(-9, 9)
                                      for _ in range(rng.randint(1, 4))}))
    acc = {n: poly() for n in rng.sample(range(top + 1), rng.randint(0, top + 1))}
    acc[top] = poly() + qpow(1)
    if fraction:
        acc[rng.randint(0, top)] = RationalQ(Fraction(rng.randint(1, 5), 7)) * poly()
        acc[rng.randint(0, top)] = RationalQ(Q_ONE.num, (Q_ONE + qpow(3)).num)
    return acc


@pytest.mark.parametrize("top", range(11))
def test_haar_sum_over_one_denominator_equals_the_sum_per_level(top):
    # the one reduction over L_top against the sum over the h((bc)^n), on
    # integer coefficients (packed) and with the Fraction fallback
    rng = random.Random(top)
    den, w = haar_module._bc_denominator(top)
    assert [RationalQ(x.num, den.num) for x in w] == [haar_module._h_bc(n) for n in range(top + 1)]
    for fraction in (False, True) * 4:
        acc = _level_coefficients(rng, top, fraction)
        want = sum_products((c, haar_module._h_bc(n)) for n, c in acc.items())
        assert haar_module._bc_sum(acc) == want, acc
    assert haar_module._bc_sum({}) == Q_ZERO
