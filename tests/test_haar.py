"""Tests for the invariant state and its inner product."""

from fractions import Fraction
import random
from itertools import product

import pytest
from hypothesis import given, settings

from qsphere import haar as haar_module
from qsphere import scalar
from qsphere.comb import merge_into
from qsphere.coordalg import CoordElement, gen_a, gen_b, gen_c, gen_d
from qsphere.haar import (
    haar,
    haar_content,
    haar_podles,
    haar_product,
    haar_value_A,
    inner,
)
from qsphere.podles import embed, gen_A, gen_B, gen_Bs, sigma
from qsphere.scalar import (
    LaurentPoly,
    Q_ONE,
    Q_ZERO,
    RationalQ,
    evaluate,
    poly_exact_div,
    qgeom,
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
    den, w, _ = haar_module._bc_denominator(top)
    assert [RationalQ(x.num, den.num) for x in w] == [haar_module._h_bc(n) for n in range(top + 1)]
    for fraction in (False, True) * 4:
        acc = _level_coefficients(rng, top, fraction)
        want = sum_products((c, haar_module._h_bc(n)) for n, c in acc.items())
        assert haar_module.haar_sum(acc) == want, acc
    assert haar_module.haar_sum({}) == Q_ZERO


def _per_level(acc):
    """sum c_n h((bc)^n), reduced by `sum_products` over the h((bc)^n)."""
    return sum_products((c, haar_module._h_bc(n)) for n, c in acc.items())


def _packed_calls(monkeypatch):
    """A counter of the `poly_gcd` calls that reduce a packed sum."""
    calls = []
    gcd = scalar.poly_gcd
    monkeypatch.setattr(scalar, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    return calls


@pytest.mark.parametrize("top", range(1, 11))
def test_packed_haar_sum_cancels_a_cyclotomic_factor(top, monkeypatch):
    # c_top = [top + 1]_(q^2) r: the numerator over L_top holds
    # Phi_(top+1)(q^2), which only level top brings; GCDHEU cancels it in
    # place, with no poly_gcd
    rng = random.Random(100 + top)
    acc = _level_coefficients(rng, top, False)
    acc[top] = qgeom(top + 1, 0, 4) * acc[top]
    den, _, _ = haar_module._bc_denominator(top)  # built, and reduced, before counting
    calls = _packed_calls(monkeypatch)
    got = haar_module.haar_sum(acc)
    assert not calls
    assert got == _per_level(acc)
    assert got.den != den.num and poly_exact_div(den.num, got.den)


@pytest.mark.parametrize("top", range(1, 11))
def test_packed_haar_sum_of_a_nonzero_content_can_vanish(top):
    # (-q)^top r h(1) - [top + 1]_(q^2) r h((bc)^top) = 0, and a content
    # with its terms at levels 0 and top and a sum that is zero
    r = RationalQ(LaurentPoly({-3: 2, 1: -5, 6: 7}))
    acc = {0: qhalfpow(2 * top, (-1) ** top) * r, top: -qgeom(top + 1, 0, 4) * r}
    assert haar_module.haar_sum(acc) == Q_ZERO == _per_level(acc)
    # B*B = A - A^2 on the sphere: h(B*B) - h(A) + h(A^2) = 0
    parts = [(Q_ONE, gen_Bs * gen_B), (-Q_ONE, gen_A), (Q_ONE, gen_A * gen_A)]
    acc = {}
    for c, x in parts:
        bc = {b: k for (a, b, c_, d), k in embed(x).terms.items() if a == d == 0 and b == c_}
        merge_into(acc, bc, c)
    assert haar_module.haar_sum(acc) == Q_ZERO
    assert sum_products((haar_podles(x), c) for c, x in parts) == Q_ZERO


@pytest.mark.parametrize("top", range(1, 11))
def test_packed_haar_sum_at_its_coefficient_bound(top):
    # c_0 = sum big sgn(l_j) s^-j over L_top = sum l_j s^j = w_0, whose |w_0|_1
    # is the bound max |w_n|_1, and c_top = 1: the packed sum has a
    # coefficient big bound, big near 2^32 or 2^64.  The bit length of the
    # k rule's bound (big + 1) bound is one short of a multiple of 16, where
    # k lies one bit above it, or a multiple of 16, where half the bound
    # would give a k 16 bits lower; either way the sum would not unpack
    den, w, bound = haar_module._bc_denominator(top)
    assert w[0] == den and bound == sum(map(abs, den.num.coeffs.values()))
    for bits, extra in product((32, 64), (0, 1)):
        width = ((bound << bits).bit_length() | 15) + extra
        big = ((1 << width) - 1) // bound - 1
        assert big >= 1 << bits and ((big + 1) * bound).bit_length() == width
        for sign in (1, -1):
            c = RationalQ(LaurentPoly({-j: sign * big * (1 if v > 0 else -1)
                                       for j, v in den.num.coeffs.items()}))
            assert (c * den).num.coeffs[0] == sign * big * bound
            acc = {0: c, top: Q_ONE}
            assert haar_module.haar_sum(acc) == _per_level(acc)


@pytest.mark.parametrize("top", range(1, 11))
def test_haar_sum_with_a_non_integral_coefficient(top):
    # a Fraction coefficient, or a denominator, takes the per-level route
    rng = random.Random(200 + top)
    for fraction in (RationalQ(Fraction(3, 7)), RationalQ(Q_ONE.num, (Q_ONE + qpow(3)).num)):
        acc = _level_coefficients(rng, top, False)
        acc[rng.randint(0, top)] = fraction * qhalfpow(rng.randint(-3, 3))
        assert not all(map(scalar.is_integral, acc.values()))
        assert haar_module.haar_sum(acc) == _per_level(acc)


@pytest.mark.parametrize("top", range(1, 11))
def test_packed_haar_sum_falls_back_when_the_division_cannot_prove_itself(top, monkeypatch):
    # with the lifting bound patched to refuse the first quotient, the one
    # of the packed numerator, poly_gcd reduces the unpacked numerator, to
    # the same value
    rng = random.Random(300 + top)
    acc = _level_coefficients(rng, top, False)
    acc[top] = qgeom(top + 1, 0, 4) * acc[top]
    want = haar_module.haar_sum(acc)
    calls, lifts, seen = _packed_calls(monkeypatch), scalar._lifts, []

    def refuse_first(*args):
        seen.append(args)
        return len(seen) > 1 and lifts(*args)

    monkeypatch.setattr(scalar, "_lifts", refuse_first)
    assert haar_module.haar_sum(acc) == want == _per_level(acc)
    assert seen and calls


def test_weights_are_half_powers_times_polynomials_in_q2():
    # w_n = s^(2n) times a polynomial in s^4 with int coefficients, which
    # `_bc_packed` packs without its factor s^(2n)
    for top in range(11):
        den, w, _ = haar_module._bc_denominator(top)
        assert all(e % 4 == 0 for e in den.num.coeffs) and den.num.coeffs[0] == 1
        for n, x in enumerate(w):
            assert scalar.is_integral(x)
            assert all(e >= 2 * n and (e - 2 * n) % 4 == 0 for e in x.num.coeffs)


def test_haar_memo_tables_are_bounded():
    for table in (haar_module._bc_terms, haar_module._bc_packed, haar_module._bc_denominator):
        assert table.cache_parameters()["maxsize"] is not None


@settings(max_examples=40)
@given(coord_elements(3, 3), coord_elements(3, 3))
def test_haar_content_is_the_bc_part_of_the_product(x, y):
    prod = x * y
    want = {b: c for (a, b, c_, d), c in prod.terms.items() if a == d == 0 and b == c_}
    assert haar_content(x, y) == want
