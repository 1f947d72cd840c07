"""Tests for the quantum SU(2) coordinate algebra."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere import coordalg
from qsphere.coordalg import (
    CoordElement,
    TensorElement,
    gen_a,
    gen_b,
    gen_c,
    gen_d,
)
from qsphere.scalar import LaurentPoly, Q_ONE, Q_ZERO, RationalQ, qhalfpow, qpow
from qsphere.uq import left_weight, right_weight
from tests.test_uq import coord_elements

GENS = [gen_a, gen_b, gen_c, gen_d]
one = CoordElement.one()


def test_defining_relations():
    q = qpow(1)
    assert gen_a * gen_b == (gen_b * gen_a).scale(q)
    assert gen_a * gen_c == (gen_c * gen_a).scale(q)
    assert gen_b * gen_c == gen_c * gen_b
    assert gen_b * gen_d == (gen_d * gen_b).scale(q)
    assert gen_c * gen_d == (gen_d * gen_c).scale(q)
    assert gen_a * gen_d == one + (gen_b * gen_c).scale(q)
    assert gen_d * gen_a == one + (gen_b * gen_c).scale(qpow(-1))


def test_da_example():
    # d*a -> 1 + q^-1 bc, the unique orientation compatible with the
    # sphere relations (tests/test_podles.py, test_embed_matches_abstract_relations)
    prod = gen_d * gen_a
    assert prod.terms.get((0, 0, 0, 0)) == Q_ONE
    assert prod.terms.get((0, 1, 1, 0)) == qpow(-1)


def test_ba_example():
    assert gen_b * gen_a == (gen_a * gen_b).scale(qpow(-1))


def test_mixed_powers_reduce():
    # a^2 d^2 contains no a or d in normal form
    x = gen_a * gen_a * gen_d * gen_d
    assert all(m[0] == 0 and m[3] == 0 for m in x.terms)
    # associativity across the ad reduction
    assert (gen_a * (gen_a * gen_d)) * gen_d == x


@settings(max_examples=500)
@given(st.lists(st.sampled_from(GENS), min_size=2, max_size=5), st.data())
def test_rewriting_confluence_randomized(word, data):
    left = reduce(lambda x, y: x * y, word)
    # fold in a random association order
    items = list(word)
    while len(items) > 1:
        i = data.draw(st.integers(0, len(items) - 2))
        items[i : i + 2] = [items[i] * items[i + 1]]
    assert items[0] == left


def test_counit_on_generators():
    assert gen_a.counit() == Q_ONE
    assert gen_d.counit() == Q_ONE
    assert gen_b.counit() == Q_ZERO
    assert gen_c.counit() == Q_ZERO


def test_star_on_generators():
    assert gen_a.star() == gen_d
    assert gen_d.star() == gen_a
    assert gen_b.star() == gen_c.scale(qhalfpow(2, -1))
    assert gen_c.star() == gen_b.scale(qhalfpow(-2, -1))


@settings(max_examples=40)
@given(coord_elements(), coord_elements())
def test_star_antihomomorphism_randomized(x, y):
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x


def test_antipode_on_generators():
    # S(u_ij) = u_ji* for the unitary corepresentation matrix
    assert gen_a.antipode() == gen_d
    assert gen_d.antipode() == gen_a
    assert gen_b.antipode() == gen_c.star()
    assert gen_c.antipode() == gen_b.star()
    assert gen_b.antipode() == gen_b.scale(qhalfpow(-2, -1))
    assert gen_c.antipode() == gen_c.scale(qhalfpow(2, -1))


def test_coproduct_on_generators():
    assert gen_a.coproduct() == TensorElement.of(gen_a, gen_a) + TensorElement.of(
        gen_b, gen_c
    )
    assert gen_b.coproduct() == TensorElement.of(gen_a, gen_b) + TensorElement.of(
        gen_b, gen_d
    )
    assert gen_c.coproduct() == TensorElement.of(gen_c, gen_a) + TensorElement.of(
        gen_d, gen_c
    )
    assert gen_d.coproduct() == TensorElement.of(gen_c, gen_b) + TensorElement.of(
        gen_d, gen_d
    )


@settings(max_examples=25)
@given(coord_elements(3, 2))
def test_hopf_axioms_randomized(x):
    delta = x.coproduct()
    # (eps (x) id) Delta = id and (id (x) eps) Delta = id
    for slot in (0, 1):
        acc = CoordElement.zero()
        for key, coeff in delta.terms.items():
            eps = CoordElement.monomial(key[slot]).counit()
            acc = acc + CoordElement.monomial(key[1 - slot]).scale(coeff * eps)
        assert acc == x, slot
    # m (S (x) id) Delta = eps(x) 1
    acc = CoordElement.zero()
    for (m1, m2), coeff in delta.terms.items():
        acc = acc + (
            CoordElement._raw({m1: Q_ONE}).antipode() * CoordElement._raw({m2: Q_ONE})
        ).scale(coeff)
    assert acc == CoordElement.one().scale(x.counit())
    # m (id (x) S) Delta = eps(x) 1
    acc = CoordElement.zero()
    for (m1, m2), coeff in delta.terms.items():
        acc = acc + (
            CoordElement._raw({m1: Q_ONE}) * CoordElement._raw({m2: Q_ONE}).antipode()
        ).scale(coeff)
    assert acc == CoordElement.one().scale(x.counit())


@settings(max_examples=20)
@given(coord_elements(2, 2), coord_elements(2, 2))
def test_coproduct_is_algebra_map_randomized(x, y):
    assert (x * y).coproduct() == x.coproduct() * y.coproduct()


def test_coproduct_coassociativity():
    for g in GENS:
        d3 = g.coproduct(3)
        # (Delta (x) id) Delta computed slot by slot
        acc = TensorElement.zero(3)
        for (m1, m2), coeff in g.coproduct().terms.items():
            inner = CoordElement._raw({m1: Q_ONE}).coproduct()
            for (n1, n2), c2 in inner.terms.items():
                acc = acc + TensorElement(3, {(n1, n2, m2): coeff * c2})
        assert acc == d3


@pytest.mark.parametrize(
    "key",
    [(-1, 0, 0, 0), (0, 0, 0, -1), (1, 0, 0, 1), (0, -1, 0, 0), (0, 0, -1, 0), (2, 1, -1, 0)],
)
def test_keys_outside_the_normal_form_are_refused(key):
    # negative a or d exponents, a mixed with d, negative b or c exponents
    with pytest.raises(ValueError):
        CoordElement.monomial(key)


def _gamma_by_recursion(t):
    """Coefficients g[0..t] with a^t d^t = sum_i g[i] b^i c^i, by contracting
    one (a, d) pair through ad = 1 + q bc, which picks up q^(2t-1) when the
    new bc crosses the remaining letters."""
    if t == 0:
        return (LaurentPoly({0: 1}),)
    prev = _gamma_by_recursion(t - 1)
    shift = LaurentPoly({2 * (2 * t - 1): 1})
    out = []
    for i in range(t + 1):
        p = prev[i] if i < t else LaurentPoly()
        if i > 0:
            p = p + prev[i - 1] * shift
        out.append(p)
    return tuple(out)


def test_a_d_powers_equal_the_ad_recursion():
    # _gamma reflects d^t a^t by a <-> d, q -> q^-1; the recursion reads ad alone
    for t in range(11):
        assert coordalg._gamma(t) == _gamma_by_recursion(t), t


def test_a_d_powers_multiply_out():
    for t in range(1, 5):
        expected = sum(
            (CoordElement.monomial((0, i, i, 0), RationalQ(g))
             for i, g in enumerate(_gamma_by_recursion(t))),
            CoordElement.zero(),
        )
        assert gen_a**t * gen_d**t == expected


def test_weights():
    def weights(weight, x):
        return {weight(m) for m in x.terms}

    assert weights(left_weight, gen_a) == {-1}
    assert weights(right_weight, gen_a) == {-1}
    assert weights(left_weight, gen_c) == {-1}
    assert weights(right_weight, gen_c) == {1}
    assert weights(right_weight, gen_a * gen_c) == {0}
    assert weights(left_weight, gen_a + gen_c) == {-1}
    assert weights(right_weight, gen_a + gen_c) == {-1, 1}


def test_render_basic():
    assert str(gen_a * gen_b) == "a*b"
    assert str(CoordElement.zero()) == "0"
    x = gen_d * gen_a
    assert str(x) == "1 + q^-1*b*c"
