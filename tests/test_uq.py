"""Tests for U_q(su_2), the dual pairing and the actions."""

import random
from functools import reduce

import pytest

from qsphere.coordalg import CoordElement, gen_a, gen_b, gen_binv, gen_c, gen_d
from qsphere.errors import NotInHopfDomain
from qsphere.scalar import Q_ONE, Q_ZERO, RationalQ, qhalfpow, qlambda, qpow
from qsphere.uq import (
    UqElement,
    UqTensor,
    act_left,
    act_right,
    gen_E,
    gen_F,
    gen_K,
    gen_Kinv,
    pair,
    r_action,
    uq_antipode,
    uq_coproduct,
    uq_counit,
    uq_star,
)

UQ_GENS = [gen_E, gen_F, gen_K, gen_Kinv]
COORD_GENS = [gen_a, gen_b, gen_c, gen_d]


def rand_uq(rng, max_deg=3, terms=3):
    out = UqElement.zero()
    for _ in range(terms):
        word = [UQ_GENS[rng.randrange(4)] for _ in range(rng.randint(0, max_deg))]
        coeff = qpow(rng.randint(-1, 1)) * rng.choice([1, -1])
        out = out + reduce(lambda x, y: x * y, word, UqElement.one()).scale(coeff)
    return out


def rand_coord(rng, max_deg=3, terms=3):
    out = CoordElement.zero()
    for _ in range(terms):
        word = [COORD_GENS[rng.randrange(4)] for _ in range(rng.randint(0, max_deg))]
        coeff = qpow(rng.randint(-1, 1)) * rng.choice([1, -1])
        out = out + reduce(lambda x, y: x * y, word, CoordElement.one()).scale(coeff)
    return out


def test_defining_relations():
    lam_inv = qlambda().inverse()
    K2 = gen_K * gen_K
    Km2 = gen_Kinv * gen_Kinv
    assert gen_K * gen_Kinv == UqElement.one()
    assert gen_Kinv * gen_K == UqElement.one()
    assert gen_K * gen_E == (gen_E * gen_K).scale(qpow(1))
    assert gen_F * gen_K == (gen_K * gen_F).scale(qpow(1))
    assert gen_E * gen_F - gen_F * gen_E == (K2 - Km2).scale(lam_inv)


def test_pbw_normal_form_confluence_randomized():
    rng = random.Random(21)
    for _ in range(200):
        word = [UQ_GENS[rng.randrange(4)] for _ in range(rng.randint(2, 5))]
        left = reduce(lambda x, y: x * y, word)
        items = list(word)
        while len(items) > 1:
            i = rng.randrange(len(items) - 1)
            items[i : i + 2] = [items[i] * items[i + 1]]
        assert items[0] == left


def test_coproduct_of_generators():
    assert uq_coproduct(gen_E) == UqTensor.of(gen_E, gen_K) + UqTensor.of(
        gen_Kinv, gen_E
    )
    assert uq_coproduct(gen_F) == UqTensor.of(gen_F, gen_K) + UqTensor.of(
        gen_Kinv, gen_F
    )
    assert uq_coproduct(gen_K) == UqTensor.of(gen_K, gen_K)


def test_coproduct_is_algebra_map_randomized():
    rng = random.Random(31)
    for _ in range(15):
        f, g = rand_uq(rng, 2, 2), rand_uq(rng, 2, 2)
        assert uq_coproduct(f * g) == uq_coproduct(f) * uq_coproduct(g)


def test_counit():
    assert uq_counit(gen_E) == Q_ZERO
    assert uq_counit(gen_F) == Q_ZERO
    assert uq_counit(gen_K) == Q_ONE
    assert uq_counit(gen_K - UqElement.one()) == Q_ZERO


def test_antipode_on_generators():
    assert uq_antipode(gen_K) == gen_Kinv
    assert uq_antipode(gen_Kinv) == gen_K
    assert uq_antipode(gen_E) == gen_E.scale(RationalQ.q_power(1, -1))
    assert uq_antipode(gen_F) == gen_F.scale(RationalQ.q_power(-1, -1))


def test_inverse_antipode_derived():
    assert uq_antipode(gen_E, inverse=True) == gen_E.scale(RationalQ.q_power(-1, -1))
    assert uq_antipode(gen_F, inverse=True) == gen_F.scale(RationalQ.q_power(1, -1))
    rng = random.Random(8)
    for _ in range(20):
        f = rand_uq(rng, 3, 2)
        assert uq_antipode(uq_antipode(f, inverse=True)) == f
        assert uq_antipode(uq_antipode(f), inverse=True) == f


def test_antipode_antihomomorphism_randomized():
    rng = random.Random(18)
    for _ in range(15):
        f, g = rand_uq(rng, 2, 2), rand_uq(rng, 2, 2)
        assert uq_antipode(f * g) == uq_antipode(g) * uq_antipode(f)


def test_star():
    assert uq_star(gen_E) == gen_F
    assert uq_star(gen_F) == gen_E
    assert uq_star(gen_K) == gen_K
    rng = random.Random(28)
    for _ in range(15):
        f, g = rand_uq(rng, 2, 2), rand_uq(rng, 2, 2)
        assert uq_star(f * g) == uq_star(g) * uq_star(f)
        assert uq_star(uq_star(f)) == f


def test_hopf_antipode_axiom_randomized():
    # m (S (x) id) Delta = eps * 1
    rng = random.Random(44)
    for _ in range(10):
        f = rand_uq(rng, 2, 2)
        acc = UqElement.zero()
        for (m1, m2), coeff in uq_coproduct(f).terms.items():
            acc = acc + (
                uq_antipode(UqElement.monomial(m1)) * UqElement.monomial(m2)
            ).scale(coeff)
        assert acc == UqElement.one().scale(uq_counit(f))


def test_pairing_generator_values():
    assert pair(gen_E, gen_c) == Q_ONE
    assert pair(gen_F, gen_b) == Q_ONE
    assert pair(gen_K, gen_d) == qhalfpow(1)
    assert pair(gen_Kinv, gen_d) == qhalfpow(-1)
    assert pair(gen_K, gen_a) == qhalfpow(-1)
    assert pair(gen_Kinv, gen_a) == qhalfpow(1)
    assert pair(gen_E, gen_a) == Q_ZERO
    assert pair(gen_E, gen_b) == Q_ZERO
    assert pair(gen_E, gen_d) == Q_ZERO
    assert pair(gen_F, gen_a) == Q_ZERO
    assert pair(gen_K, gen_b) == Q_ZERO
    assert pair(gen_K, gen_c) == Q_ZERO


def test_pairing_unit_laws():
    rng = random.Random(52)
    for _ in range(10):
        f = rand_uq(rng, 2, 2)
        assert pair(f, CoordElement.one()) == uq_counit(f)
        x = rand_coord(rng, 2, 2)
        assert pair(UqElement.one(), x) == x.counit()


def test_pairing_is_hopf_pairing_randomized():
    rng = random.Random(61)
    for _ in range(12):
        f, g = rand_uq(rng, 2, 1), rand_uq(rng, 2, 1)
        x = rand_coord(rng, 3, 2)
        # <fg, x> = <f, x_(1)> <g, x_(2)>
        lhs = pair(f * g, x)
        rhs = Q_ZERO
        for (m1, m2), coeff in x.coproduct().terms.items():
            rhs = rhs + pair(f, CoordElement.monomial(m1)) * pair(
                g, CoordElement.monomial(m2)
            ) * coeff
        assert lhs == rhs
        # <f, xy> = <f_(1), x> <f_(2), y>
        y = rand_coord(rng, 2, 2)
        lhs2 = pair(f, x * y)
        rhs2 = Q_ZERO
        for (n1, n2), coeff in uq_coproduct(f).terms.items():
            rhs2 = rhs2 + pair(UqElement.monomial(n1), x) * pair(
                UqElement.monomial(n2), y
            ) * coeff
        assert lhs2 == rhs2


def test_left_action_on_generators():
    assert act_left(gen_E, gen_a) == gen_b
    assert act_left(gen_E, gen_c) == gen_d
    assert act_left(gen_E, gen_b).is_zero()
    assert act_left(gen_E, gen_d).is_zero()
    assert act_left(gen_F, gen_b) == gen_a
    assert act_left(gen_F, gen_d) == gen_c
    assert act_left(gen_F, gen_a).is_zero()
    assert act_left(gen_F, gen_c).is_zero()
    assert act_left(gen_K, gen_a) == gen_a.scale(qhalfpow(-1))
    assert act_left(gen_K, gen_b) == gen_b.scale(qhalfpow(1))
    assert act_left(gen_K, gen_c) == gen_c.scale(qhalfpow(-1))
    assert act_left(gen_K, gen_d) == gen_d.scale(qhalfpow(1))


def test_right_action_on_generators():
    assert act_right(gen_c, gen_E) == gen_a
    assert act_right(gen_d, gen_E) == gen_b
    assert act_right(gen_a, gen_E).is_zero()
    assert act_right(gen_b, gen_E).is_zero()
    assert act_right(gen_a, gen_F) == gen_c
    assert act_right(gen_b, gen_F) == gen_d
    assert act_right(gen_c, gen_F).is_zero()
    assert act_right(gen_d, gen_F).is_zero()
    assert act_right(gen_a, gen_K) == gen_a.scale(qhalfpow(-1))
    assert act_right(gen_b, gen_K) == gen_b.scale(qhalfpow(-1))
    assert act_right(gen_c, gen_K) == gen_c.scale(qhalfpow(1))
    assert act_right(gen_d, gen_K) == gen_d.scale(qhalfpow(1))


def test_module_algebra_laws_randomized():
    rng = random.Random(70)
    for _ in range(10):
        x, y = rand_coord(rng, 2, 2), rand_coord(rng, 2, 2)
        for f in (gen_E, gen_F):
            # f |> (xy) = (f_(1) |> x)(f_(2) |> y)
            lhs = act_left(f, x * y)
            rhs = CoordElement.zero()
            for (n1, n2), coeff in uq_coproduct(f).terms.items():
                rhs = rhs + (
                    act_left(UqElement.monomial(n1), x)
                    * act_left(UqElement.monomial(n2), y)
                ).scale(coeff)
            assert lhs == rhs
            # (xy) <| f = (x <| f_(1))(y <| f_(2))
            lhs = act_right(x * y, f)
            rhs = CoordElement.zero()
            for (n1, n2), coeff in uq_coproduct(f).terms.items():
                rhs = rhs + (
                    act_right(x, UqElement.monomial(n1))
                    * act_right(y, UqElement.monomial(n2))
                ).scale(coeff)
            assert lhs == rhs


def test_action_is_action_randomized():
    rng = random.Random(83)
    for _ in range(10):
        f, g = rand_uq(rng, 2, 1), rand_uq(rng, 2, 1)
        x = rand_coord(rng, 2, 2)
        assert act_left(f * g, x) == act_left(f, act_left(g, x))
        assert act_right(x, f * g) == act_right(act_right(x, f), g)


def test_left_right_actions_commute_randomized():
    rng = random.Random(90)
    for _ in range(15):
        f, g = rand_uq(rng, 2, 1), rand_uq(rng, 2, 1)
        x = rand_coord(rng, 3, 2)
        assert act_left(f, act_right(x, g)) == act_right(act_left(f, x), g)


def test_act_star_compatibility_randomized():
    # (f |> x)* = S(f)* |> x*,  (x <| f)* = x* <| S(f)*
    rng = random.Random(101)
    for _ in range(12):
        f = rand_uq(rng, 2, 1)
        x = rand_coord(rng, 3, 2)
        sf_star = uq_star(uq_antipode(f))
        assert act_left(f, x).star() == act_left(sf_star, x.star())
        assert act_right(x, f).star() == act_right(x.star(), sf_star)


def test_r_action_values():
    # R_E(B) = -q^(-1/2) a^2 for B = ac
    B = gen_a * gen_c
    assert r_action(gen_E, B) == (gen_a * gen_a).scale(qhalfpow(-1, -1))
    # R_f is an algebra map composition: R_(fg) = R_f R_g
    rng = random.Random(111)
    for _ in range(8):
        f, g = rand_uq(rng, 2, 1), rand_uq(rng, 2, 1)
        x = rand_coord(rng, 2, 2)
        assert r_action(f * g, x) == r_action(f, r_action(g, x))


def test_actions_reject_localized():
    with pytest.raises(NotInHopfDomain):
        act_left(gen_E, gen_binv)
    with pytest.raises(NotInHopfDomain):
        act_right(gen_binv, gen_E)


def test_cross_relations_in_represented_form():
    # products in the crossed algebra, checked as operators: for any v,
    # E |> (B v) = q B (E |> v) + q^(1/2) (1 - (1+q^2) A) (K |> v)
    rng = random.Random(121)
    A = (gen_b * gen_c).scale(RationalQ.q_power(-1, -1))
    B = gen_a * gen_c
    Bs = (gen_d * gen_b).scale(-1)
    one = CoordElement.one()
    coef = one - A.scale(qpow(2)) - A
    for _ in range(10):
        v = rand_coord(rng, 3, 2)
        # E B = q B E + q^(1/2) (1-(1+q^2)A) K
        lhs = act_left(gen_E, B * v)
        rhs = (B * act_left(gen_E, v)).scale(qpow(1)) + (
            coef * act_left(gen_K, v)
        ).scale(qhalfpow(1))
        assert lhs == rhs
        # E A = A E + q^(-1/2) B* K
        lhs = act_left(gen_E, A * v)
        rhs = A * act_left(gen_E, v) + (Bs * act_left(gen_K, v)).scale(qhalfpow(-1))
        assert lhs == rhs
        # F B* = q^-1 B* F - q^(-1/2) (1-(1+q^2)A) K
        lhs = act_left(gen_F, Bs * v)
        rhs = (Bs * act_left(gen_F, v)).scale(qpow(-1)) - (
            coef * act_left(gen_K, v)
        ).scale(qhalfpow(-1))
        assert lhs == rhs
        # K B = q^-1 B K
        assert act_left(gen_K, B * v) == (B * act_left(gen_K, v)).scale(qpow(-1))
