"""Tests for U_q(su_2), the dual pairing and the actions."""

from functools import cache, reduce
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.coordalg import CoordElement, gen_a, gen_b, gen_c, gen_d
from qsphere.scalar import Q_ONE, Q_ZERO, qhalfpow, qlambda, qpow
from qsphere import uq
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


# a term is +-q^k (k = -1, 0, 1) times a word of at most max_deg generators
coeffs = st.builds(lambda k, sign: qpow(k) * sign, st.integers(-1, 1), st.sampled_from([1, -1]))


def _sums(gens, one, max_deg, terms):
    word = st.lists(st.sampled_from(gens), max_size=max_deg)
    term = st.builds(lambda w, c: reduce(lambda x, y: x * y, w, one).scale(c), word, coeffs)
    return st.lists(term, min_size=terms, max_size=terms).map(lambda ts: sum(ts, one - one))


def uq_elements(max_deg=3, terms=3):
    return _sums(UQ_GENS, UqElement.one(), max_deg, terms)


def coord_elements(max_deg=3, terms=3):
    return _sums(COORD_GENS, CoordElement.one(), max_deg, terms)


# every PBW monomial F^f K^k E^e with e, f <= 2 and |k| <= 2
PBW_SMALL = [UqElement.monomial(m) for m in product(range(3), range(-2, 3), range(3))]


def test_defining_relations():
    lam_inv = qlambda().inverse()
    K2 = gen_K * gen_K
    Km2 = gen_Kinv * gen_Kinv
    assert gen_K * gen_Kinv == UqElement.one()
    assert gen_Kinv * gen_K == UqElement.one()
    assert gen_K * gen_E == (gen_E * gen_K).scale(qpow(1))
    assert gen_F * gen_K == (gen_K * gen_F).scale(qpow(1))
    assert gen_E * gen_F - gen_F * gen_E == (K2 - Km2).scale(lam_inv)


@settings(max_examples=200)
@given(st.lists(st.sampled_from(UQ_GENS), min_size=2, max_size=5), st.data())
def test_pbw_normal_form_confluence_randomized(word, data):
    left = reduce(lambda x, y: x * y, word)
    items = list(word)
    while len(items) > 1:
        i = data.draw(st.integers(0, len(items) - 2))
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


@settings(max_examples=15)
@given(uq_elements(2, 2), uq_elements(2, 2))
def test_coproduct_is_algebra_map_randomized(f, g):
    assert uq_coproduct(f * g) == uq_coproduct(f) * uq_coproduct(g)


def test_counit():
    assert uq_counit(gen_E) == Q_ZERO
    assert uq_counit(gen_F) == Q_ZERO
    assert uq_counit(gen_K) == Q_ONE
    assert uq_counit(gen_K - UqElement.one()) == Q_ZERO


def test_antipode_on_generators():
    assert uq_antipode(gen_K) == gen_Kinv
    assert uq_antipode(gen_Kinv) == gen_K
    assert uq_antipode(gen_E) == gen_E.scale(qhalfpow(2, -1))
    assert uq_antipode(gen_F) == gen_F.scale(qhalfpow(-2, -1))


def _inverse_antipode(f):
    """S^-1(F^f K^k E^e) = (-1)^(e+f) q^(f-e) E^e K^-k F^f, as products."""
    out = UqElement.zero()
    for (ff, kk, ee), c in f.terms.items():
        word = gen_E**ee * UqElement.monomial((0, -kk, 0)) * gen_F**ff
        out = out + word.scale(c * qhalfpow(2 * (ff - ee), (-1) ** (ee + ff)))
    return out


@settings(max_examples=20)
@given(uq_elements(3, 2), coord_elements(2, 2))
def test_inverse_antipode_derived(f, x):
    # S^-1(E) = -q^-1 E and S^-1(F) = -qF, and the closed form g of S^-1(f)
    # inverts S on both sides; r_action applies it without normal ordering
    assert uq_antipode(gen_E.scale(qhalfpow(-2, -1))) == gen_E
    assert uq_antipode(gen_F.scale(qhalfpow(2, -1))) == gen_F
    g = _inverse_antipode(f)
    assert uq_antipode(g) == f
    assert _inverse_antipode(uq_antipode(f)) == f
    assert r_action(f, x) == act_right(x, g)


@settings(max_examples=15)
@given(uq_elements(2, 2), uq_elements(2, 2))
def test_antipode_antihomomorphism_randomized(f, g):
    assert uq_antipode(f * g) == uq_antipode(g) * uq_antipode(f)


@settings(max_examples=15)
@given(uq_elements(2, 2), uq_elements(2, 2))
def test_star(f, g):
    assert uq_star(gen_E) == gen_F
    assert uq_star(gen_F) == gen_E
    assert uq_star(gen_K) == gen_K
    assert uq_star(f * g) == uq_star(g) * uq_star(f)
    assert uq_star(uq_star(f)) == f


def _antipode_convolution(f):
    """m (S (x) id) Delta(f)."""
    acc = UqElement.zero()
    for (m1, m2), coeff in uq_coproduct(f).terms.items():
        acc = acc + (uq_antipode(UqElement.monomial(m1)) * UqElement.monomial(m2)).scale(coeff)
    return acc


@settings(max_examples=10)
@given(uq_elements(2, 2))
def test_hopf_antipode_axiom_randomized(f):
    # m (S (x) id) Delta = eps * 1
    assert _antipode_convolution(f) == UqElement.one().scale(uq_counit(f))


def test_antipode_on_small_pbw_monomials():
    # the Hopf axiom and S S^-1 = id on every F^f K^k E^e with e, f <= 2, |k| <= 2
    for u in PBW_SMALL:
        assert _antipode_convolution(u) == UqElement.one().scale(uq_counit(u)), u
        assert uq_antipode(_inverse_antipode(u)) == u, u


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


@settings(max_examples=10)
@given(uq_elements(2, 2), coord_elements(2, 2))
def test_pairing_unit_laws(f, x):
    assert pair(f, CoordElement.one()) == uq_counit(f)
    assert pair(UqElement.one(), x) == x.counit()


@settings(max_examples=12)
@given(uq_elements(2, 1), uq_elements(2, 1), coord_elements(3, 2), coord_elements(2, 2))
def test_pairing_is_hopf_pairing_randomized(f, g, x, y):
    # <fg, x> = <f, x_(1)> <g, x_(2)>
    lhs = pair(f * g, x)
    rhs = Q_ZERO
    for (m1, m2), coeff in x.coproduct().terms.items():
        rhs = rhs + pair(f, CoordElement.monomial(m1)) * pair(
            g, CoordElement.monomial(m2)
        ) * coeff
    assert lhs == rhs
    # <f, xy> = <f_(1), x> <f_(2), y>
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


@settings(max_examples=10)
@given(coord_elements(2, 2), coord_elements(2, 2))
def test_module_algebra_laws_randomized(x, y):
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


@settings(max_examples=10)
@given(uq_elements(2, 1), uq_elements(2, 1), coord_elements(2, 2))
def test_action_is_action_randomized(f, g, x):
    assert act_left(f * g, x) == act_left(f, act_left(g, x))
    assert act_right(x, f * g) == act_right(act_right(x, f), g)


@settings(max_examples=15)
@given(uq_elements(2, 1), uq_elements(2, 1), coord_elements(3, 2))
def test_left_right_actions_commute_randomized(f, g, x):
    assert act_left(f, act_right(x, g)) == act_right(act_left(f, x), g)


@settings(max_examples=12)
@given(uq_elements(2, 1), coord_elements(3, 2))
def test_act_star_compatibility_randomized(f, x):
    # (f |> x)* = S(f)* |> x*,  (x <| f)* = x* <| S(f)*
    sf_star = uq_star(uq_antipode(f))
    assert act_left(f, x).star() == act_left(sf_star, x.star())
    assert act_right(x, f).star() == act_right(x.star(), sf_star)


@settings(max_examples=8)
@given(uq_elements(2, 1), uq_elements(2, 1), coord_elements(2, 2))
def test_r_action_values(f, g, x):
    # R_E(B) = -q^(-1/2) a^2 for B = ac
    B = gen_a * gen_c
    assert r_action(gen_E, B) == (gen_a * gen_a).scale(qhalfpow(-1, -1))
    # R_f is an algebra map composition: R_(fg) = R_f R_g
    assert r_action(f * g, x) == r_action(f, r_action(g, x))


@settings(max_examples=10)
@given(coord_elements(3, 2))
def test_cross_relations_in_represented_form(v):
    # products in the crossed algebra, checked as operators: for any v,
    # E |> (B v) = q B (E |> v) + q^(1/2) (1 - (1+q^2) A) (K |> v)
    A = (gen_b * gen_c).scale(qhalfpow(-2, -1))
    B = gen_a * gen_c
    Bs = (gen_d * gen_b).scale(-1)
    one = CoordElement.one()
    coef = one - A.scale(qpow(2)) - A
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


@cache
def _act_mono_by_recursion(side, gen, mono):
    """g acting on mono = x y letter by letter through Delta(g) = g (x) K +
    K^-1 (x) g: g.(x y) = (g.x)(K.y) + (K^-1.x)(g.y), peeling the first
    letter x; the closed form of `uq._act_mono` collapses each letter group."""
    letter = next((i for i in range(4) if mono[i] > 0), None)
    if letter is None:
        return CoordElement.zero()
    x = tuple(int(i == letter) for i in range(4))
    rest = tuple(e - u for e, u in zip(mono, x))
    weight = uq.WEIGHT[side]
    out = CoordElement.zero()
    hit = uq.LETTER_ACTION[side, gen].get(letter)
    if hit is not None:
        out = (CoordElement.monomial(hit[0]) * CoordElement.monomial(rest)).scale(
            qhalfpow(weight(rest))
        )
    tail = _act_mono_by_recursion(side, gen, rest)
    if tail:
        out = out + (CoordElement.monomial(x) * tail).scale(qhalfpow(-weight(x)))
    return out


# every normal monomial a^i b^j c^k d^l (i l = 0) of degree at most 10
NORMAL_MONOS = [m for m in product(range(11), repeat=4) if sum(m) <= 10 and not (m[0] and m[3])]


def test_letter_actions_equal_the_recursion():
    assert len(NORMAL_MONOS) == 506
    for side, gen, mono in product("LR", "EF", NORMAL_MONOS):
        assert uq._act_mono(side, gen, mono) == _act_mono_by_recursion(side, gen, mono), (
            side, gen, mono)


def test_letter_action_cache_stays_bounded():
    maxsize = uq._act_mono.cache_parameters()["maxsize"]
    assert maxsize is not None
    for j in range(maxsize + 20):
        uq._act_mono("L", "E", (1, j, 0, 0))
    assert uq._act_mono.cache_info().currsize <= maxsize
    # evicted, recomputed
    assert uq._act_mono("L", "E", (1, 0, 0, 0)) == CoordElement.monomial((0, 1, 0, 0))
