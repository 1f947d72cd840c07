"""Tests for the differential calculus and the twisted cyclic cocycle."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsphere import fodc
from qsphere.coordalg import gen_a, gen_b, gen_c, gen_d
from qsphere.errors import ArityError
from qsphere.fodc import (
    Chain,
    Cochain,
    OneForm,
    TAU,
    act_on_chain,
    b_sigma,
    b_sigma_chain,
    differential,
    eta,
    lambda_sigma,
    lambda_sigma_chain,
    localized_commutator_check,
    pair_chain,
    r_e,
    r_f,
    tau,
    tau_via_volume,
    volume_check,
    wedge_coeff,
    wedge_kernel,
)
from qsphere.haar import haar, haar_sum, haar_value_A
from qsphere.podles import PodlesElement, embed, gen_A, gen_B, gen_Bs, sigma
from qsphere.scalar import Q_ZERO, RationalQ, qhalfpow, qlambda, qpow, sum_products
from qsphere.uq import gen_E, gen_F, gen_K, r_action, uq_counit
from tests.test_podles import podles_elements

one = PodlesElement.one()


def lmul(x: PodlesElement, w: OneForm) -> OneForm:
    """The left module action x w on a one-form."""
    y = embed(x)
    return OneForm(y * w.fcomp, y * w.ecomp)


def rmul(w: OneForm, x: PodlesElement) -> OneForm:
    """The right module action w x on a one-form."""
    y = embed(x)
    return OneForm(w.fcomp * y, w.ecomp * y)


def basis_monos(max_exp=3):
    """Basis monomials A^i B^j with i <= max_exp and |j| <= max_exp."""
    return st.builds(
        lambda i, j: PodlesElement.monomial((i, j)),
        st.integers(0, max_exp),
        st.integers(-max_exp, max_exp),
    )


# -- generator tables ---------------------------------------------------------


def test_r_values_on_generators():
    from qsphere.coordalg import gen_a, gen_b, gen_c, gen_d

    assert r_e(gen_B) == (gen_a * gen_a).scale(qhalfpow(-1, -1))
    assert r_e(gen_Bs) == (gen_b * gen_b).scale(qhalfpow(-3))
    assert r_e(gen_A) == (gen_b * gen_a).scale(qhalfpow(-3))
    assert r_f(gen_B) == (gen_c * gen_c).scale(qhalfpow(3, -1))
    assert r_f(gen_Bs) == (gen_d * gen_d).scale(qhalfpow(1))
    assert r_f(gen_A) == (gen_d * gen_c).scale(qhalfpow(1))


def test_differential_components():
    from qsphere.coordalg import gen_a, gen_c, gen_d

    assert differential(one).is_zero()
    # ecomp of dB is q^(1/2) R_E(B) = -a^2
    assert differential(gen_B).ecomp == (gen_a * gen_a).scale(-1)
    # fcomp of dA is q^(-1/2) R_F(A) = dc
    assert differential(gen_A).fcomp == gen_d * gen_c


@settings(max_examples=20)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_leibniz_rule_randomized(x, y):
    lhs = differential(x * y)
    rhs = rmul(differential(x), y) + lmul(x, differential(y))
    assert lhs.fcomp == rhs.fcomp and lhs.ecomp == rhs.ecomp


def test_bimodule_units():
    w = differential(gen_A)
    assert lmul(one, w).fcomp == w.fcomp
    assert rmul(w, one).ecomp == w.ecomp


@settings(max_examples=20)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_derivation_property_randomized(x, y):
    # R_E and R_F are derivations on the sphere
    assert r_e(x * y) == embed(x) * r_e(y) + r_e(x) * embed(y)
    assert r_f(x * y) == embed(x) * r_f(y) + r_f(x) * embed(y)


# -- wedge and volume ---------------------------------------------------------


@settings(max_examples=15)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_wedge_kernel_closed_in_sphere(x, y):
    wedge_kernel(x, y)  # must not raise


def test_wedge_of_unit_vanishes():
    assert wedge_coeff([(one, one)], [(one, gen_A)]).is_zero()
    assert wedge_coeff([(one, gen_A)], [(one, one)]).is_zero()


@settings(max_examples=10)
@given(podles_elements(2, 2))
def test_wedge_leibniz_reduction_consistent(x):
    # compute pi(dA ^ x dA) two ways: direct reduction and after expanding
    # the middle coefficient with the Leibniz rule
    direct = wedge_coeff([(one, gen_A)], [(x, gen_A)])
    # dA x = d(Ax) - A dx
    expanded = wedge_coeff([(one, gen_A * x)], [(one, gen_A)]) - wedge_coeff(
        [(gen_A, x)], [(one, gen_A)]
    )
    assert direct == expanded


def test_volume_check_is_one():
    assert volume_check() == one


def test_volume_summands_stay_in_sphere():
    # already enforced by the return type; spot check a mixed product
    from qsphere.fodc import _P_MATRIX

    for i in (1, 2):
        for j in (1, 2):
            wedge_kernel(_P_MATRIX[(i, j)], _P_MATRIX[(j, i)])


@settings(max_examples=10)
@given(podles_elements(1, 2), podles_elements(1, 2), podles_elements(1, 2))
def test_volume_coefficient_is_central_randomized(y, z, x):
    # pi(x dy ^ dz) = x pi(dy ^ dz): a factor x in the x0 slot multiplies
    # the coefficient of the volume form from the left
    rhs = wedge_coeff([(x, y)], [(one, z)])
    assert x * wedge_coeff([(one, y)], [(one, z)]) == rhs


def test_dsquared_vanishes_on_generators():
    # d(dx) = 0: the wedge coefficient of d(1) dx-type inputs vanishes; in
    # reduced form d^2 x corresponds to pi(d1 ^ dx) with a Leibniz fold
    for g in (gen_A, gen_B, gen_Bs):
        assert wedge_coeff([(one, one)], [(one, g)]).is_zero()


@settings(max_examples=10)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_quantum_tangent_space_consistency_randomized(x, y):
    # if sum_i x_i dy_i = 0 componentwise then sum_i x_i R_E(y_i) = 0 and
    # sum_i x_i R_F(y_i) = 0; build such relations from the Leibniz rule:
    # dx y + x dy - d(xy) = 0
    combo = rmul(differential(x), y) + lmul(x, differential(y)) - differential(
        x * y
    )
    assert combo.is_zero()
    # hence the E- and F-components vanish separately
    assert (
        embed(x) * r_e(y) + r_e(x) * embed(y) - r_e(x * y)
    ).is_zero()


# -- inner derivations ---------------------------------------------------------


def test_localized_commutators_on_generators():
    for g in (gen_A, gen_B, gen_Bs):
        ok_f, ok_e = localized_commutator_check(g)
        assert ok_f and ok_e


@settings(max_examples=15)
@given(podles_elements(4, 3))
def test_localized_commutators_randomized(x):
    ok_f, ok_e = localized_commutator_check(x)
    assert ok_f and ok_e


def test_inner_derivation_needs_the_twist():
    # without t = K^-1 |> x the right-multiplied identities fail: b x != x b
    y, lam_inv = embed(gen_B), qlambda().inverse()
    untwisted_f = (gen_d * y - y * gen_d).scale(qhalfpow(1) * lam_inv)
    assert r_f(gen_B) * gen_b != untwisted_f
    untwisted_e = (gen_a * y - y * gen_a).scale(qhalfpow(-1, -1) * lam_inv)
    assert r_e(gen_B) * gen_c != untwisted_e


# -- twisted cyclic cohomology ------------------------------------------------


@settings(max_examples=1)
@example(gen_A + gen_B, gen_Bs, gen_A * gen_B, gen_A * gen_A + gen_Bs)
@example(gen_Bs * gen_B, gen_A + one, gen_B.scale(qpow(-1)), gen_Bs - gen_A)
@given(*[podles_elements(2, 2)] * 4)
def test_tau_trilinear(x, y, z, w):
    c = qpow(1)
    assert tau(x + y.scale(c), z, w) == tau(x, z, w) + tau(y, z, w) * c
    assert tau(x, y + z, w) == tau(x, y, w) + tau(x, z, w)
    assert tau(x, y, z + w.scale(c)) == tau(x, y, z) + tau(x, y, w) * c


def test_tau_closed_forms_on_generators():
    # tau at the generator triples, against the closed forms in h(A^j)
    h = haar_value_A
    h1, h2, h3 = h(1), h(2), h(3)
    assert tau(gen_Bs, gen_A, gen_B) == (qpow(2) - qpow(-4)) * (h3 - h2) + qpow(-2) * (
        h2 - h1
    )
    assert tau(gen_Bs, gen_B, gen_A) == (qpow(4) - qpow(-2)) * (h3 - h2) - qpow(2) * (
        h2 - h1
    )
    assert tau(gen_A, gen_A, gen_A) == (qpow(-2) - qpow(4)) * h3 - (
        qpow(-2) - qpow(2)
    ) * h2


@settings(max_examples=1)
@example(gen_A * gen_B + gen_Bs)
@given(podles_elements(2, 2))
def test_tau_degenerate_inputs(x):
    assert tau(one, one, x) == Q_ZERO
    assert tau(x, one, one) == Q_ZERO


def test_tau_eta_is_minus_one():
    assert pair_chain(TAU, eta()) == RationalQ(-1)


def test_tau_eta_via_cyclicity_shortcut():
    t1 = tau(gen_Bs, gen_A, gen_B)
    t2 = tau(gen_Bs, gen_B, gen_A)
    t3 = tau(gen_A, gen_A, gen_A)
    value = t1 * 3 - t2 * qpow(-2) * 3 + t3 * (qpow(6) - qpow(-2))
    assert value == RationalQ(-1)


def _oracle_b_sigma_eta(qfrac):
    """Independent brute-force boundary of eta over the abstract relations,
    at an exact rational q (no package machinery)."""

    def mul(m1, m2, q):
        (i1, j1), (i2, j2) = m1, m2
        scal = Fraction(q) ** (2 * j1 * i2)
        if j1 == 0 or j2 == 0 or (j1 > 0) == (j2 > 0):
            return {(i1 + i2, j1 + j2): scal}
        if j1 > 0:
            mid = {(1, 0): q**2, (2, 0): -(q**4)}
            l, r = (0, j1 - 1), (0, j2 + 1)
        else:
            mid = {(1, 0): Fraction(1), (2, 0): Fraction(-1)}
            l, r = (0, j1 + 1), (0, j2 - 1)
        out = {}
        for mk, mv in mid.items():
            for k1, v1 in mul(l, mk, q).items():
                for k2, v2 in mul(k1, r, q).items():
                    out[k2] = out.get(k2, Fraction(0)) + mv * v1 * v2 * scal
        return {k: v for k, v in out.items() if v}

    q = Fraction(qfrac)
    A, B, Bs = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}, {(0, -1): Fraction(1)}
    sig = lambda x: {k: v * q ** (2 * k[1]) for k, v in x.items()}
    terms = [
        (Fraction(1), Bs, A, B),
        (q**2, B, Bs, A),
        (q**2, A, B, Bs),
        (-(q**-2), Bs, B, A),
        (-(q**-2), A, Bs, B),
        (Fraction(-1), B, A, Bs),
        (q**6 - q**-2, A, A, A),
    ]
    bs = {}
    for c, x0, x1, x2 in terms:
        for u, cu in _elem_mul(x0, x1, q, mul).items():
            for m2, c2 in x2.items():
                bs[(u, m2)] = bs.get((u, m2), Fraction(0)) + c * cu * c2
        for m0, c0 in x0.items():
            for u, cu in _elem_mul(x1, x2, q, mul).items():
                bs[(m0, u)] = bs.get((m0, u), Fraction(0)) - c * c0 * cu
        for u, cu in _elem_mul(sig(x2), x0, q, mul).items():
            for m1, c1 in x1.items():
                bs[(u, m1)] = bs.get((u, m1), Fraction(0)) + c * cu * c1
    return {k: v for k, v in bs.items() if v}


def _elem_mul(x, y, q, mul):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            for m, c in mul(m1, m2, q).items():
                out[m] = out.get(m, Fraction(0)) + c1 * c2 * c
    return {k: v for k, v in out.items() if v}


def test_b_sigma_eta_value_with_independent_oracle():
    # the boundary of eta is (q^4 - q^-2) A (x) A; the oracle recomputes it
    # from the abstract relations alone at exact rational points
    got = b_sigma_chain(eta())
    expected = Chain.of(gen_A, gen_A).scale(qpow(4) - qpow(-2))
    assert got == expected
    for qv in (Fraction(1, 2), Fraction(2, 3)):
        oracle = _oracle_b_sigma_eta(qv)
        assert set(oracle) == {((1, 0), (1, 0))}
        assert oracle[((1, 0), (1, 0))] == Fraction(qv) ** 4 - Fraction(qv) ** -2


def test_lambda_sigma_eta_fixed():
    assert lambda_sigma_chain(eta()) == eta()


def test_b_sigma_eta_nonzero():
    assert not b_sigma_chain(eta()).is_zero()


def test_cyclic_one_cocycle_vanishes_on_AA():
    # for any twisted cyclic 1-cocycle phi, cyclicity forces phi(A, A) = 0:
    # lambda_sigma(phi)(A, A) = -phi(sigma(A), A) = -phi(A, A)
    phi = Cochain(2, lambda x, y: TAU.content(x, y, gen_B), "truncated")
    lam = lambda_sigma(phi)
    assert lam(gen_A, gen_A) == -phi(sigma(gen_A), gen_A)


@settings(max_examples=60)
@given(st.lists(basis_monos(), min_size=4, max_size=4))
def test_tau_is_cocycle_randomized(xs):
    assert b_sigma(TAU)(*xs) == Q_ZERO


@settings(max_examples=60)
@given(st.lists(basis_monos(), min_size=3, max_size=3))
def test_tau_is_cyclic_randomized(xs):
    assert lambda_sigma(TAU)(*xs) == tau(*xs)


@settings(max_examples=8)
@given(st.data())
def test_tau_uq_invariant_randomized(data):
    for f in (gen_E, gen_F, gen_K):
        chain = Chain.of(*data.draw(st.lists(basis_monos(2), min_size=3, max_size=3)))
        acted = act_on_chain(f, chain)
        assert pair_chain(TAU, acted) == uq_counit(f) * pair_chain(TAU, chain)


@settings(max_examples=25)
@given(podles_elements(2, 2), podles_elements(2, 2), podles_elements(2, 2))
def test_tau_matches_volume_route_randomized(x0, x1, x2):
    assert tau(x0, x1, x2) == tau_via_volume(x0, x1, x2)


@settings(max_examples=15)
@given(podles_elements(2, 2), podles_elements(2, 2), podles_elements(2, 2))
def test_tau_matches_h_of_the_built_product_randomized(x0, x1, x2):
    kernel = embed(wedge_kernel(x1, x2))
    assert tau(x0, x1, x2) == haar(embed(x0) * kernel)


@settings(max_examples=20)
@given(podles_elements(2, 2))
def test_cached_derivations_equal_fresh_ones(x):
    for r, f in ((r_e, gen_E), (r_f, gen_F)):
        first = r(x)
        assert r(x) is first
        assert first == r_action(f, embed(x))


def test_derivation_caches_stay_bounded():
    for r, f in ((r_e, gen_E), (r_f, gen_F)):
        maxsize = r.cache_parameters()["maxsize"]
        assert maxsize is not None
        for k in range(1, maxsize + 20):
            r(gen_A.scale(k))
        assert r.cache_info().currsize <= maxsize
        assert r(gen_A.scale(3)) == r_action(f, embed(gen_A)).scale(3)  # evicted, recomputed


def test_arity_guards():
    with pytest.raises(ArityError):
        pair_chain(TAU, Chain.of(gen_A, gen_A))
    with pytest.raises(ArityError):
        TAU(gen_A, gen_A)


def test_tau_is_memoised_per_triple():
    assert fodc.tau.cache_parameters()["maxsize"] == 256
    fodc.tau(gen_A, gen_B, gen_Bs)
    hits = fodc.tau.cache_info().hits
    assert fodc.tau(gen_A, gen_B, gen_Bs) == fodc.tau_via_volume(gen_A, gen_B, gen_Bs)
    assert fodc.tau.cache_info().hits == hits + 1


# -- cochains held by Haar contents ---------------------------------------------

# tau with its last two slots swapped, and tau with its last slot fixed to B:
# cochains whose coboundaries are not zero
SWAPPED = Cochain(3, lambda x0, x1, x2: TAU.content(x0, x2, x1), "swapped")
TRUNCATED = Cochain(2, lambda x, y: TAU.content(x, y, gen_B), "truncated")
COCHAINS = (TAU, SWAPPED, TRUNCATED)


def _b_sigma_by_values(phi, xs):
    """b_sigma phi at xs by the per-value route: phi's reduced values,
    joined by `sum_products`."""
    vals = [phi(*xs[:j], xs[j] * xs[j + 1], *xs[j + 2 :]) for j in range(phi.arity)]
    vals.append(phi(sigma(xs[-1]) * xs[0], *xs[1:-1]))
    return sum_products((v, RationalQ((-1) ** j)) for j, v in enumerate(vals))


@settings(max_examples=25)
@given(st.data())
@example(None)
def test_content_route_of_b_sigma_equals_the_value_route(data):
    # the example: coboundaries that are not zero, each with a wrap term
    # that is not zero either
    for phi in COCHAINS:
        if data is None:
            xs = {3: [gen_A, gen_A, gen_B, gen_Bs], 2: [gen_A, gen_A, gen_Bs]}[phi.arity]
            if phi is not TAU:
                assert b_sigma(phi)(*xs) and phi(sigma(xs[-1]) * xs[0], *xs[1:-1])
        else:
            xs = data.draw(st.lists(basis_monos(), min_size=phi.arity + 1,
                                    max_size=phi.arity + 1))
        assert b_sigma(phi)(*xs) == _b_sigma_by_values(phi, xs)


@settings(max_examples=25)
@given(st.data())
def test_content_route_of_lambda_sigma_equals_the_value_route(data):
    for phi in COCHAINS:
        xs = data.draw(st.lists(basis_monos(), min_size=phi.arity, max_size=phi.arity))
        sign = RationalQ((-1) ** (phi.arity - 1))
        assert lambda_sigma(phi)(*xs) == phi(sigma(xs[-1]), *xs[:-1]) * sign


@settings(max_examples=25)
@given(st.data())
@example(None)
def test_the_shared_maps_are_dual_on_chains_and_cochains(data):
    # <b_sigma phi, xs> = <phi, b_sigma xs> and <lambda_sigma phi, xs> =
    # <phi, lambda_sigma xs>: both sides sum phi over the same signed
    # arguments; the example has values that are not zero for every phi
    fixed = {2: [gen_A, gen_Bs], 3: [gen_A, gen_B, gen_Bs], 4: [gen_A, gen_A, gen_B, gen_Bs]}
    for phi in COCHAINS:
        for op, op_chain, n in ((b_sigma, b_sigma_chain, phi.arity + 1),
                                (lambda_sigma, lambda_sigma_chain, phi.arity)):
            if data is None:
                xs = fixed[n]
            else:
                xs = data.draw(st.lists(basis_monos(), min_size=n, max_size=n))
            assert op(phi)(*xs) == pair_chain(phi, op_chain(Chain.of(*xs)))


def test_a_cochain_is_h_of_its_content():
    xs = (gen_Bs, gen_A, gen_B)
    assert SWAPPED(*xs) == tau(gen_Bs, gen_B, gen_A) == haar_sum(SWAPPED.content(*xs))
    assert pair_chain(SWAPPED, eta()) == sum_products((SWAPPED(*ys), c) for c, ys in eta().slots())
    assert pair_chain(SWAPPED, eta()) != Q_ZERO


def test_coboundary_of_tau_applies_h_once(monkeypatch):
    # one Haar sum per value of b_sigma(TAU) or lambda_sigma(TAU), and no tau
    # call; the pairing with a chain evaluates tau once per chain term
    sums, taus = [], []
    haar_sum_, tau_ = fodc.haar_sum, fodc.tau
    monkeypatch.setattr(fodc, "haar_sum", lambda acc: sums.append(1) or haar_sum_(acc))
    monkeypatch.setattr(TAU, "evaluator", lambda *xs: taus.append(1) or tau_(*xs))
    assert b_sigma(TAU)(gen_A, gen_B, gen_Bs, gen_A) == Q_ZERO
    assert lambda_sigma(TAU)(gen_A, gen_B, gen_Bs) == tau_(gen_A, gen_B, gen_Bs)
    assert len(sums) == 2 and not taus
    assert pair_chain(TAU, eta()) == RationalQ(-1)
    assert len(sums) == 2 and len(taus) == 7


def test_kernel_memo_is_small_and_shared_with_the_wedge():
    assert fodc._kernel.cache_parameters()["maxsize"] <= 32
    fodc._kernel.cache_clear()
    wedge_kernel(gen_A, gen_B)
    TAU.content(gen_Bs, gen_A, gen_B)
    info = fodc._kernel.cache_info()
    assert (info.hits, info.misses) == (1, 1)
