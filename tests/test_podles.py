"""Tests for the quantum-sphere algebra."""

from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsphere.coordalg import CoordElement, gen_a, gen_b, gen_c, gen_d
from qsphere.errors import NotInSubalgebra
from qsphere.podles import (
    PodlesElement,
    _embed_mono,
    embed,
    gen_A,
    gen_B,
    gen_Bs,
    recognize,
    sigma,
)
from qsphere.scalar import Q_ONE, qhalfpow, qpow
from qsphere.uq import act_left, act_right, gen_E, gen_F, gen_K, gen_Kinv, r_action
from tests.test_uq import coeffs


def podles_elements(max_exp=3, terms=3):
    """Sums of `terms` basis monomials A^i B^j (|j| <= max_exp, i <= max_exp)
    with coefficients +-q^k, k = -1, 0, 1."""
    term = st.builds(
        lambda i, j, c: PodlesElement.monomial((i, j), c),
        st.integers(0, max_exp),
        st.integers(-max_exp, max_exp),
        coeffs,
    )
    return st.lists(term, min_size=terms, max_size=terms).map(
        lambda ts: sum(ts, PodlesElement.zero())
    )


def test_defining_relations():
    assert gen_B * gen_A == (gen_A * gen_B).scale(qpow(2))
    assert gen_A * gen_Bs == (gen_Bs * gen_A).scale(qpow(2))
    assert gen_Bs * gen_B == gen_A - gen_A * gen_A
    assert gen_B * gen_Bs == gen_A.scale(qpow(2)) - (gen_A * gen_A).scale(qpow(4))


def test_normal_form_basis():
    x = gen_B * gen_B * gen_Bs
    # no mixed B, B* remains
    assert all(True for _ in x.terms)
    signs = {(j > 0) - (j < 0) for _, j in x.terms if j}
    assert len(signs) <= 1


@settings(max_examples=200)
@given(st.lists(st.sampled_from([gen_A, gen_B, gen_Bs]), min_size=2, max_size=5), st.data())
def test_multiplication_confluence_randomized(word, data):
    left = reduce(lambda x, y: x * y, word)
    items = list(word)
    while len(items) > 1:
        i = data.draw(st.integers(0, len(items) - 2))
        items[i : i + 2] = [items[i] * items[i + 1]]
    assert items[0] == left


def test_crossing_against_the_embedding():
    # B^m B*^k and B*^k B^m, normal-ordered through podles._cross, against
    # the product of their images in the coordinate algebra
    for m in range(1, 5):
        for k in range(1, 5):
            B_m, Bs_k = embed(gen_B**m), embed(gen_Bs**k)
            assert embed(gen_B**m * gen_Bs**k) == B_m * Bs_k, (m, k)
            assert embed(gen_Bs**k * gen_B**m) == Bs_k * B_m, (m, k)


# the images of the generators, whose products the closed form of
# podles._embed_mono replaces
_EMB_A = (gen_b * gen_c).scale(qhalfpow(-2, -1))
_EMB_B = gen_a * gen_c
_EMB_BS = (gen_d * gen_b).scale(-1)


def test_embedded_monomials_equal_the_products_of_the_images():
    # A^i B^j -> (-1)^i q^(-i - j(j-1)/2 - 2ij) a^j b^i c^(i+j) and
    # A^i B*^k -> (-1)^(i+k) q^(-i - k(k+1)/2) b^(i+k) c^i d^k, each the
    # normal-ordered product of the generators' images
    for i, j in product(range(9), range(-8, 9)):
        power = _EMB_A**i * (_EMB_B**j if j >= 0 else _EMB_BS**-j)
        assert _embed_mono((i, j)) == power, (i, j)
        assert embed(PodlesElement.monomial((i, j))) == power, (i, j)


def test_embed_generators():
    assert embed(gen_A) == (gen_b * gen_c).scale(qpow(-1) * -1)
    assert embed(gen_B) == gen_a * gen_c
    assert embed(gen_Bs) == (gen_d * gen_b).scale(-1)
    assert embed(PodlesElement.one()) == CoordElement.one()


@settings(max_examples=30)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_embed_is_algebra_map_randomized(x, y):
    assert embed(x * y) == embed(x) * embed(y)
    assert embed(x + y) == embed(x) + embed(y)


def test_embed_matches_abstract_relations():
    # embed(B*B) equals the normal form of (-db)(ac) and embed(A - A^2);
    # embed(BB*) that of (ac)(-db) and embed(q^2 A - q^4 A^2)
    assert embed(gen_Bs * gen_B) == embed(gen_Bs) * embed(gen_B)
    assert embed(gen_Bs) * embed(gen_B) == embed(gen_A - gen_A * gen_A)
    assert embed(gen_B) * embed(gen_Bs) == embed(gen_A * qpow(2) - gen_A * gen_A * qpow(4))


def test_embed_injective_on_basis():
    # distinct basis monomials map to distinct coordinate monomials
    seen = {}
    for i in range(0, 7):
        for j in range(-6, 7):
            if i + abs(j) > 6:
                continue
            img = embed(PodlesElement.monomial((i, j)))
            assert len(img.terms) == 1
            mono = next(iter(img.terms))
            assert mono not in seen, f"collision {(i, j)} vs {seen[mono]}"
            seen[mono] = (i, j)


@settings(max_examples=20)
@given(podles_elements(2, 2))
@example(gen_A)  # (-q^-1 bc)* = -q^-1 bc: A* = A
@example(gen_B)  # (ac)* = -db: B* = gen_Bs
def test_star_matches_embedding(x):
    assert embed(x.star()) == embed(x).star()


def test_recognize_generators():
    assert recognize(embed(gen_A)) == gen_A
    assert recognize((gen_b * gen_c).scale(qpow(-1) * -1)) == gen_A
    assert recognize(CoordElement.one()) == PodlesElement.one()


@settings(max_examples=40)
@given(podles_elements(3, 3))
def test_recognize_embed_roundtrip_randomized(x):
    assert recognize(embed(x)) == x


def test_recognize_rejects_non_invariant():
    with pytest.raises(NotInSubalgebra):
        recognize(gen_a)
    with pytest.raises(NotInSubalgebra):
        recognize(gen_b)
    with pytest.raises(NotInSubalgebra):
        recognize(embed(gen_A) + gen_a)  # one invariant monomial and one that is not


def test_recognize_accepts_exactly_the_right_K_invariant_monomials():
    # the reference is the defining rule x <| K = x, over every normal
    # monomial a^a b^b c^c d^d (ad = 0) of degree <= 8; the accepted ones are
    # the embeddings of the 25 basis keys A^i B^j with i + |j| <= 4
    accepted = 0
    for a, b, c, d in product(range(9), repeat=4):
        if a * d or a + b + c + d > 8:
            continue
        m = CoordElement.monomial((a, b, c, d))
        invariant = act_right(m, gen_K) == m
        try:
            x = recognize(m)
        except NotInSubalgebra:
            assert not invariant, (a, b, c, d)
        else:
            assert invariant and len(x.terms) == 1 and embed(x) == m, (a, b, c, d)
            accepted += 1
    assert accepted == 25


def test_recognize_r_products():
    # R_F(B) R_E(B*) lies in the sphere algebra
    x = r_action(gen_F, embed(gen_B)) * r_action(gen_E, embed(gen_Bs))
    recognize(x)
    y = r_action(gen_E, embed(gen_B)) * r_action(gen_F, embed(gen_Bs))
    recognize(y)


def test_sigma_on_generators():
    assert sigma(gen_A) == gen_A
    assert sigma(gen_B) == gen_B.scale(qpow(2))
    assert sigma(gen_Bs) == gen_Bs.scale(qpow(-2))
    a3 = gen_A * gen_A * gen_A
    assert sigma(a3) == a3


@settings(max_examples=25)
@given(podles_elements(2, 2), podles_elements(2, 2))
def test_sigma_is_automorphism_randomized(x, y):
    assert sigma(x * y) == sigma(x) * sigma(y)


@settings(max_examples=15)
@given(podles_elements(2, 2))
def test_sigma_agrees_with_module_action_randomized(x):
    # sigma through the module structure, as K^-2 |> x
    assert recognize(act_left(gen_Kinv, act_left(gen_Kinv, embed(x)))) == sigma(x)


@settings(max_examples=30)
@given(st.sampled_from([gen_E, gen_F, gen_K]), podles_elements(2, 2))
def test_sphere_is_stable_under_left_action_randomized(f, x):
    recognize(act_left(f, embed(x)))  # must not raise


def test_render():
    assert str(gen_A * gen_B) == "A*B"
    assert str(gen_Bs * gen_B) == "A - A^2"
