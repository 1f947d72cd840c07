"""Tests for the ladder construction and exact matrices."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qsphere import corep
from qsphere.comb import add_term
from qsphere.coordalg import CoordElement, mono_mul
from qsphere.corep import LADDER, mult_matrix, vplus_vminus_basis
from qsphere.errors import CutoffExceeded
from qsphere.haar import haar_product, inner
from qsphere.podles import PodlesElement, embed, gen_A, gen_B, gen_Bs
from qsphere.scalar import Q_ONE, Q_ZERO, evaluate, qhalfpow, qint
from qsphere.uq import (act_left, act_right, gen_E, gen_F, gen_K, left_weight, r_action,
                       right_weight)


def _ladder(l_max):
    """Both families up to l_max, keyed (2l, 2j, 2k)."""
    return {v.key(): v for family in vplus_vminus_basis(l_max) for v in family}


def test_seed_vector_is_a():
    v = _ladder(Fraction(1, 2))[(1, -1, -1)]
    assert v.elem == CoordElement.monomial((1, 0, 0, 0))
    assert v.norm2 == inner(v.elem, v.elem)


def test_weight_invariants():
    for (twol, twoj, twok), v in _ladder(Fraction(5, 2)).items():
        assert act_right(v.elem, gen_K) == v.elem.scale(qhalfpow(twoj))
        assert act_left(gen_K, v.elem) == v.elem.scale(qhalfpow(twok))


def test_norm2_consistency():
    # the squared norms come from the step factors alone, never from the
    # vectors; through level 4 they are the Haar norms of the built vectors
    for v in _ladder(Fraction(7, 2)).values():
        assert v.norm2 == inner(v.elem, v.elem)
        assert not v.norm2.is_zero()


def test_bottom_norm_closed_form():
    # h((a^m)* a^m) = q^m/[m+1], the norm the ladder's step factors start
    # from at m = 2l, for 2l <= 9
    for m in range(1, 10):
        a_m = CoordElement.monomial((m, 0, 0, 0))
        assert inner(a_m, a_m) == qhalfpow(2 * m) / qint(m + 1), m


def test_orthogonality_up_to_seven_halves():
    vecs = list(_ladder(Fraction(7, 2)).values())
    for i, v in enumerate(vecs):
        for w in vecs[i + 1 :]:
            assert haar_product(w.star_elem(), v.elem) == Q_ZERO


def test_ladder_bottom_annihilated():
    # F |> kills the bottom and E |> the top of each k-ladder; at l = 1/2
    # the families are the two ends of the j-ladder, which R_E and R_F kill
    ladder = _ladder(Fraction(5, 2))
    for (twol, twoj, twok), v in ladder.items():
        if twok == -twol:
            assert act_left(gen_F, v.elem).is_zero()
        if twok == twol:
            assert act_left(gen_E, v.elem).is_zero()
    assert r_action(gen_E, ladder[(1, -1, -1)].elem).is_zero()
    assert r_action(gen_F, ladder[(1, 1, 1)].elem).is_zero()


def test_dirac_eigenvalue_ladder_identity():
    # with w_{1/2,k} = -R_F w_{-1/2,k}: R_E(w_{1/2,k}) = -[n]^2 w_{-1/2,k}
    # exactly, where [n]^2 = alpha^2 for the step j = -1/2 -> 1/2 and
    # n = l + 1/2 is the absolute Dirac eigenvalue
    ladder = _ladder(Fraction(7, 2))
    for twol in (1, 3, 5, 7):
        n = (twol + 1) // 2
        for twok in range(-twol, twol + 1, 2):
            up = ladder[(twol, 1, twok)]
            down = ladder[(twol, -1, twok)]
            assert r_action(gen_E, up.elem) == down.elem.scale(-qint(n) * qint(n))
            # norm ratio matches the same factor
            assert up.norm2 == down.norm2 * qint(n) * qint(n)
            # and -R_F raises back by construction
            assert r_action(gen_F, down.elem) == -up.elem


def test_vplus_vminus_membership():
    vplus, vminus = vplus_vminus_basis(Fraction(5, 2))
    for v in vplus:
        assert act_right(v.elem, gen_K) == v.elem.scale(qhalfpow(1))
    for v in vminus:
        assert act_right(v.elem, gen_K) == v.elem.scale(qhalfpow(-1))
    assert len(vplus) == len(vminus) == 2 + 4 + 6


def test_sphere_multiplication_preserves_families():
    # x * v stays inside the same family span: expanding A * v over the
    # V+ basis reproduces the element exactly (no residual)
    vplus, _ = vplus_vminus_basis(Fraction(7, 2))
    m = mult_matrix(gen_A, vplus, vplus)
    for beta in vplus:
        if beta.key() in m.untrusted_cols:
            continue
        u = embed(gen_A) * beta.elem
        acc = CoordElement.zero()
        for alpha in vplus:
            c = m.entry(alpha.key(), beta.key())
            if not c.is_zero():
                acc = acc + alpha.elem.scale(c)
        assert acc == u


def test_left_action_preserves_families():
    vplus, vminus = vplus_vminus_basis(2)
    for fam, tj in ((vplus, 1), (vminus, -1)):
        for v in fam[:6]:
            w = act_left(gen_E, v.elem)
            if w.is_zero():
                continue
            assert act_right(w, gen_K) == w.scale(qhalfpow(tj))


def test_mult_matrix_identity():
    vplus, _ = vplus_vminus_basis(2)
    m = mult_matrix(PodlesElement.one(), vplus, vplus)
    for a in vplus:
        for b in vplus:
            expected = Q_ONE if a.key() == b.key() else Q_ZERO
            assert m.entry(a.key(), b.key()) == expected
    assert not m.untrusted_cols


def test_mult_matrix_A_is_block_banded():
    # multiplication by A couples l to l and l +- 1 only (exact computation
    # at l_max = 4 is the oracle)
    vplus, _ = vplus_vminus_basis(4)
    m = mult_matrix(gen_A, vplus, vplus)
    for (rk, ck), v in m.entries.items():
        assert abs(rk[0] - ck[0]) <= 2
        assert rk[2] == ck[2]  # A has left weight 0: k preserved
        assert not v.is_zero()
    # some l -> l+1 coupling really occurs
    assert any(rk[0] != ck[0] for (rk, ck) in m.entries)


def test_mult_matrix_star_adjacency():
    # (B w_beta, w_alpha) = (w_beta, B* w_alpha), i.e. the matrices of B and
    # B* are adjoint up to the norm weights
    vplus, _ = vplus_vminus_basis(3)
    mb = mult_matrix(gen_B, vplus, vplus)
    mbs = mult_matrix(gen_Bs, vplus, vplus)
    for alpha in vplus:
        for beta in vplus:
            if beta.key() in mb.untrusted_cols or alpha.key() in mbs.untrusted_cols:
                continue
            lhs = mb.entry(alpha.key(), beta.key()) * alpha.norm2
            rhs = mbs.entry(beta.key(), alpha.key()) * beta.norm2
            assert lhs == rhs


def test_mult_matrix_untrusted_boundary():
    vplus, _ = vplus_vminus_basis(2)
    m = mult_matrix(gen_A, vplus, vplus)
    top = max(v.twol for v in vplus)
    for v in vplus:
        flagged = v.key() in m.untrusted_cols
        assert flagged == (v.twol + 2 > top)


def test_mult_matrix_builds_few_vectors_past_its_range(monkeypatch):
    # expanding the boundary columns at l <= 7/2 reads only the lowest
    # vectors of spin 9/2, so its E-chains stay short
    monkeypatch.setattr(corep, "LADDER", corep.Ladder())
    for family in vplus_vminus_basis(Fraction(7, 2)):
        for x in (gen_A, gen_B, gen_Bs):
            mult_matrix(x, family, family)
    built = {s: len(corep.LADDER._chains[s, 5]) for s in (1, -1)}
    assert max(built.values()) <= 3, built


def _f_step(x):
    return -r_action(gen_F, x)


def f_chain_mismatches(ladder, levels):
    """(s, n) where the bottom vector w_{s,n,-2l} differs from a^(2l)
    raised by (2l + s)/2 steps w -> -R_F w, compared exactly."""
    bad = []
    for n in levels:
        for s in (1, -1):
            w = {(2 * n - 1, 0, 0, 0): ladder.value(Q_ONE)}
            for _ in range((2 * n - 1 + s) // 2):
                w = ladder.apply(_f_step, w)
            if ladder.vector((s, n, 1 - 2 * n)).terms != w:
                bad.append((s, n))
    return bad


def test_bottom_vectors_equal_the_f_chain():
    # the closed form q^(F - n(n-1)/2) [T]!/[T-F]! a^(T-F) c^F over
    # Q(q^(1/2)) through level 8
    assert f_chain_mismatches(corep.Ladder(), range(1, 9)) == []


def test_cutoff_guard():
    with pytest.raises(CutoffExceeded):
        vplus_vminus_basis(50)


@pytest.mark.parametrize("x", [PodlesElement.one(), gen_A, gen_B, gen_Bs], ids=str)
def test_mult_matrix_matches_haar_projection(x):
    # the expansion against an independent reference, the projection
    # (x w_beta, w_alpha) = h(w_alpha* x w_beta) through the closed-form
    # Haar state, on every (alpha, beta) including untrusted columns
    y = embed(x)
    for family in vplus_vminus_basis(Fraction(5, 2)):
        m = mult_matrix(x, family, family)
        for beta in family:
            u = y * beta.elem
            for alpha in family:
                entry = m.entry(alpha.key(), beta.key())
                assert entry * alpha.norm2 == haar_product(alpha.star_elem(), u)


def product(ladder, xs, ys):
    """Reference product xs ys of two dicts of terms in the ladder's field,
    monomial by monomial."""
    out = {}
    for m1, c1 in xs.items():
        for m2, c2 in ys.items():
            c = c1 * c2
            for mono, w in mono_mul(m1, m2):
                add_term(out, mono, c * ladder.value(w))
    return out


def expand_by_weight(ladder, u):
    """Reference expansion of any u: its parts of right weight +-1, grouped
    by (right, left) weight as first met, each solved by `Ladder.expand`;
    the parts of other right weights are orthogonal to both families."""
    groups = {}
    for m, c in u.items():
        if abs(right_weight(m)) == 1:
            groups.setdefault((right_weight(m), left_weight(m)), {})[m] = c
    out = {}
    for part in groups.values():
        out.update(ladder.expand(part))
    return out


def assert_one_weight_contract(ladder):
    """`Ladder.expand` on level 2: a vector expands to itself, a product of
    right weight +-1 to something, one of right weight +-3 to {}, and a sum
    of vectors of two weights raises ArithmeticError rather than returning
    the solve of its first weight."""
    one = ladder.value(Q_ONE)
    w = {(s, twok): ladder.vector((s, 2, twok)).terms for s in (1, -1) for twok in (-1, 1)}
    for (s, twok), terms in w.items():
        assert ladder.expand(terms) == {(s, 2, twok): one}
        for mono in ((0, 0, 2, 0), (2, 0, 0, 0)):  # c^2 and a^2, right weights 2 and -2
            u = product(ladder, {mono: one}, terms)
            r = right_weight(next(iter(u)))
            assert (ladder.expand(u) == {}) == (abs(r) == 3), (s, twok, mono, r)
    for a, b in (((1, -1), (1, 1)), ((1, 1), (-1, 1)), ((-1, 1), (1, -1))):
        with pytest.raises(ArithmeticError):
            ladder.expand({**w[a], **w[b]})


def test_expand_solves_one_weight():
    # over Q(q^(1/2)) on the exact ladder
    assert_one_weight_contract(LADDER)


# the operands of the covariance recursion's tests, with chains E^i |> x of
# length 1 to 4
RECURSION_OPERANDS = (
    PodlesElement.one(), gen_A, gen_B, gen_Bs, gen_A * gen_B, gen_Bs * gen_B,
)


def expand_mul_mismatches(ladder, x, levels):
    """Columns (s, n, 2k) where `expand_mul` differs from the solve per
    column, the expansion of x w, compared exactly before any rounding."""
    xs = ladder.terms(embed(x))
    bad = []
    for s in (1, -1):
        for n in levels:
            cols = ladder.expand_mul(ladder.e_chain(xs), s, n)
            for twok in range(-(2 * n - 1), 2 * n, 2):
                w = ladder.vector((s, n, twok)).terms
                if cols[twok] != expand_by_weight(ladder, product(ladder, xs, w)):
                    bad.append((s, n, twok))
    return bad


@pytest.mark.parametrize("x", RECURSION_OPERANDS, ids=str)
def test_expand_mul_equals_the_solve_per_column(x):
    # over Q(q^(1/2)) on the exact ladder, l <= 5/2
    assert expand_mul_mismatches(LADDER, x, range(1, 4)) == []


def lowest_column_mismatches(ladder, x, levels):
    """(s, n, i) where the lowest column of E^i |> x, combined from the
    per-monomial expansions, differs from the solve of (E^i |> x)
    w_{s,n,-2l} by weight, in a value or in the order of its keys."""
    bad = []
    for s in (1, -1):
        for n in levels:
            bottom = ladder.vector((s, n, 1 - 2 * n)).terms
            for i, xs in enumerate(ladder.e_chain(ladder.terms(embed(x)))):
                want = expand_by_weight(ladder, product(ladder, xs, bottom))
                if list(ladder._lowest_column(xs, s, n).items()) != list(want.items()):
                    bad.append((s, n, i))
    return bad


@pytest.mark.parametrize("x", [gen_A, gen_B, gen_Bs, gen_A * gen_B, gen_Bs * gen_B,
                               PodlesElement.one() + gen_A.scale(qhalfpow(2)),
                               gen_B * gen_B * gen_Bs + gen_A * gen_A], ids=str)
def test_lowest_columns_per_monomial_equal_the_solve(x):
    # over Q(q^(1/2)) on the exact ladder, l <= 7/2; in the last three the
    # monomials of one chain member reach the levels in different orders,
    # and the last mixes left weights
    assert lowest_column_mismatches(LADDER, x, range(1, 5)) == []


def test_e_chains_of_the_generators_share_four_monomials(monkeypatch):
    # the chains of A, B and B* read the monomials bc, bd, ac and 1 alone,
    # so a level of M(A), M(B) and M(B*) solves four products
    monkeypatch.setattr(corep, "LADDER", corep.Ladder())
    for x in (gen_A, gen_B, gen_Bs):
        corep.LADDER.expand_mul(corep.LADDER.e_chain(corep.LADDER.terms(embed(x))), 1, 3)
    assert sorted(corep.LADDER._lowest[1, 3]) == [(0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0),
                                                 (1, 0, 1, 0)]


def test_ladder_vectors_read_norms_on_demand():
    # building vectors fills no norm table; a vector past the cutoff is
    # refused before any chain is built
    ladder = corep.Ladder()
    v = ladder.vector((1, 3, 1))
    assert not ladder._norms
    assert v.norm2 == inner(CoordElement._raw(v.terms), CoordElement._raw(v.terms))
    assert set(ladder._norms) == {(1, 3)}
    with pytest.raises(CutoffExceeded):
        ladder.vector((-1, corep.MAX_TWOL // 2 + 2, 1))
    assert set(ladder._chains) <= {(1, 3), (-1, 3)}


def _j0_image(x):
    """J0 x = i (K |> x* <| K) up to the factor i."""
    return act_left(gen_K, act_right(x.star(), gen_K))


def j0_coefficients(ladder, levels):
    """{(s, n, 2k): c} with J0 w_{s,n,2k} = i c w_{-s,n,-2k}, from the
    expansion of the exact image in the ladder: asserts that it has that
    one term and that c^2 N_{-s,n,-2k} = N_{s,n,2k}."""
    out = {}
    for n in levels:
        for (s, twok), v in ladder.level(n).items():
            image = ladder.expand(ladder.apply(_j0_image, v.terms))
            assert list(image) == [(-s, n, -twok)], (s, n, twok)
            c = out[s, n, twok] = image[-s, n, -twok]
            assert c * c * ladder.vector((-s, n, -twok)).norm2 == v.norm2, (s, n, twok)
    return out


def test_j0_is_a_signed_permutation():
    # over Q(q^(1/2)), l <= 7/2: c^2 is a ratio of Haar norms, positive on
    # 0 < q < 1, so c has one sign there, its sign at q = 1/4
    for (s, n, twok), c in j0_coefficients(LADDER, range(1, 5)).items():
        sign = math.copysign(1, evaluate(c, Fraction(1, 4)))
        assert sign == s * (-1) ** ((twok - 1) // 2), (s, n, twok)


def test_exact_layer_does_not_import_numpy():
    # numpy costs the exact layer about 12 MB of resident memory
    src = os.path.dirname(os.path.dirname(corep.__file__))
    code = "import sys, qsphere.corep, qsphere.fodc, qsphere.haar; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
