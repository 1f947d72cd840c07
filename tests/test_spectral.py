"""Tests for the numeric layer: truncated space, operators, zeta function."""

import collections
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere import spectral
from qsphere.coordalg import CoordElement
from qsphere.corep import mult_matrix, vplus_vminus_basis
from qsphere.errors import CutoffExceeded
from qsphere.fodc import differential, tau
from qsphere.haar import haar_product
from qsphere.podles import PodlesElement, embed, gen_A, gen_B, gen_Bs
from qsphere.report import record
from qsphere.scalar import RationalQ, Surd, evaluate, qint
from qsphere.spectral import (
    TruncatedSpace,
    build_J,
    build_mult,
    commutant_checks,
    haar_trace_check,
    qnum,
    residue_check,
    tau_trace_check,
    zeta_merom,
    zeta_series,
)
from qsphere.uq import gen_E, gen_F, r_action
from tests.test_corep import (
    RECURSION_OPERANDS,
    assert_one_weight_contract,
    expand_mul_mismatches,
    f_chain_mismatches,
    j0_coefficients,
    lowest_column_mismatches,
)
from tests.test_scalar import _surd


@functools.cache
def _state_of_product(m1, m2):
    """h(m1* m2) for normal monomials, exact, by the closed form of haar."""
    ((ms, c),) = CoordElement.monomial(m1).star().terms.items()
    return c * haar_product(CoordElement.monomial(ms), CoordElement.monomial(m2))


def build_dirac(space: TruncatedSpace) -> np.ndarray:
    """Dense D: D phi^+_{n,k} = -[n] phi^-_{n,k} and symmetrically, hermitian
    with eigenvalues +-[n] of multiplicity 2n."""
    mat = np.zeros((space.dim, space.dim))
    mat[space.swap, range(space.dim)] = space.dirac
    return mat


def _columns(eng, y):
    """Dict-walk oracle of the engine's level tables: the reader column(key)
    -> {row key: entry} of M(y), each level filled by `expand_mul` and
    `_round` into one dict per column."""
    table = {}

    def column(key):
        if key not in table:
            s, n, _ = key
            for twok, coeffs in eng.expand_mul(eng.e_chain(eng.terms(y)), s, n).items():
                table[s, n, twok] = dict(zip(coeffs, eng._round((s, n, twok), coeffs)))
        return table[key]

    return column


def basis_keys(space):
    """The keys (s, n, 2k) of the basis of space in position order, read
    off its arrays `n` and `twok`."""
    return [(s, n, t) for s in (1, -1) for n, t in zip(space.n.tolist(), space.twok.tolist())]


def to_array(op):
    """The dense matrix of a sparse `Operator`, with no duplicate positions."""
    mat = np.zeros((op.dim, op.dim))
    mat[op.rows, op.cols] = op.vals
    return mat


def _pos(space):
    """{key (s, n, 2k): position} of the basis of space."""
    return {key: i for i, key in enumerate(basis_keys(space))}


def _dict_operator(space, column, top, transpose=False):
    """Dict-walk oracle of `spectral._operator`: (rows, cols, vals) of
    column(key) for each basis key of level n <= top in index order, rows
    mapped through `_pos(space)` and cut off past npad."""
    pos = _pos(space)
    filled = [(i, column(key)) for key, i in pos.items() if key[1] <= top]
    rows = np.array([pos.get(r, -1) for _, col in filled for r in col], dtype=np.intp)
    cols = np.array([i for i, col in filled for _ in col], dtype=np.intp)
    vals = np.array([c for _, col in filled for c in col.values()], dtype=float)
    kept = rows >= 0  # -1 marks a row past npad
    rows, cols = (cols[kept], rows[kept]) if transpose else (rows[kept], cols[kept])
    return rows, cols, vals[kept]


def _matrix(space, column, top, transpose=False):
    """Dense oracle of `spectral._operator`: column(key) for each basis key
    of level n <= top, the others zero; rows past npad cut off.  With
    transpose, column(key) fills row key instead."""
    mat = np.zeros((space.dim, space.dim))
    fill = mat.T if transpose else mat
    pos = _pos(space)
    for key, i in pos.items():
        if key[1] <= top:
            for row, c in column(key).items():
                j = pos.get(row)
                if j is not None:
                    fill[j, i] = c
    return mat


def _dirac_commutator(space: TruncatedSpace, M: np.ndarray) -> np.ndarray:
    """Dense oracle of `spectral._commutator`: [D, M] = d M[P, :] - M[:, P] d."""
    out = M[space.swap]
    out *= space.dirac[:, None]
    M = M[:, space.swap]
    M *= space.dirac
    out -= M
    return out


def dense_tau_record(x0, x1, x2, z, space):
    """Dense oracle of `tau_trace_check`: the complete matrices of M(x0),
    [D, M(x1)] and [D, M(x2)], the BLAS product of the first two and the
    diagonal of its product with the third; its bound from dense row sums."""
    shifts = [spectral._shift(embed(x)) for x in (x0, x1, x2)]
    m0 = to_array(build_mult(x0, space))
    c1, c2 = (_dirac_commutator(space, to_array(build_mult(x, space))) for x in (x1, x2))
    diag = np.einsum("ij,ji->i", m0 @ c1, c2)
    bound = abs(m0).sum(1) * abs(c1).sum(1).max() * abs(c2).sum(1).max()
    return spectral._trace_record("tau_trace", {}, diag, -space.q0**2, space.npad - sum(shifts),
                                  tau(x0, x1, x2), z, space, sum(shifts), bound)


def gram_defect(space, nmax):
    """Largest |<phi_a, phi_b> - delta_ab| over basis vectors of level <= nmax.

    The exact vectors are paired at q0 monomial by monomial through exact
    values of haar.haar_product on monomials, each read off coordalg.mono_mul
    and only then evaluated at q0; the engine's pairing that the ladder's
    norm2 comes from evaluates at q0 term by term instead.  Only the
    normalisation reads norm2.
    """
    eng = space.engine
    vecs = [v for (s, n, twok), v in space.vec.items() if n <= nmax]
    worst = 0.0
    for a in vecs:
        for b in vecs:
            g = eng.value(RationalQ(0))
            for m1, c1 in a.terms.items():
                for m2, c2 in b.terms.items():
                    h = _state_of_product(m1, m2)
                    if h:
                        g = g + c1 * c2 * eng.value(h)
            g = float(g / a.norm2)
            worst = max(worst, abs(g * math.sqrt(float(a.norm2 / b.norm2)) - (a is b)))
    return worst


def test_truncated_space_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncatedSpace(Fraction(1, 2), 0)
    for q0 in (0, 1, Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            TruncatedSpace(q0, 2)
    with pytest.raises(CutoffExceeded):
        TruncatedSpace(Fraction(1, 2), 48)


def test_operators_past_the_ladder_cutoff_are_refused_up_front():
    # L = 47 pads to level 50, spin 99/2, the cutoff; M(A) moves a level up,
    # to spin 101/2, so every check there is refused before any column or
    # ladder vector is built
    space = TruncatedSpace(Fraction(1, 13), 47)
    with pytest.raises(CutoffExceeded, match=r"^M\(A\) at L = 47 needs 2l = 101"):
        haar_trace_check(gen_A, 3, space)
    with pytest.raises(CutoffExceeded):
        build_mult(gen_A, space)
    assert not space.engine._levels and not space.engine._chains
    # at L = 46 one level of shift fits and two do not
    space = TruncatedSpace(Fraction(1, 13), 46)
    spectral._mult_levels(embed(gen_A), space, 0)
    with pytest.raises(CutoffExceeded):
        spectral._mult_levels(embed(gen_A * gen_A), space, 0)


def test_build_mult_refuses_a_top_past_npad():
    # at q0 = 1/4, L = 3, npad = 6 and dim = 84: the columns of levels 7 and 8
    # would index up to 96; through npad every index is inside the space
    space = TruncatedSpace(Fraction(1, 4), 3)
    for x in (gen_A, gen_B, gen_Bs):
        with pytest.raises(ValueError, match="npad = 6"):
            build_mult(x, space, space.npad + 2)
        op = build_mult(x, space, space.npad)
        assert max(op.rows.max(), op.cols.max()) < space.dim == 84
        assert to_array(op).shape == (84, 84)


def test_a_fill_builds_the_e_chain_of_its_operand_once(monkeypatch):
    # every level of a cold fill reads one E-chain of y; a warm fill none
    eng = spectral._Engine(Fraction(1, 4))
    calls = []
    e_chain = eng.e_chain
    monkeypatch.setattr(eng, "e_chain", lambda xs: calls.append(xs) or e_chain(xs))
    y = embed(gen_A * gen_B)
    eng.levels(y, 6)
    assert calls == [eng.terms(y)]
    eng.levels(y, 6)
    eng.levels(y, 8)
    assert len(calls) == 2


def test_truncated_space_refuses_a_float_q0():
    # Fraction(0.1) is 3602879701896397/2^55: the basis would be exact for
    # that binary rational, not for 1/10, and slow to build
    with pytest.raises(TypeError, match="float"):
        TruncatedSpace(0.1, 8)
    assert TruncatedSpace(Fraction(1, 10), 1).q0_exact == Fraction(1, 10)


def test_truncated_space_refuses_a_q0_past_the_float_range():
    # the zeta sums read [2n] through n = npad = L + 3: at q0 = 10^-5, L = 28
    # needs q0^-62 = 10^310, and L = 27 needs 10^300
    with pytest.raises(ValueError, match=r"q0\^-62, past the float range"):
        TruncatedSpace(Fraction(1, 100000), 28)
    assert TruncatedSpace(Fraction(1, 100000), 27).npad == 30


def _round_by_fractions(eng, key, coeffs):
    """`_Engine._round` by Fraction products: each nonzero part of the entry
    c sqrt(N_alpha / N_key) is the sqrt of its square c_part^2 (times q0 for
    the odd part) N_alpha / N_key, rounded by Fraction.__float__, signed by
    copysign."""
    norm2 = eng.norm2(key)
    col = {}
    for alpha, c in coeffs.items():
        ratio = eng.norm2(alpha) / norm2
        even, odd = Fraction(c.e, c.d), Fraction(c.o, c.d)
        entry = 0.0
        if even:
            entry += math.copysign(math.sqrt(even * even * ratio), even)
        if odd:
            entry += math.copysign(math.sqrt(odd * odd * eng.q0 * ratio), odd)
        col[alpha] = entry
    return col


def _rounding_engine(q0, norms):
    """A fresh engine whose squared norms are read from norms, and whose
    norm ratios are their unreduced products."""
    eng = spectral._Engine(q0)
    eng.norm2 = norms.__getitem__

    def ratio(alpha, beta):
        a, b = norms[alpha], norms[beta]
        return a.numerator * b.denominator, a.denominator * b.numerator

    eng._norm_ratio = ratio
    return eng


def _rounded(eng, key, coeffs):
    return dict(zip(coeffs, eng._round(key, coeffs)))


_PART = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**60))
_NORM = st.builds(Fraction, st.integers(1, 10**60), st.integers(1, 10**60))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([Fraction(1, 4), Fraction(2, 3)]),
       st.lists(st.tuples(_PART, _PART, _NORM), min_size=1, max_size=6), _NORM)
def test_round_equals_the_fraction_route_bit_for_bit(q0, entries, norm_key):
    # at the square q0 = 1/4 a value has no odd part
    key = (1, 1, 1)
    norms, coeffs = {key: norm_key}, {}
    for n, (even, odd, norm) in enumerate(entries, start=1):
        norms[-1, n, 1] = norm
        coeffs[-1, n, 1] = _surd(even, odd if q0 == Fraction(2, 3) else 0, q0)
    eng = _rounding_engine(q0, norms)
    got, want = _rounded(eng, key, coeffs), _round_by_fractions(eng, key, coeffs)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


def test_round_signs_a_coefficient_past_the_float_range():
    # c = -10^400 + 10^400 sqrt(q0) is past the float range, while
    # c_part^2 N_alpha / N_key is not; copysign reads the part as a float
    q0 = Fraction(2, 3)
    key, alpha = (1, 1, 1), (-1, 2, 1)
    eng = _rounding_engine(q0, {key: Fraction(10**700), alpha: Fraction(1)})
    coeffs = {alpha: _surd(-10**400, 10**400, q0)}
    with pytest.raises(OverflowError):
        _round_by_fractions(eng, key, coeffs)
    entry = -math.sqrt(1e100) + math.sqrt(2 * 10**100 / 3)
    assert _rounded(eng, key, coeffs)[alpha].hex() == entry.hex()


def _keys(nmax):
    """Keys (s, n, 2k) of the ladder through level nmax."""
    return st.builds(lambda s, n, i: (s, n, 2 * (i % (2 * n)) - 2 * n + 1),
                     st.sampled_from([1, -1]), st.integers(1, nmax), st.integers(0, 2 * nmax - 1))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Fraction(9, 16), Fraction(2, 3), Fraction(81, 100)]), _keys(20),
       _keys(20))
def test_factored_norm_ratio_equals_the_fraction_one(q0, alpha, beta):
    # at square and non-square q0, N_alpha / N_beta from the cached level
    # part and factorial ranges is the ratio of the ladder's norms in
    # Q(sqrt(q0)), which has no odd part
    eng = spectral._engine_for(q0)
    num, den = eng._norm_ratio(alpha, beta)
    ratio = eng.norm2(alpha) / eng.norm2(beta)
    assert ratio.o == 0 and Fraction(num, den) == Fraction(ratio.e, ratio.d)


def test_engine_evaluates_each_value_once():
    eng = spectral._Engine(Fraction(2, 3))
    x = qint(3) / qint(2)
    assert eng.value(x) is eng.value(qint(3) / qint(2))
    assert eng.value(x) == Surd.at(x, Fraction(2, 3))


def test_engine_cache_is_bounded():
    spaces = [TruncatedSpace(Fraction(1, d), 1) for d in (3, 5, 7, 9, 11)]
    assert spectral._engine_for.cache_info().currsize <= 4
    # spaces at one q0 share its engine
    assert TruncatedSpace(Fraction(1, 11), 2).engine is spaces[-1].engine


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(1, 2)])
def test_commutators_give_the_calculus(q0):
    # dx = i[D, x] up to the unit: [D, M(x)] is off-diagonal in the
    # chirality, with (-,+) block M(q^(1/2) R_E x) and (+,-) block
    # M(q^(-1/2) R_F x), the components of fodc.differential(x)
    space = TruncatedSpace(q0, 6)
    eng, keys = space.engine, basis_keys(space)
    D = build_dirac(space)

    def mult(y):
        return _matrix(space, _columns(eng, y), space.npad)

    for x in (gen_A, gen_B, gen_Bs, gen_A * gen_B):
        M = to_array(build_mult(x, space))
        C = D @ M - M @ D
        dx = differential(x)
        window = set(spectral._window(space, space.npad - spectral._shift(embed(x))))
        plus = [i for i in window if keys[i][0] == 1]
        minus = [i for i in window if keys[i][0] == -1]
        # M(x) keeps the chirality, so the diagonal blocks vanish exactly
        assert not C[np.ix_(plus, plus)].any() and not C[np.ix_(minus, minus)].any()
        for rows, cols, y in ((minus, plus, dx.ecomp), (plus, minus, dx.fcomp)):
            block = np.ix_(rows, cols)
            assert np.max(np.abs(C[block] - mult(y)[block])) <= 1e-12, (x, q0)
        assert np.max(np.abs(C[np.ix_(minus, plus)])) > 0.1


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(1, 2)])
def test_real_structure_signs(q0):
    # J v = U conj(v): J is antiunitary with J^2 = -1, JD = DJ and
    # J gamma = -gamma J, the signs of a real spectral triple of
    # KO-dimension 2
    space = TruncatedSpace(q0, 4)
    U, D = build_J(space), build_dirac(space)
    gamma = np.diag([float(s) for s, n, twok in basis_keys(space)])
    eye = np.eye(space.dim)
    assert np.max(np.abs(U @ U.conj().T - eye)) <= 1e-12
    assert np.max(np.abs(U @ U.conj() + eye)) <= 1e-12
    assert np.max(np.abs(U @ D.conj() - D @ U)) <= 1e-12
    assert np.max(np.abs(U @ gamma.conj() + gamma @ U)) <= 1e-12


def test_dirac_spectrum():
    space = TruncatedSpace(Fraction(1, 2), 3)
    eigs = np.sort(np.linalg.eigvalsh(build_dirac(space)))
    expected = []
    for n in range(1, space.npad + 1):
        expected += [qnum(n, space.q0), -qnum(n, space.q0)] * (2 * n)
    assert np.allclose(eigs, np.sort(expected), rtol=1e-12, atol=0)


@pytest.mark.parametrize("q0", [0.25, 0.5, 0.8])
def test_zeta_series_within_tail(q0):
    # the terms [n]^-z [2n] fall by at least r = q0^(z-2) per level, so the
    # tail past L is at most last * r / (1 - r); at z = 30 it is below the
    # round-off of zeta_merom, and the partial sum meets it to 1e-14
    for z in (2.5, 3, 30):
        exact, r = zeta_merom(z, q0), q0 ** (z - 2)
        for L in (3, 5, 10):
            tail = qnum(L, q0) ** -z * qnum(2 * L, q0) * r / (1 - r)
            gap, slack = exact - zeta_series(z, L, q0), 1e-14 * exact
            assert -slack <= gap <= tail + slack
            assert gap > 0 or tail <= slack


@pytest.mark.parametrize("z", [80, 100, 120])
def test_zeta_merom_at_large_z(z):
    # the terms C(z-2+k, k) q0^(2k) of the series peak near k = 38 at
    # z = 120, q0 = 1/2, far past a fixed cut at k = 80 in size
    q0 = Fraction(1, 2)

    def exact_qnum(n):
        return (q0**n - q0**-n) / (q0 - 1 / q0)

    exact = sum(exact_qnum(n) ** -z * exact_qnum(2 * n) for n in range(1, 40))
    assert zeta_merom(z, float(q0)) == pytest.approx(float(exact), rel=1e-13, abs=0)


def test_zeta_merom_refuses_an_overflowing_series():
    # the prefactor underflows here, but the terms C(z-2+k, k) overflow
    with pytest.raises(ValueError, match="overflows"):
        zeta_merom(1e4, 0.99)


@pytest.mark.parametrize("z, q0, pole", [(2.0, 0.5, 2), (2 + 1e-17, 0.5, 2),
                                          (math.nextafter(2, 3), 0.99, 2)])
def test_zeta_merom_names_a_pole_of_its_series(z, q0, pole):
    # 2 + 1e-17 rounds onto 2, and at q0 = 0.99 the next float past 2 puts
    # q^(z-2) within round-off of 1
    with pytest.raises(ValueError, match=f"at z = {pole} is at a pole of its series"):
        zeta_merom(z, q0)


@pytest.mark.parametrize("check, args", [
    (residue_check, (1.0,)), (residue_check, (0.0,)), (residue_check, (-0.5,)),
    (zeta_merom, (2.5, 2.0)), (zeta_merom, (3.0, 1.0)), (zeta_merom, (3.0, -0.5)),
])
def test_zeta_merom_and_residue_check_refuse_a_q0_outside_the_unit_interval(check, args):
    # not a ZeroDivisionError, an OverflowError, a pole of the series or a
    # math domain error
    with pytest.raises(ValueError, match=r"q0 = \S+ is outside \(0, 1\)"):
        check(*args)


def test_zeta_merom_is_finite_where_two_poles_of_its_series_cancel():
    # at z = 0 the poles of two terms cancel; a 120-digit sum of the series
    # at z = 1e-30 gives zeta(0) = -0.1493144172 at q0 = 0.5
    zero = zeta_merom(0.0, 0.5)
    assert math.isfinite(zero) and abs(zero + 0.1493144172) < 1e-10
    assert abs(zero - (zeta_merom(1e-6, 0.5) + zeta_merom(-1e-6, 0.5)) / 2) < 1e-8
    for z in (-2.0, -4.0):
        assert abs(zeta_merom(z, 0.5) - (zeta_merom(z + 1e-6, 0.5)
                                         + zeta_merom(z - 1e-6, 0.5)) / 2) < 1e-8


@pytest.mark.parametrize("z", [2, 1.5, 0.5, 0, -1, math.nan, math.inf])
def test_trace_checks_refuse_a_z_without_a_finite_trace(monkeypatch, z):
    # Tr K^2 |D|^-z diverges at z <= 2, and zeta(inf) is no float; the
    # checks refuse before they build any operator
    monkeypatch.setattr(spectral, "_engine_for", spectral._Engine)
    space = TruncatedSpace(Fraction(1, 4), 2)
    with pytest.raises(ValueError, match="a finite real z > 2 is needed"):
        haar_trace_check(gen_A, z, space)
    with pytest.raises(ValueError, match="a finite real z > 2 is needed"):
        tau_trace_check(gen_A, gen_B, gen_Bs, z, space)
    assert not space.engine._levels and not space.engine.reads_star


def test_haar_trace_reads_m_through_the_transpose(monkeypatch):
    # B* has the shorter E-chain, so M(A + B) is read as M(A + B*)^T: on the
    # s = 1 block, the one its weights read, its diagonal is the direct
    # fill's to the bit, the s = -1 half is left zero, and B adds nothing to
    # it, so the record is that of A
    space = TruncatedSpace(Fraction(2, 3), 6)
    diags, trace_record = [], spectral._trace_record
    monkeypatch.setattr(spectral, "_trace_record",
                        lambda *args: diags.append(args[2]) or trace_record(*args))
    rec = haar_trace_check(gen_A + gen_B, 3, space)
    y = embed(gen_A + gen_B)
    assert space.engine.reads_star[y]
    M = spectral._operator(space, spectral._mult_levels(y, space, space.npad))
    on = M.rows == M.cols
    direct, half = np.bincount(M.rows[on], M.vals[on], space.dim), space.family
    assert diags[0][:half].tobytes() == direct[:half].tobytes()
    assert not diags[0][half:].any() and direct[half:].any()
    assert rec["lhs"] == haar_trace_check(gen_A, 3, space)["lhs"]


def test_haar_trace_check_at_large_z():
    rec = haar_trace_check(gen_A, 120, TruncatedSpace(Fraction(1, 2), 4))
    assert rec["passed"] and abs(rec["lhs"] - 0.8) <= 1e-14


def test_large_integral_z_gives_no_nan():
    # at a large integral z, [n]^-z must underflow to 0, not overflow to nan
    assert math.isfinite(zeta_series(20, 60, 0.25))
    rec = haar_trace_check(gen_A, 80, TruncatedSpace(Fraction(1, 4), 8))
    assert rec["rhs"] == pytest.approx(16 / 17)
    assert rec["passed"] and abs(rec["lhs"] - 16 / 17) <= 1e-14


@pytest.mark.parametrize("q0", [0.25, 0.5, 0.8, 0.9])
def test_residue_check_passes(q0):
    assert residue_check(q0)["passed"]


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 95))
def test_residue_check_is_judged_by_its_first_order_term(k):
    # eps zeta(2 + eps) - R is a1 eps to first order, and tol_abs = 2 |a1| eps
    q0, eps = k / 100, 1e-4
    rec = residue_check(q0, eps)
    a1 = rec["tol_abs"] / (2 * eps)
    assert rec["passed"] and abs((rec["lhs"] - rec["rhs"]) / eps - a1) <= 1e-4 * a1
    # a residue off by 3 a1 eps away from lhs fails, and by 4 a1 eps toward it
    for off in (-3, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "zeta_residue", lambda q, r=rec["rhs"]: r + off * a1 * eps)
            assert not residue_check(q0, eps)["passed"], off


def test_gram_defect_low_levels():
    space = TruncatedSpace(Fraction(1, 2), 3)
    assert gram_defect(space, 3) <= 1e-12


def test_gram_identity_quarter():
    space = TruncatedSpace(Fraction(1, 4), 6)
    assert gram_defect(space, space.L) <= 1e-12


@pytest.mark.parametrize("q0", [Fraction(9, 16), Fraction(81, 100)])
def test_gram_identity(q0):
    space = TruncatedSpace(q0, 6)
    assert gram_defect(space, space.L) <= 1e-12


def test_norm2_num_through_level_15():
    space = TruncatedSpace(Fraction(1, 4), 12)
    assert space.npad == 15
    for v in space.vec.values():
        assert abs(space.norm2_num(v) - 1) <= 1e-12


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(9, 16), Fraction(81, 100)])
def test_norm2_is_the_haar_norm_at_q0(q0):
    # the squared norms from the step factors, exactly in Q(sqrt(q0)) through
    # level 8, against the engine's Haar pairing of the built vectors
    eng = spectral._engine_for(q0)
    for n in range(1, 9):
        for (s, twok), v in eng.level(n).items():
            assert v.norm2 == eng.inner(v.terms, v.terms), (s, n, twok)


def test_checks_build_few_ladder_vectors(monkeypatch):
    # a column of M(x) reads only the lowest vectors of the nearby levels:
    # the space alone builds no vector, and the two checks at most three
    # per (s, n), against 2n in a whole level
    monkeypatch.setattr(spectral, "_engine_for", spectral._Engine)
    space = TruncatedSpace(Fraction(1, 4), 11)
    assert not space.engine._chains
    haar_trace_check(gen_A, 3, space)
    tau_trace_check(gen_A, gen_B, gen_Bs, 3, space)
    built = {key: len(chain) for key, chain in space.engine._chains.items()}
    assert {(s, n) for s in (1, -1) for n in range(1, space.npad + 1)} <= set(built)
    assert max(built.values()) <= 3, built
    # the entries come from factored norm ratios: no squared norm is read
    assert not space.engine._norms


def _counted_engine(monkeypatch, q0):
    """A fresh engine for every space at q0, with calls[terms, s, n] counting
    its expand_mul calls."""
    eng = spectral._Engine(q0)
    monkeypatch.setattr(spectral, "_engine_for", lambda q0: eng)
    calls = collections.Counter()
    expand_mul = eng.expand_mul

    def counted(chain, s, n):
        calls[tuple(sorted(chain[0])), s, n] += 1
        return expand_mul(chain, s, n)

    monkeypatch.setattr(eng, "expand_mul", counted)
    return eng, calls


def test_sweep_expands_each_level_once_per_operator(monkeypatch):
    # the spaces of a sweep in L share one engine; of A = A* and the pair
    # {B, B*}, only A and B*, the shorter E-chain, have tables, each level
    # filled by one expand_mul; M(B) is M(B*)^T, and a second pass reads
    # the tables alone
    eng, calls = _counted_engine(monkeypatch, Fraction(1, 4))
    spaces = [TruncatedSpace(Fraction(1, 4), L) for L in range(2, 9)]

    def sweep():
        return [(haar_trace_check(gen_A, 3, space)["lhs"],
                 tau_trace_check(gen_A, gen_B, gen_Bs, 3, space)["lhs"]) for space in spaces]

    first = sweep()
    reached = {(tuple(sorted(eng.terms(y))), s, n)
               for y, table in eng._levels.items() for s, n in table}
    assert eng._levels.keys() == {embed(gen_A), embed(gen_Bs)} and calls.keys() == reached
    assert set(calls.values()) == {1}, calls
    calls.clear()
    assert sweep() == first and not calls


def test_tau_expands_only_the_levels_it_reads(monkeypatch):
    # at L = 8, npad = 11 and W = npad - 3 = 8: the diagonal of A [D,B] [D,B*]
    # reads A through W + 1, B through W + 1 and B* through W; the columns
    # of B through level 9 are the rows of B* there, from its columns
    # through level 10, and B itself is never expanded
    eng, calls = _counted_engine(monkeypatch, Fraction(1, 4))
    tau_trace_check(gen_A, gen_B, gen_Bs, 3, TruncatedSpace(Fraction(1, 4), 8))
    top = {y: max(n for s, n in table) for y, table in eng._levels.items()}
    assert top == {embed(gen_A): 9, embed(gen_Bs): 10}
    terms_B = tuple(sorted(eng.terms(embed(gen_B))))
    assert calls and all(xs != terms_B for xs, s, n in calls)


def test_haar_trace_expands_only_the_family_it_reads(monkeypatch):
    # at L = 8, npad = 11: h weights only the s = 1 block, so h(A) fills the
    # s = 1 levels of A through npad and no s = -1 level; tau(A, B, B*) then
    # reads the s = 1 levels of A from those tables and fills the s = -1
    # ones through W + 1 = 9, as it does alone
    eng, calls = _counted_engine(monkeypatch, Fraction(1, 4))
    space = TruncatedSpace(Fraction(1, 4), 8)
    haar_trace_check(gen_A, 3, space)
    terms_A = tuple(sorted(eng.terms(embed(gen_A))))
    assert sorted(calls) == [(terms_A, 1, n) for n in range(1, space.npad + 1)] and space.npad == 11
    assert set(calls.values()) == {1}
    assert eng._levels.keys() == {embed(gen_A)}
    assert sorted(eng._levels[embed(gen_A)]) == [(1, n) for n in range(1, 12)]
    tau_trace_check(gen_A, gen_B, gen_Bs, 3, space)
    assert max(n for s, n in eng._levels[embed(gen_A)] if s < 0) == 9
    assert set(calls.values()) == {1}


def _with_complete_matrices(check, *args):
    """The records of check with every factor the complete build_mult
    operator, and the (embedded) operands the check built through the
    module global."""
    complete, built = spectral.build_mult, []

    def build(x, space, top=None):
        built.append(x)
        return complete(x, space)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "build_mult", build)
        out = check(*args)
    return (out if isinstance(out, list) else [out]), built


@pytest.mark.parametrize("q0, L", [(Fraction(1, 4), 6), (Fraction(2, 3), 4), (Fraction(81, 100), 5)])
def test_checks_on_the_filled_columns_equal_the_complete_ones(q0, L):
    # the columns a check leaves zero are ones its window never reads, so
    # every field is the same, bits and all; only the round-off bound of a
    # tau trace, from row sums over whole matrices, may shrink
    space = TruncatedSpace(q0, L)
    one = PodlesElement.one()
    for check, args in ((tau_trace_check, (gen_A, gen_B, gen_Bs, 3, space)),
                        (tau_trace_check, (one, gen_B, gen_Bs, 3, space)),
                        (tau_trace_check, (gen_Bs, gen_A, gen_B, 3, space)),
                        (commutant_checks, (gen_A, gen_B, space))):
        got = check(*args)
        refs, built = _with_complete_matrices(check, *args)
        # every factor comes through the patched builder, so the comparison
        # below is not vacuous
        assert built == [embed(x) for x in args if isinstance(x, PodlesElement)], args
        for rec, ref in zip(got if isinstance(got, list) else [got], refs):
            if rec["check"] == "tau_trace":
                for field in ("round_off_scale", "tol_abs"):
                    assert rec.pop(field) <= ref.pop(field), (field, args)
            assert rec == ref, args


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(2, 3)])
def test_sparse_commutator_equals_the_dense_one_bit_for_bit(q0):
    # the two halves d v and -v d of [D, M(x)] are merged at each position
    # in the dense order, so every entry is the dense entry, bits and all
    space = TruncatedSpace(q0, 8)
    for x in (gen_A, gen_B, gen_Bs, gen_A * gen_B):
        M = build_mult(x, space)
        sparse = spectral._commutator(space, M)
        dense = _dirac_commutator(space, to_array(M))
        assert dense.any() and to_array(sparse).tobytes() == dense.tobytes(), (x, q0)
        assert len(set(zip(sparse.rows, sparse.cols))) == len(sparse.vals)


def _unmerged_commutator(space, M):
    """[D, M] with its halves d v and -v d kept as separate entries."""
    rows, cols = space.swap[M.rows], space.swap[M.cols]
    return spectral.Operator(np.concatenate([rows, M.rows]), np.concatenate([M.cols, cols]),
                             np.concatenate([M.vals * space.dirac[rows],
                                             -(M.vals * space.dirac[cols])]), M.dim)


def _path_product(a, b):
    """a b with each term a[i, j] b[j, k] kept as its own entry."""
    e, f = a._terms(b)
    return spectral.Operator(a.rows[e], b.cols[f], a.vals[e] * b.vals[f], a.dim)


def test_unmerged_commutator_halves_fail_the_tau_tolerance(monkeypatch):
    # the halves of [D, M(x)] grow like [n] and cancel: summed path by path
    # through x0 [D,x1] [D,x2] instead of merged before any product, tau(A,B,B*)
    # at q0 = 1/4, L = 14 misses its exact value by far more than its tol_abs.
    # The products keep their terms apart too, since a merging product would
    # merge the halves again right after the first factor
    space = TruncatedSpace(Fraction(1, 4), 14)
    good = tau_trace_check(gen_A, gen_B, gen_Bs, 3, space)
    assert good["passed"]
    monkeypatch.setattr(spectral, "_commutator", _unmerged_commutator)
    monkeypatch.setattr(spectral.Operator, "__matmul__", _path_product)
    bad = tau_trace_check(gen_A, gen_B, gen_Bs, 3, space)
    assert abs(bad["lhs"] - good["rhs"]) > 100 * good["tol_abs"], (bad["lhs"], good)


def test_sparse_product_and_diagonal_equal_the_dense_ones():
    # products of sparse operators against numpy's dense products, on
    # operators with shared and with duplicate positions
    rng = np.random.default_rng(0)
    dim = 9

    def random_operator(n):
        rows, cols = rng.integers(0, dim, n), rng.integers(0, dim, n)
        return spectral.Operator(rows, cols, rng.standard_normal(n), dim)

    def dense(op):
        mat = np.zeros((dim, dim))
        np.add.at(mat, (op.rows, op.cols), op.vals)
        return mat

    for n in (0, 1, 12, 40):
        a, b = random_operator(n), random_operator(30)
        assert np.allclose(to_array(a @ b), dense(a) @ dense(b), rtol=1e-14, atol=1e-14)
        assert np.allclose(to_array(a - b), dense(a) - dense(b), rtol=1e-14, atol=1e-14)
        assert np.allclose(a.diagonal(b), np.diag(dense(a) @ dense(b)), rtol=1e-14, atol=1e-14)
        merged = spectral.Operator(a.rows, a.cols, a.vals, dim, merge=True)
        assert np.array_equal(to_array(merged), dense(a))
        assert np.allclose(merged.abs_row_sums(), abs(dense(a)).sum(1), rtol=1e-14, atol=0)


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(2, 3), Fraction(81, 100)])
def test_star_pairs_transpose_bit_for_bit(q0):
    # M(y) = M(y*)^T in the orthonormal basis, and both sides round the same
    # exact c^2 N_alpha/N_beta: on levels 1 to 8, the transposed matrix of
    # y* is the direct one of y to the bit, for B, B* and for q^(1/2) R_E B
    # and q^(-1/2) R_F B, which swap the families
    space, eng = TruncatedSpace(q0, 5), spectral._Engine(q0)
    dB = differential(gen_B)
    for y in (embed(gen_B), embed(gen_Bs), dB.ecomp, dB.fcomp):
        direct = to_array(spectral._operator(space, eng.levels(y, space.npad)))
        read = to_array(spectral._operator(space, eng.levels(y.star(), space.npad), True))
        assert direct.any() and direct.tobytes() == read.tobytes(), y


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(2, 3), Fraction(81, 100)])
def test_level_tables_give_the_dict_walk_operator(q0):
    # rows, cols and vals of the level-table operator, in the order of the
    # per-column dict walk: s = 1 before -1, n and 2k rising, then each
    # column's own order; at every top, transposed or not, with rows past
    # npad cut off
    space, eng = TruncatedSpace(q0, 4), spectral._Engine(q0)
    dB = differential(gen_B)
    for y in (embed(gen_A), embed(gen_Bs), dB.ecomp, dB.fcomp):
        for top in (0, 2, space.npad):
            for transpose in (False, True):
                got = spectral._operator(space, eng.levels(y, top), transpose)
                rows, cols, vals = _dict_operator(space, _columns(eng, y), top, transpose)
                assert np.array_equal(got.rows, rows) and np.array_equal(got.cols, cols)
                assert got.vals.tobytes() == vals.tobytes(), (y, top, transpose)


@pytest.mark.parametrize("q0", [0.25, 0.81])
@pytest.mark.parametrize("z", [0.1, 0.5, 1, 3])
def test_abs_dirac_power_is_trace_class(q0, z):
    # |D| has eigenvalue [n] with multiplicity 4n, so Tr |D|^-z is the sum of
    # 4n [n]^-z.  [n] = q^(1-n) (1 + q^2 + ... + q^(2n-2)) >= q^(1-n), so the
    # terms past N sum to at most T_N = sum_{n>N} 4n r^(n-1), r = q^z < 1 for
    # z > 0, which is 4 ((N+1) r^N/(1-r) + r^(N+1)/(1-r)^2) and goes to 0
    r = q0**z

    def tail(N):
        return 4 * ((N + 1) * r**N / (1 - r) + r ** (N + 1) / (1 - r) ** 2)

    nmax = int(700 / -math.log(q0))  # [n] stays a finite float
    terms = [4 * n * qnum(n, q0) ** -z for n in range(1, nmax + 1)]
    for N in (nmax // 64, nmax // 16, nmax // 4, nmax // 2):
        gap = math.fsum(terms[N : 2 * N])
        assert 0 <= gap <= tail(N), (N, gap, tail(N))
    assert tail(nmax // 2) <= 1e-9 * math.fsum(terms)


def test_real_structure_at_L10():
    for rec in commutant_checks(gen_A, gen_B, TruncatedSpace(Fraction(1, 4), 10)):
        assert rec["passed"] and rec["lhs"] <= 1e-10


def test_mult_matches_exact_matrices():
    # the numeric basis is w/|w| for the one ladder w of corep, so an exact
    # entry c becomes c sqrt(N_alpha/N_beta); rows run to l = 5/2, and the
    # columns to l = 3/2, the ones trusted at that cutoff
    q0 = Fraction(1, 4)
    space = TruncatedSpace(q0, 3)
    families = vplus_vminus_basis(Fraction(5, 2))
    pos = _pos(space)

    def key(v):
        return (v.twoj, (v.twol + 1) // 2, v.twok)

    for family in families:
        norm2 = {key(v): float(evaluate(v.norm2, q0)) for v in family}
        source = [v for v in family if v.twol <= 3]
        for x in (gen_A, gen_B, gen_Bs):
            M = to_array(build_mult(x, space))
            exact = mult_matrix(x, source, family)
            assert not exact.untrusted_cols
            for beta in source:
                b = key(beta)
                for alpha in family:
                    a = key(alpha)
                    c = exact.entry(alpha.key(), beta.key())
                    c = float(evaluate(c, q0)) if c else 0.0
                    expected = c * math.sqrt(norm2[a] / norm2[b])
                    assert abs(M[pos[a], pos[b]] - expected) <= 1e-14


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(9, 16), Fraction(81, 100),
                                Fraction(2, 3)])
@pytest.mark.parametrize("x", RECURSION_OPERANDS, ids=str)
def test_expand_mul_equals_the_solve_per_column_at_q0(x, q0):
    # the same recursion in Q(sqrt(q0)), through level 8, before rounding;
    # at 2/3 its half powers keep an odd part
    assert expand_mul_mismatches(spectral._engine_for(q0), x, range(1, 9)) == []


def test_expand_solves_one_weight_at_q0():
    # in Q(sqrt(q0)) on the shared engine at q0 = 1/4
    assert_one_weight_contract(spectral._engine_for(Fraction(1, 4)))


def test_bottom_vectors_equal_the_f_chain_at_q0():
    # the closed form in Q(sqrt(q0)) at the non-square q0 = 2/3, level 14
    assert f_chain_mismatches(spectral._Engine(Fraction(2, 3)), range(1, 15)) == []


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(2, 3)])
@pytest.mark.parametrize("x", [gen_A, gen_B, gen_Bs, gen_A * gen_B], ids=str)
def test_lowest_columns_per_monomial_equal_the_solve_at_q0(x, q0):
    # in Q(sqrt(q0)), through level 8, values and key order before rounding
    assert lowest_column_mismatches(spectral._engine_for(q0), x, range(1, 9)) == []


def _r_e(x):
    return r_action(gen_E, x)


def _r_f(x):
    return r_action(gen_F, x)


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(1, 2)])
def test_dirac_equals_twisted_actions(q0):
    # exactly in Q(sqrt(q0)), through level 8: R_E w+ = -[n]^2 w-,
    # R_F w- = -w+ and N+ = [n]^2 N-, so R_E phi+ = -[n] phi- and
    # R_F phi- = -[n] phi+, the entries build_dirac writes
    eng = spectral._engine_for(q0)
    for n in range(1, 9):
        n2 = eng.value(qint(n) * qint(n))
        for twok in range(-(2 * n - 1), 2 * n, 2):
            up, down = eng.vector((1, n, twok)), eng.vector((-1, n, twok))
            minus_n2_down = {m: -(n2 * c) for m, c in down.terms.items()}
            assert eng.apply(_r_e, up.terms) == minus_n2_down, (n, twok)
            assert eng.apply(_r_f, down.terms) == {m: -c for m, c in up.terms.items()}
            assert up.norm2 == n2 * down.norm2


@pytest.mark.parametrize("q0", [Fraction(1, 4), Fraction(9, 16), Fraction(81, 100)])
def test_build_J_is_the_j0_expansion(q0):
    # J0 w_{s,n,2k} = i c w_{-s,n,-2k} with c^2 N_{-s,n,-2k} = N_{s,n,2k} in
    # Q(sqrt(q0)) through level 8, so with gamma = -s on the image the
    # orthonormal U = gamma i J0 has the one entry -i s sign(c), and
    # sign(c) = s (-1)^(k-1/2)
    space = TruncatedSpace(q0, 5)
    eng, pos = space.engine, _pos(space)
    expected = np.zeros((space.dim, space.dim), dtype=complex)
    for (s, n, twok), c in j0_coefficients(eng, range(1, space.npad + 1)).items():
        sign = math.copysign(1, float(c))
        assert sign == s * (-1) ** ((twok - 1) // 2), (q0, s, n, twok)
        expected[pos[-s, n, -twok], pos[s, n, twok]] = -1j * s * sign
    assert np.array_equal(build_J(space), expected)


@pytest.mark.parametrize("L", [1, 4, 9])
def test_space_arrays_equal_the_key_walk(L):
    # the positions, D, J and the family arrays by index arithmetic, against
    # a walk over the keys (s, n, 2k) in index order
    space = TruncatedSpace(Fraction(1, 4), L)
    index = [(s, n, t) for s in (1, -1) for n in range(1, space.npad + 1)
             for t in range(-(2 * n - 1), 2 * n, 2)]
    pos = {key: i for i, key in enumerate(index)}
    assert basis_keys(space) == index and space.dim == len(index)
    assert space.swap.tolist() == [pos[-s, n, t] for s, n, t in index]
    assert space.flip.tolist() == [pos[-s, n, -t] for s, n, t in index]
    dirac = np.array([-qnum(n, space.q0) for s, n, t in index])
    jsign = np.array([(-1.0) ** ((t - 1) // 2) for s, n, t in index])
    assert space.dirac.tobytes() == dirac.tobytes() and space.jsign.tobytes() == jsign.tobytes()
    assert space.n.tolist() * 2 == [n for s, n, t in index]
    assert space.twok.tolist() * 2 == [t for s, n, t in index]


def test_operators_are_real_and_only_J_is_complex():
    # in the orthonormal weight basis every entry of D, M(x) and [D, M(x)]
    # is a real number of Q(sqrt(q0)), rounded once; J's unitary is -i times
    # the real signed permutation of flip and jsign
    space = TruncatedSpace(Fraction(1, 4), 3)
    M = build_mult(gen_B, space)
    for op in (M.vals, build_dirac(space), spectral._commutator(space, M).vals):
        assert op.dtype == np.float64
    assert space.jsign.dtype == np.float64 and set(space.jsign) == {-1.0, 1.0}
    S = np.zeros((space.dim, space.dim))
    S[space.flip, range(space.dim)] = space.jsign
    assert np.array_equal(build_J(space), -1j * S)


def test_zeta_is_a_real_function_of_a_real_z():
    for z in (2.5, 3, 30):
        assert type(zeta_merom(z, 0.25)) is float and type(zeta_series(z, 5, 0.25)) is float
    with pytest.raises(TypeError):
        haar_trace_check(gen_A, 3 + 1j, TruncatedSpace(Fraction(1, 4), 2))


def test_haar_trace_is_judged_against_its_truncated_value():
    # at q0 = 1/2, z = 3, L = 4 the h-trace of A is far from h(A) = 0.8, but
    # equal to 0.8 zeta_7(3) / zeta(3) up to round-off
    space = TruncatedSpace(Fraction(1, 2), 4)
    rec = haar_trace_check(gen_A, 3, space)
    assert rec["exact"] == pytest.approx(0.8) and abs(rec["lhs"] - 0.8) > 1e-3
    assert rec["zeta_ratio"] == zeta_series(3, space.npad, 0.5) / zeta_merom(3, 0.5)
    assert rec["rhs"] == rec["exact"] * rec["zeta_ratio"]
    assert rec["tol_abs"] == space.dim * 2.2e-16 and "tol_rel" not in rec
    assert rec["passed"]
    # an exact value off by 1e-12 relative would fail on the same bound
    assert not record("off", {}, rec["lhs"], rec["rhs"] * (1 + 1e-12), rec["tol_abs"])["passed"]


def test_record_is_judged_by_its_absolute_bound():
    # tol_abs is the one bound; without it only an exact match passes, and
    # no relative tolerance is taken
    assert record("exact", {}, 0.8, 0.8)["passed"]
    assert not record("exact", {}, 0.8000001, 0.8)["passed"]
    rec = record("tight", {}, -809.0, 0.8, tol_abs=1.0)
    assert not rec["passed"] and "tol_rel" not in rec
    with pytest.raises(TypeError):
        record("vacuous", {}, -809.0, 0.8, tol_rel=1)
    # against an exact 0 a relative error says nothing, and is not reported
    rec = record("zero", {}, 6e-12, 0.0, tol_abs=1e-11)
    assert rec["passed"] and rec["rel_err"] is None
    assert not record("zero", {}, 6e-12, 0.0, tol_abs=1e-12)["passed"]


def test_tau_trace_with_zero_value_passes_on_round_off():
    space = TruncatedSpace(Fraction(1, 4), 8)
    rec = tau_trace_check(PodlesElement.one(), gen_B, gen_Bs, 3, space)
    assert rec["rhs"] == 0.0 and rec["rel_err"] is None
    assert rec["passed"] and abs(rec["lhs"]) <= 1e-15


def test_traces_of_large_operands_are_judged_on_their_round_off():
    # the round-off of a trace grows with its operands, and so does tol_abs
    space = TruncatedSpace(Fraction(1, 4), 1)
    for c in (1, 100, 1000, 10**6):
        rec = haar_trace_check(gen_A.scale(RationalQ(c)), 4, space)
        assert rec["passed"] and rec["round_off_scale"] == pytest.approx(0.94 * c, rel=1e-2)
        assert rec["tol_abs"] == space.dim * 2.2e-16 * max(1.0, rec["round_off_scale"])
    space = TruncatedSpace(Fraction(81, 100), 6)
    for c in (1, 100, 1000):
        x = gen_A.scale(RationalQ(c))
        assert tau_trace_check(x, gen_B.scale(RationalQ(c)), gen_Bs, 3, space)["passed"]


def test_trace_check_without_a_level_raises():
    # (A^2, A^2, A^2) moves levels by up to 6, more than npad = 4: no level
    # of the product is exact, and an empty trace would pass vacuously
    a2 = gen_A * gen_A
    with pytest.raises(ValueError, match="no level"):
        tau_trace_check(a2, a2, a2, 3, TruncatedSpace(Fraction(1, 4), 1))


@pytest.mark.parametrize("q0, L", [(Fraction(1, 4), 6), (Fraction(9, 16), 4), (Fraction(81, 100), 8)])
def test_traces_meet_their_truncated_values(q0, L):
    # every trace is its exact value times zeta_nmax(z) / zeta(z) up to
    # dim * 2.2e-16, below its tol_abs, down to z = 2.01 where the truncation
    # is far from the untruncated value
    space = TruncatedSpace(q0, L)
    for z in (2.01, 2.5, 3, 4, 30):
        for rec in (
            haar_trace_check(gen_A, z, space),
            haar_trace_check(gen_Bs * gen_B, z, space),
            tau_trace_check(gen_A, gen_B, gen_Bs, z, space),
            tau_trace_check(gen_Bs, gen_A, gen_B, z, space),
            tau_trace_check(PodlesElement.one(), gen_B, gen_Bs, z, space),
        ):
            assert rec["passed"] and rec["abs_err"] <= space.dim * 2.2e-16, rec
            assert rec["tol_abs"] == space.dim * 2.2e-16 * max(1.0, rec["round_off_scale"])
            assert rec["rhs"] == rec["exact"] * rec["zeta_ratio"]
