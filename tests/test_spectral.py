"""Tests for the numeric layer: truncated space, operators, zeta function."""

from fractions import Fraction

import numpy as np
import pytest

from qsphere.errors import CutoffExceeded
from qsphere.podles import gen_A
from qsphere.report import record
from qsphere.spectral import (
    TruncatedSpace,
    build_dirac,
    build_J,
    build_mult,
    haar_trace_check,
    qnum,
    residue_check,
    zeta_merom,
    zeta_series,
)


def gram_defect(space, nmax):
    """Largest |<phi_a, phi_b> - delta_ab| over basis vectors of level <= nmax."""
    num = space.num
    vecs = [v for key, v in space.vec.items() if key[1] <= nmax]
    worst = 0.0
    for i, a in enumerate(vecs):
        a_star = num.star(a)
        for j, b in enumerate(vecs):
            worst = max(worst, abs(num.haar_product(a_star, b) - (i == j)))
    return worst


def test_truncated_space_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncatedSpace(Fraction(1, 2), 0)
    for q0 in (0, 1, Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            TruncatedSpace(q0, 2)
    with pytest.raises(CutoffExceeded):
        TruncatedSpace(Fraction(1, 2), 48, pad=3)


def test_operator_composition_flags():
    space = TruncatedSpace(Fraction(1, 2), 2)
    D = build_dirac(space)
    J = build_J(space)
    M = build_mult(gen_A, space)
    assert M.level_shift == 1
    assert (J @ M).antilinear and (M @ J).antilinear
    assert not (J @ J).antilinear and not (D @ M).antilinear
    assert (M @ M).level_shift == 2
    assert (D @ M @ M).level_shift == 2
    eye = np.eye(space.dim)
    assert np.allclose(M.adjoint().adjoint().mat, M.mat, atol=0)
    assert np.allclose(J.inverse().inverse().mat, J.mat, atol=1e-12)
    assert np.allclose((J @ J.inverse()).mat, eye, atol=1e-12)
    assert np.allclose((D @ D.inverse()).mat, eye, atol=1e-12)


def test_dirac_spectrum():
    space = TruncatedSpace(Fraction(1, 2), 3)
    eigs = np.sort(np.linalg.eigvalsh(build_dirac(space).mat))
    expected = []
    for n in range(1, space.npad + 1):
        expected += [qnum(n, space.q0), -qnum(n, space.q0)] * (2 * n)
    assert np.allclose(eigs, np.sort(expected), rtol=1e-12, atol=0)


@pytest.mark.parametrize("q0", [0.25, 0.5, 0.8])
def test_zeta_series_within_tail(q0):
    exact = zeta_merom(3, 80, q0)
    for L in (3, 5, 10):
        partial, tail = zeta_series(3, L, q0)
        assert abs(exact - partial) <= tail


@pytest.mark.parametrize("q0", [0.25, 0.5, 0.8, 0.9])
def test_residue_check_passes(q0):
    assert residue_check(q0)["passed"]


def test_gram_defect_low_levels():
    space = TruncatedSpace(Fraction(1, 2), 3)
    assert gram_defect(space, 3) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the float ladder loses orthonormality past level ~4",
)
def test_gram_identity_quarter():
    space = TruncatedSpace(Fraction(1, 4), 6)
    assert gram_defect(space, space.L) <= 1e-12


def test_haar_trace_reports_insufficient_L():
    # the default bound 10 q0^((z-2)(L-deg)) is 1.25 here; the trace reads
    # about -809 against h(A) = 0.8 and must not pass
    space = TruncatedSpace(Fraction(1, 2), 4)
    rec = haar_trace_check(gen_A, 3, space)
    assert rec["passed"] is False
    assert rec["reason"] == "L insufficient"
    assert rec["rhs"] == pytest.approx(0.8)
    assert isinstance(rec["lhs"], float)


def test_record_rejects_vacuous_tolerance():
    with pytest.raises(ValueError):
        record("vacuous", {}, -809.0, 0.8, tol_rel=1)
    assert not record("tight", {}, -809.0, 0.8, tol_rel=0.5)["passed"]
