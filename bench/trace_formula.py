"""Workload `trace_formula`: the numeric layer against the paper's traces.

Each h-trace and tau-trace operation sweeps the truncation level L upward
from 2 at a fixed (q0, z).  It passes when the values at two successive L
both agree with the closed-form reference to TARGET relative; it fails
when its cap is reached first, or on a NaN or inf.  The caps come from the
tail bound q0^((z - 2) L): L* is the first level where the bound reaches
TARGET, an h-trace may go two levels past it and a tau-trace, whose
operator product has three factors, four.  The sweep builds one
`TruncatedSpace` per level and shares it between the checks still open.

The real structure (`commutant_checks` at one L) must vanish on the
trusted window up to round-off: 1e-11 for [M(A), J M(B)* J^-1], whose
factors have norm at most 1, and 1e-11 [npad]_q for the order-one
commutator, which carries one factor of D (see `real_tolerances`).  `residue_check` at seeded q0 must give the residue
(q - q^-1)/log q to 1e-3 relative: at eps = 1e-4 the first-order error
term stays below 2e-4 for every q0 in [0.05, 0.95].

The verdicts never read the program's `passed` flag: that flag compares
against a relative tolerance that can reach 1.25 (see CHANGES.md).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from common import Raised, close, converged, finite, judge, numeric
from qsphere import spectral
from qsphere.podles import PodlesElement, gen_A, gen_B, gen_Bs

import refs

TARGET = 1e-6
SWEEPS = {
    # (q0, z): h-trace operands and tau-trace triples checked at that point
    (Fraction(1, 4), 3): (("A",), (("A", "B", "Bs"),)),
    (Fraction(1, 4), 4): (("BsB",), (("Bs", "A", "B"),)),
}
H_EXTRA, TAU_EXTRA = 2, 4  # levels allowed past L* for each kind of trace
COMMUTANT = (Fraction(1, 4), 6)  # q0, L of the real-structure checks
ROUNDOFF = 1e-11  # absolute tolerance for a product of factors of norm <= 1
RESIDUE_POINTS = 4
RESIDUE_EPS, RESIDUE_TOL = 1e-4, 1e-3

GENERATORS = {"A": gen_A, "B": gen_B, "Bs": gen_Bs}


class Check(NamedTuple):
    kind: str  # "h" or "tau"
    operand: object  # an H_OPERANDS name or a generator triple
    q0: Fraction
    z: int
    cap: int  # the last L the sweep may reach
    ref: float


def _operand(name):
    return PodlesElement({(n, 0): c for n, c in refs.H_OPERANDS[name].items()})


def inputs(seed):
    rng = random.Random(seed)
    checks = []
    for (q0, z), (h_names, triples) in SWEEPS.items():
        level = refs.tail_level(q0, z, TARGET)
        for name in h_names:
            ref = float(refs.h_operand(name, q0))
            checks.append(Check("h", name, q0, z, level + H_EXTRA, ref))
        for triple in triples:
            ref = float(refs.tau_generators(q0)[triple])
            checks.append(Check("tau", triple, q0, z, level + TAU_EXTRA, ref))
    q0s = [rng.randint(5, 95) / 100 for _ in range(RESIDUE_POINTS)]
    return {"checks": checks, "residue_q0": q0s}


def real_tolerances(q0, L):
    """Absolute bounds for (commutant, order_one) on a space of level L.

    An entry of a product of operators of norm at most 1 on a space of
    dimension dim carries a round-off of at most about dim * 2.2e-16,
    4e-14 at L = 6 (dim 180); ROUNDOFF leaves a margin of 250 over that.
    The order-one commutator has one factor D in each term, whose entries
    reach [npad]_q with npad = L + 3, the level of the padded space, so
    its bound is scaled by that.
    """
    q = Fraction(q0)
    npad = L + 3
    return ROUNDOFF, ROUNDOFF * float((q**npad - q**-npad) / (q - 1 / q))


def _value(record):
    """The number the program returned, finite or not; a raised call or a
    record without a numeric lhs comes back as `Raised`."""
    if isinstance(record, dict) and numeric(record.get("lhs")):
        return record["lhs"]
    return record if isinstance(record, Raised) else Raised(f"no numeric lhs: {record!r}")


def _known(name, values):
    """`name` when every value is a number the program returned, so that a
    wrong value is the ladder fault; otherwise `error.<name>`, a failure
    the benchmark does not expect."""
    return name if all(numeric(v) for v in values) else f"error.{name}"


def _sweep(checks, clock):
    """Raise L for all checks at one (q0, z); values[i] lists (L, value)."""
    values = [[] for _ in checks]
    space = None
    for L in range(2, max(c.cap for c in checks) + 1):
        open_ = [
            i
            for i, c in enumerate(checks)
            if L <= c.cap and not converged([v for _, v in values[i]], c.ref, TARGET)
        ]
        if not open_:
            break
        space = clock.call(spectral.TruncatedSpace, checks[0].q0, L)
        for i in open_:
            c = checks[i]
            if isinstance(space, Raised):
                rec = space
            elif c.kind == "h":
                rec = clock.call(spectral.haar_trace_check, _operand(c.operand), c.z, space)
            else:
                xs = (GENERATORS[x] for x in c.operand)
                rec = clock.call(spectral.tau_trace_check, *xs, c.z, space)
            values[i].append((L, _value(rec)))
    return values, space


def solve(inp, clock):
    sweeps, spaces = [], []
    with np.errstate(all="ignore"):  # overflow is judged below, not printed
        by_point = {}
        for check in inp["checks"]:
            by_point.setdefault((check.q0, check.z), []).append(check)
        for checks in by_point.values():
            values, space = _sweep(checks, clock)
            sweeps.extend(zip(checks, values))
            spaces.append(space)
        q0, level = COMMUTANT
        space = clock.call(spectral.TruncatedSpace, q0, level)
        real = clock.call(spectral.commutant_checks, gen_A, gen_B, space)
        residues = [
            clock.call(spectral.residue_check, q0, RESIDUE_EPS) for q0 in inp["residue_q0"]
        ]
    return {"sweeps": sweeps, "spaces": spaces, "real": real, "residues": residues}


def verify(inp, out):
    results = []
    for check, values in out["sweeps"]:
        xs = [x for _, x in values]
        judge(
            results,
            _known(f"trace.{check.kind}", xs),
            lambda xs=xs, r=check.ref: converged(xs, r, TARGET),
        )
    real = out["real"]
    if not (isinstance(real, list) and len(real) == 2):
        real = [real, real]
    tols = real_tolerances(*COMMUTANT)
    for name, rec, tol in zip(("real.commutant", "real.order_one"), real, tols):
        value = _value(rec)
        judge(
            results,
            _known(name, [value]),
            lambda v=value, tol=tol: finite(v) and abs(v) <= tol,
        )
    for q0, rec in zip(inp["residue_q0"], out["residues"]):
        judge(
            results,
            "residue",
            lambda q0=q0, rec=rec: close(_value(rec), refs.zeta_residue(q0), RESIDUE_TOL),
        )
    return results


def counts(out):
    """L reached over all sweeps, and the worst Gram defect of the largest
    space built at each point (a defect that is not finite reads 400)."""
    reached = sum(values[-1][0] for _, values in out["sweeps"] if values)
    worst = 0.0
    for space in out["spaces"]:
        if isinstance(space, Raised):
            continue
        with np.errstate(all="ignore"):
            for phi in space.vec.values():
                d = abs(space.norm2_num(phi) - 1.0)
                worst = max(worst, d) if math.isfinite(d) else math.inf
    log10 = 400.0 if math.isinf(worst) else math.log10(max(worst, 1e-300))
    return {"spectral.L_reached": reached, "spectral.gram_defect_log10": log10}
