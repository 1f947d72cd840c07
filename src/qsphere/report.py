"""Uniform check records for verification suites and the CLI."""

from __future__ import annotations

import json


def record(
    check,
    inputs,
    lhs,
    rhs,
    tol_abs=None,
    tol_rel=None,
    L=None,
    q0=None,
    trusted_fraction=None,
    extra=None,
):
    """Build one report entry comparing lhs against rhs.

    Passing requires abs_err <= tol_abs and rel_err <= tol_rel when given;
    exact checks pass tol_abs = 0.  The record names both bounds, None when
    unset.  rel_err = |lhs - rhs| / max(|lhs|, |rhs|) is at most 2, and at
    most 1 when lhs and rhs share a sign, so a tol_rel of 1 or more could
    not fail and raises ValueError.  Against rhs = 0 the relative error says
    nothing: it is reported as None, and a tol_rel without a tol_abs raises
    ValueError.
    """
    if tol_rel is not None and tol_rel >= 1:
        raise ValueError(f"tol_rel = {tol_rel} >= 1 passes any pair of the same sign")
    if rhs == 0 and tol_rel is not None and tol_abs is None:
        raise ValueError("a relative tolerance cannot judge an exact value of 0; give tol_abs")
    abs_err = abs(lhs - rhs)
    rel_err = None if rhs == 0 else float(abs_err) / max(abs(lhs), abs(rhs))
    passed = True
    if tol_abs is not None:
        passed = passed and abs_err <= tol_abs
    if tol_rel is not None and rel_err is not None:
        passed = passed and rel_err <= tol_rel
    if tol_abs is None and tol_rel is None:
        passed = abs_err == 0
    rec = {
        "check": check,
        "inputs": inputs,
        "lhs": _plain(lhs),
        "rhs": _plain(rhs),
        "abs_err": float(abs_err),
        "rel_err": rel_err,
        "tol_abs": tol_abs,
        "tol_rel": tol_rel,
        "L": L,
        "q0": _plain(q0),
        "trusted_fraction": trusted_fraction,
        "passed": bool(passed),
    }
    if extra:
        rec.update(extra)
    return rec


def _plain(v):
    if v is None or isinstance(v, (int, float, bool, str)):
        return v
    if isinstance(v, complex):
        return [v.real, v.imag]
    return str(v)


def to_jsonl(records) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


def all_passed(records) -> bool:
    return all(r["passed"] for r in records)
