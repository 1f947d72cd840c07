"""Uniform check records for verification suites and the CLI."""

from __future__ import annotations

import json


def record(check, inputs, lhs, rhs, tol_abs=None, L=None, q0=None, trusted_fraction=None,
           extra=None):
    """Build one report entry comparing lhs against rhs.

    Passing requires abs_err <= tol_abs, and abs_err = 0 when tol_abs is
    None; the record names the bound.  rel_err = |lhs - rhs| / max(|lhs|,
    |rhs|) is reported beside it, and None against rhs = 0, where a relative
    error says nothing.
    """
    abs_err = abs(lhs - rhs)
    rel_err = None if rhs == 0 else float(abs_err) / max(abs(lhs), abs(rhs))
    passed = abs_err == 0 if tol_abs is None else abs_err <= tol_abs
    rec = {
        "check": check,
        "inputs": inputs,
        "lhs": _plain(lhs),
        "rhs": _plain(rhs),
        "abs_err": float(abs_err),
        "rel_err": rel_err,
        "tol_abs": tol_abs,
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
    return str(v)


def to_jsonl(records) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


def all_passed(records) -> bool:
    return all(r["passed"] for r in records)
