"""Timing and verdict helpers shared by the workloads.

A workload module (and each part of `exact`) defines

    inputs(seed)            -> the seeded inputs (part of set-up),
    solve(inputs, clock)    -> outputs, every program call timed by `clock`,
    verify(inputs, outputs) -> [(operation name, passed)], untimed,
    counts(outputs)         -> per-layer work counts for the traced run.

An operation is one check.  A program call that raises is kept as a
`Raised` value, so the operation it feeds fails instead of the round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Operations that fail because of the float ladder in
# `spectral.TruncatedSpace._build_ladder`: the program returns a number
# (finite or not) that is wrong.  Every other failure, a raised call
# included, is a fault the benchmark does not expect and marks the run
# incorrect; `trace_formula.verify` renames such operations `error.<name>`.
KNOWN_FAULT_PREFIXES = ("trace.", "real.")

# per-layer counts for the workloads whose `counts()` does not produce
# them: no ladder, no matrix, no trace sweep, no space (no Gram defect)
COUNT_DEFAULTS = {
    "corep.ladder.vectors": 0,
    "corep.mult_matrix.entries": 0,
    "spectral.L_reached": 0,
    "spectral.gram_defect_log10": -300.0,
}


@dataclass(frozen=True)
class Raised:
    error: str


class Clock:
    """Accumulates the wall time of the program calls it makes."""

    def __init__(self):
        self.solve_s = 0.0

    def call(self, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # the operation fails, the round goes on
            return Raised(f"{type(exc).__name__}: {exc}")
        finally:
            self.solve_s += perf_counter() - t0


def ok(value):
    """The output itself; a `Raised` output raises, failing its check."""
    if isinstance(value, Raised):
        raise RuntimeError(value.error)
    return value


def numeric(value) -> bool:
    """A real number, finite or not (NaN and inf count)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite(value) -> bool:
    return numeric(value) and math.isfinite(value)


def close(value, ref, rel) -> bool:
    """|value - ref| <= rel |ref| with a finite value; NaN and inf fail."""
    return finite(value) and abs(value - ref) <= rel * abs(ref)


def converged(values, ref, rel) -> bool:
    """The last two values of an L sweep both agree with ref to rel."""
    return len(values) >= 2 and all(close(v, ref, rel) for v in values[-2:])


def is_known_fault(op_name: str) -> bool:
    return op_name.startswith(KNOWN_FAULT_PREFIXES)


def unexpected(verdicts):
    """The failed operations that are not the known ladder fault."""
    return sorted({name for name, ok in verdicts if not ok and not is_known_fault(name)})


def judge(results, name, check):
    """Append (name, verdict); a check that raises is a failed operation."""
    try:
        ok = bool(check())
    except Exception:  # a Raised output or a faulty result fails the check
        ok = False
    results.append((name, ok))
