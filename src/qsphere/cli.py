"""Command line entry point.

    qsphere verify --q0 1/4 --L 4:8 --z 3

prints one JSONL record per check per truncation level L: the h-trace of
A, the tau-traces of (A, B, B*) and (1, B, B*), and the commutant and
order-one conditions of the real structure, then the zeta residue at q0.
The zeta exponent is a real z > 2.  A trace record is judged against
`exact` times `zeta_ratio`, its exact truncated value.  Each record carries
its bound `tol_abs`, its wall time `wall_ms` and the module that made it,
`layer`.  The exit status is 0 when every check passes and 1 otherwise; an
empty level range, a q0 that is not rational, a z <= 2, not finite or
overflowing zeta, a level whose operators need a spin past the ladder
cutoff, a (q0, L) whose powers of q0 leave the float range and a trace
with no exact level are refused with status 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .errors import QsphereError
from .podles import PodlesElement, gen_A, gen_B, gen_Bs
from .report import all_passed, to_jsonl
from .spectral import (
    TruncatedSpace,
    commutant_checks,
    haar_trace_check,
    residue_check,
    tau_trace_check,
)


def _levels(text: str) -> range:
    """A level such as 6, or an inclusive range such as 4:8, as a range."""
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi or lo) + 1)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text} is not a rational number") from exc


def _timed(check, *args) -> list:
    t0 = time.perf_counter()
    out = check(*args)
    wall_ms = (time.perf_counter() - t0) * 1e3
    recs = out if isinstance(out, list) else [out]
    for rec in recs:
        rec["wall_ms"] = wall_ms
        rec["layer"] = check.__module__.rpartition(".")[2]
    return recs


def verify(q0: Fraction, levels, z: float):
    """Yield the check records level by level."""
    for L in levels:
        space = TruncatedSpace(q0, L)
        yield from _timed(haar_trace_check, gen_A, z, space)
        yield from _timed(tau_trace_check, gen_A, gen_B, gen_Bs, z, space)
        yield from _timed(tau_trace_check, PodlesElement.one(), gen_B, gen_Bs, z, space)
        yield from _timed(commutant_checks, gen_A, gen_B, space)
    yield from _timed(residue_check, float(q0))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="qsphere", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("verify", help="check the trace formulas and the real structure")
    cmd.add_argument("--q0", type=_rational, default=Fraction(1, 4), help="rational 0 < q0 < 1")
    cmd.add_argument("--L", type=_levels, default=_levels("4:8"), help="level or range lo:hi")
    cmd.add_argument("--z", type=float, default=3.0, help="zeta exponent, a real z > 2")
    args = ap.parse_args(argv)
    if not args.L:
        ap.error("--L names no level: give lo:hi with lo <= hi")
    records = []
    try:
        for rec in verify(args.q0, args.L, args.z):
            print(to_jsonl([rec]), flush=True)
            records.append(rec)
    except (ValueError, QsphereError) as exc:  # a q0, L or z the checks refuse
        ap.error(str(exc))
    return 0 if all_passed(records) else 1


if __name__ == "__main__":
    sys.exit(main())
