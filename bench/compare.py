"""Run two sets of benchmark runs of the same code and check that they agree.

    python3 bench/compare.py [--runs 10]

Run from the repository root.  For each workload in BENCHMARK.json, set A
runs seeds 1 .. runs and then set B runs seeds 1001 .. 1000 + runs, one
`bench/run.py` process at a time with tracing off and the run length of
BENCHMARK.json.  For every end-to-end metric it reports each set's median
and its spread (quartile distance over median, from statistics.quantiles
with n=4) and the drift of B's median from A's in the metric's worse
direction.  A metric agrees when the drift and both spreads stay within
its bound; it is steady when both spreads are also below a third of the
bound.  The share of failed operations must be identical in every run.
Exits 0 when everything agrees; the full table is written to
bench/out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED, SECOND_SEED = 1, 1001


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second, better):
    """Relative change of the second median in the worse direction."""
    change = (statistics.median(second) - statistics.median(first)) / statistics.median(first)
    return change if better == "lower" else -change


def compare(workload, seconds, seeds_a, seeds_b, metrics, log):
    sets = []
    for seeds in (seeds_a, seeds_b):
        results = []
        for seed in seeds:
            res = one_run(workload, seed, seconds)
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()))
            results.append(res)
        sets.append(results)
    shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
    rows = []
    for m in metrics:
        a, b = ([r["metrics"][m["name"]]["value"] for r in s] for s in sets)
        sa, sb, d = spread(a), spread(b), drift(a, b, m["better"])
        agrees = d <= m["bound"] and max(sa, sb) <= m["bound"]
        rows.append({
            "metric": m["name"], "bound": m["bound"],
            "median_a": statistics.median(a), "spread_a": sa,
            "median_b": statistics.median(b), "spread_b": sb,
            "drift": d, "agrees": agrees,
            "steady": agrees and max(sa, sb) < m["bound"] / 3,
            "values_a": a, "values_b": b,
        })
    return {
        "workload": workload,
        "failed_shares": sorted(str(s) for s in shares),
        "correct": all(r["correct"] for s in sets for r in s),
        "rows": rows,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Check that two sets of runs agree.")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    def log(line):
        print(line, file=sys.stderr, flush=True)

    seeds_a = range(FIRST_SEED, FIRST_SEED + args.runs)
    seeds_b = range(SECOND_SEED, SECOND_SEED + args.runs)
    report = [
        compare(w["name"], spec["run_seconds"], seeds_a, seeds_b, spec["end_to_end"], log)
        for w in spec["workloads"]
    ]
    ok = True
    for w in report:
        same_share = len(w["failed_shares"]) == 1
        ok = ok and same_share and w["correct"]
        print(f"{w['workload']}: correct={w['correct']} failed share "
              f"{'/'.join(w['failed_shares'])} ({'same' if same_share else 'DIFFERS'})")
        for r in w["rows"]:
            ok = ok and r["agrees"]
            print(f"  {r['metric']:<12} bound {r['bound']:.2f}  "
                  f"A {r['median_a']:.4g} (spread {r['spread_a']:.3f})  "
                  f"B {r['median_b']:.4g} (spread {r['spread_b']:.3f})  "
                  f"drift {r['drift']:+.3f}  "
                  f"{'steady' if r['steady'] else 'agrees' if r['agrees'] else 'DISAGREES'}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "compare.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
