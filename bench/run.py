"""Benchmark entry point: time one workload of `qsphere` for a fixed span.

    python3 bench/run.py --workload exact --seed 7 --seconds 50 --trace 0

Run from the repository root.  Every round starts a fresh interpreter
(`bench/worker.py`), so the program's memo caches start cold, as they do
for a user.  Rounds repeat, each whole, until the whole number of rounds
nearest to --seconds has run.  The child gets one BLAS thread and a fixed
PYTHONHASHSEED.  Sources are byte-compiled before the first round.
Set-up is also sampled by SETUP_PROBES extra children that stop once the
inputs exist.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics (medians over
rounds) with --trace 0, the per-layer metrics with --trace 1.  Per-round
records go to bench/out/.  Without `src/qsphere` beside `bench/` the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import SPEC, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11
HARD_LIMIT_S = 170.0  # a run must end within 180 s
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RoundError(RuntimeError):
    pass


def child(workload, seed, trace, setup_only, timeout):
    """Run one worker; return its record with `setup_s` filled in."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RoundError(f"{workload} round exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round failed:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready_at") - started
    return record


def run(workload, seed, seconds, trace):
    t0 = time.monotonic()

    def left():
        return HARD_LIMIT_S - (time.monotonic() - t0)

    setups = [child(workload, seed, trace, True, left())["setup_s"]
              for _ in range(SETUP_PROBES)]
    t_rounds = time.monotonic()
    rounds, longest = [], 0.0
    while True:
        t = time.monotonic()
        rounds.append(child(workload, seed, trace, False, left()))
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - t_rounds
        # stop at the whole number of rounds nearest to `seconds`: one more
        # round would overshoot by more than the current count falls short
        if elapsed + elapsed / len(rounds) / 2 >= seconds or longest > left():
            break
    setups.extend(r["setup_s"] for r in rounds)
    return setups, rounds


def summarize(setups, rounds, trace):
    med = statistics.median
    if trace:
        metrics = {
            m["name"]: {"value": med(r["layers"][m["name"]] for r in rounds), "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
    else:
        metrics = {
            "setup_s": {"value": med(setups), "unit": "s"},
            "solve_s": {"value": med(r["solve_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    return {
        "correct": all(not r["unexpected"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Time one qsphere benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsphere" / "spectral.py").is_file():
        print(f"no qsphere sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # byte-compile once up front, so no round pays for (or allocates for) it
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(tree, quiet=1)
    try:
        setups, rounds = run(args.workload, args.seed, args.seconds, args.trace)
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    result = summarize(setups, rounds, args.trace)
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"args": vars(args), "setup_s": setups,
                                "rounds": rounds, "result": result}, indent=1))
    for r in rounds:
        if r["unexpected"]:
            print(f"unexpected failures: {r['unexpected']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
