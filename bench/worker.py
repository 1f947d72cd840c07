"""One round of one workload in a fresh interpreter.

    python3 bench/worker.py --workload exact --seed 7 --trace 0 [--setup-only]

Prints one JSON line: the monotonic time at which set-up (imports and
seeded inputs) ended, the summed wall time of the timed program calls, the
peak resident memory after them, and one verdict per operation.  With
--trace 1 it adds the per-layer calls, self seconds and work counts; the
spans are read before the verdicts are computed, so checking does not
count as workload.  `bench/run.py` starts this script; the program under
test is imported from `src/` next to `bench/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from common import COUNT_DEFAULTS, WORKLOADS, Clock, unexpected

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = importlib.import_module(args.workload)
    inp = workload.inputs(args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    clock = Clock()
    out = workload.solve(inp, clock)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.metrics() if tracer else {}
    verdicts = workload.verify(inp, out)
    if tracer:
        layers.update(COUNT_DEFAULTS)
        layers.update(workload.counts(out))
    failed = [name for name, ok in verdicts if not ok]
    record = {
        "ready_at": ready_at,
        "solve_s": clock.solve_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(verdicts),
        "failed": len(failed),
        "unexpected": unexpected(verdicts),
        "failed_ops": sorted(set(failed)),
        "layers": layers,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
