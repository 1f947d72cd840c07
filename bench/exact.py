"""Workload `exact`: the exact layers of the package, in one interpreter.

A round runs the `exact_matrix` part first (the Peter-Weyl ladder and the
exact multiplication matrices, which fill the program's memo caches) and
then the `cocycle` part (many small tau evaluations that read those caches
warm).  Each part makes its own seeded inputs and checks its own
operations; see `exact_matrix.py` and `cocycle.py`.  The two parts share
one workload so that a run can measure twice as long in the same time
budget (see README.md, "Steadiness").
"""

from __future__ import annotations

import cocycle
import exact_matrix

PARTS = (exact_matrix, cocycle)


def inputs(seed):
    return [part.inputs(seed) for part in PARTS]


def solve(inp, clock):
    return [part.solve(i, clock) for part, i in zip(PARTS, inp)]


def verify(inp, out):
    return [v for part, i, o in zip(PARTS, inp, out) for v in part.verify(i, o)]


def counts(out):
    merged = {}
    for part, o in zip(PARTS, out):
        merged.update(part.counts(o))
    return merged
