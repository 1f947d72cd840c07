"""The cocycle part of workload `exact`: the twisted cyclic 2-cocycle tau.

Timed, in this order: tau on the 27 generator triples, <tau, eta>,
`volume_check()`, then the seeded operations: b_sigma(tau) on basis
quadruples, lambda_sigma(tau) and tau on basis triples, and tau against
`tau_via_volume` on triples of sphere elements.
Checked, exactly in Q(q^(1/2)):
  - tau on generator triples equals the closed forms in `refs`;
  - <tau, eta> = -1 and the volume coefficient is 1;
  - b_sigma tau = 0, lambda_sigma tau = tau, tau = tau_via_volume.
"""

from __future__ import annotations

import random
from itertools import product

from common import judge, ok
from qsphere import fodc
from qsphere.podles import PodlesElement, gen_A, gen_B, gen_Bs
from qsphere.scalar import Q_ZERO, qpow

import refs

GENERATORS = {"A": gen_A, "B": gen_B, "Bs": gen_Bs}
MAX_EXP = 3  # basis monomials A^i B^j and A^i B*^|j| with i, |j| <= 3


def balanced(rng, k, degree):
    """k exponent pairs (i, j) with sum j = 0 and sum (i + |j|) = degree.

    tau vanishes on tuples whose B-weights do not cancel, so only balanced
    tuples make the identities non-trivial; a fixed total degree keeps the
    work of one operation within a narrow range.
    """
    while True:
        js = [rng.randint(-MAX_EXP, MAX_EXP) for _ in range(k - 1)]
        js.append(-sum(js))
        rest = degree - sum(abs(j) for j in js)
        if abs(js[-1]) <= MAX_EXP and 0 <= rest <= k * MAX_EXP:
            break
    iss = [0] * k
    for _ in range(rest):
        iss[rng.choice([n for n in range(k) if iss[n] < MAX_EXP])] += 1
    return list(zip(iss, js))


def _make_up(k, degree, count, salt):
    rng = random.Random(salt)
    return [balanced(rng, k, degree) for _ in range(count)]


# The make-up of the seeded operations is fixed, so every seed costs about
# the same: each seed reorders the slots of every pattern, mirrors it
# (j -> -j) at random and, for sphere elements, draws the coefficients.
COBOUNDARY = _make_up(4, 7, 36, 1)  # b_sigma tau = 0 on basis quadruples
CYCLIC = _make_up(3, 7, 24, 2)  # lambda_sigma tau = tau on basis triples
VOLUME = list(zip(_make_up(3, 5, 24, 3), _make_up(3, 4, 24, 4)))  # 2-term elements


def _dress(rng, pattern):
    pattern = list(pattern)
    rng.shuffle(pattern)
    if rng.random() < 0.5:
        pattern = [(i, -j) for i, j in pattern]
    return pattern


def _coeff(rng):
    return qpow(rng.randint(-1, 1)) * rng.choice([1, -1, 2, -2, 3, -3])


def inputs(seed):
    rng = random.Random(seed)
    mono = PodlesElement.monomial
    volume = []
    for first, second in VOLUME:
        pairs = zip(_dress(rng, first), _dress(rng, second))
        volume.append(
            [mono(m1, _coeff(rng)) + mono(m2, _coeff(rng)) for m1, m2 in pairs]
        )
    return {
        "triples": list(product(GENERATORS, repeat=3)),
        "quadruples": [[mono(m) for m in _dress(rng, p)] for p in COBOUNDARY],
        "cyclic": [[mono(m) for m in _dress(rng, p)] for p in CYCLIC],
        "volume": volume,
    }


def solve(inp, clock):
    b_tau = fodc.b_sigma(fodc.TAU)
    lambda_tau = fodc.lambda_sigma(fodc.TAU)
    return {
        "generators": [
            clock.call(fodc.tau, *(GENERATORS[x] for x in t)) for t in inp["triples"]
        ],
        "eta": clock.call(lambda: fodc.pair_chain(fodc.TAU, fodc.eta())),
        "volume": clock.call(fodc.volume_check),
        "coboundary": [clock.call(b_tau, *xs) for xs in inp["quadruples"]],
        "cyclic": [
            (clock.call(lambda_tau, *xs), clock.call(fodc.tau, *xs)) for xs in inp["cyclic"]
        ],
        "volume_route": [
            (clock.call(fodc.tau, *xs), clock.call(fodc.tau_via_volume, *xs))
            for xs in inp["volume"]
        ],
    }


def verify(inp, out):
    results = []
    closed = refs.tau_generators(qpow(1))
    for triple, value in zip(inp["triples"], out["generators"]):
        judge(results, "tau.generators", lambda t=triple, v=value: ok(v) == closed[t])
    judge(results, "tau.eta", lambda: ok(out["eta"]) == refs.TAU_ETA)
    judge(results, "volume", lambda: ok(out["volume"]) == PodlesElement.one())
    for value in out["coboundary"]:
        judge(results, "tau.coboundary", lambda v=value: ok(v) == Q_ZERO)
    for lam, tau in out["cyclic"]:
        judge(results, "tau.cyclic", lambda a=lam, b=tau: ok(a) == ok(b))
    for tau, via in out["volume_route"]:
        judge(results, "tau.volume_route", lambda a=tau, b=via: ok(a) == ok(b))
    return results


def counts(out):
    return {}
