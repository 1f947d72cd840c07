"""Closed-form references from the paper, written once and generic in q.

Every function takes the deformation parameter q as a field element: a
`fractions.Fraction` gives the exact value at a numeric point, and
`qsphere.scalar.qpow(1)` gives the symbolic element of Q(q^(1/2)).  The
benchmark's own tests check that the symbolic forms equal `haar_podles`
and `tau` exactly, so the numeric references share a single source with
the exact identities and never come from `spectral`.

Run `python3 bench/refs.py` from the repository root to print them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def h_A(n, q):
    """The invariant state on powers of A: h(A^n) = (1 - q^2)/(1 - q^(2n+2))."""
    if n == 0:
        return q**0
    return (1 - q**2) / (1 - q ** (2 * n + 2))


# h-trace operands as polynomials in A, {power: coefficient}; B*B = A - A^2
# is the sphere relation, so its state is h(A) - h(A^2)
H_OPERANDS = {"A": {1: 1}, "BsB": {1: 1, 2: -1}}


def h_operand(name, q):
    total = q * 0
    for n, c in H_OPERANDS[name].items():
        total = total + h_A(n, q) * c
    return total


GENERATORS = ("A", "B", "Bs")
SIGMA = {"A": 0, "B": 2, "Bs": -2}  # sigma(x) = q^SIGMA[x] x on generators


def tau_generators(q):
    """tau on all 27 generator triples.

    The three base values are the paper's closed forms in h(A^j).  The
    other weight-zero triples follow from twisted cyclicity
    tau(x0, x1, x2) = tau(sigma(x2), x0, x1); a triple whose B-degrees do
    not cancel has nonzero weight and tau vanishes on it.
    """
    h1, h2, h3 = h_A(1, q), h_A(2, q), h_A(3, q)
    base = {
        ("Bs", "A", "B"): (q**2 - q**-4) * (h3 - h2) + q**-2 * (h2 - h1),
        ("Bs", "B", "A"): (q**4 - q**-2) * (h3 - h2) - q**2 * (h2 - h1),
        ("A", "A", "A"): (q**-2 - q**4) * h3 - (q**-2 - q**2) * h2,
    }
    out = dict(base)
    frontier = list(base)
    while frontier:
        x0, x1, x2 = frontier.pop()
        # tau(x0, x1, x2) = tau(sigma(x2), x0, x1) = q^SIGMA[x2] tau(x2, x0, x1)
        rotated = (x2, x0, x1)
        if rotated not in out:
            out[rotated] = out[(x0, x1, x2)] * q ** -SIGMA[x2]
            frontier.append(rotated)
    weight = {"A": 0, "B": 1, "Bs": -1}
    for triple in product(GENERATORS, repeat=3):
        if sum(weight[x] for x in triple) != 0:
            out[triple] = q * 0
    return out


TAU_ETA = -1  # <tau, eta>, the pairing of the cocycle with its 2-cycle


def zeta_residue(q0: float) -> float:
    """Residue at z = 2 of zeta(z) = sum_n [n]^-z [2n]: (q - q^-1)/log q."""
    return (q0 - 1.0 / q0) / math.log(q0)


def tail_level(q0, z, target):
    """Smallest L with the trace tail bound q0^((z - 2) L) <= target."""
    return math.ceil(math.log(target) / ((z - 2) * math.log(float(q0))) - 1e-12)


def main():
    from qsphere.scalar import qpow, render

    q = qpow(1)
    print("h(A^n), n = 0..4:")
    for n in range(5):
        print(f"  n={n}: {render(h_A(n, q))}")
    print("tau on weight-zero generator triples:")
    for triple, value in sorted(tau_generators(q).items()):
        if not value.is_zero():
            print(f"  tau{triple}: {render(value)}")
    for q0 in (Fraction(1, 4), Fraction(1, 2)):
        print(f"at q0 = {q0}:")
        for name in H_OPERANDS:
            print(f"  h({name}) = {float(h_operand(name, q0)):.12g}")
        for triple in (("A", "B", "Bs"), ("Bs", "A", "B")):
            print(f"  tau{triple} = {float(tau_generators(q0)[triple]):.12g}")
        print(f"  zeta residue = {zeta_residue(float(q0)):.12g}")


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    main()
