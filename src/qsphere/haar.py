"""The invariant state on the coordinate algebra and its inner product.

On normal basis monomials the state vanishes unless the monomial is a power
of bc, and

    h((bc)^n) = (-q)^n (1 - q^2) / (1 - q^(2n+2)),

equivalently h(A^n) = (1 - q^2)/(1 - q^(2n+2)) on the sphere.  This closed
form is the implementation; invariance under the module actions and the
modular property are enforced by the test suite rather than assumed, and
together with h(1) = 1 they determine the state uniquely.

haar_mono_product reads the (mono, RationalQ) terms of coordalg.mono_mul and
keeps those with a = d = 0; haar_product sums it over the pairs of monomials
whose weights cancel, without building the product's normal form.
"""

from __future__ import annotations

from functools import lru_cache

from .coordalg import CoordElement, mono_mul
from .podles import PodlesElement, embed
from .scalar import Q_ONE, Q_ZERO, RationalQ, qpow
from .uq import left_weight, right_weight


@lru_cache(maxsize=None)
def _h_bc(n: int) -> RationalQ:
    """h((bc)^n) = (-q)^n (1 - q^2)/(1 - q^(2n+2))."""
    return RationalQ.q_power(n, (-1) ** n) * haar_value_A(n)


def haar_value_A(n: int) -> RationalQ:
    """h(A^n) = (1 - q^2)/(1 - q^(2n+2))."""
    return (Q_ONE - qpow(2)) / (Q_ONE - qpow(2 * n + 2))


def haar(x: CoordElement) -> RationalQ:
    """The invariant state, term by term on normal monomials."""
    total = Q_ZERO
    for (a, b, c, d), coeff in x.terms.items():
        if a == 0 and d == 0 and b == c:
            total = total + coeff * _h_bc(b)
    return total


def haar_podles(x: PodlesElement) -> RationalQ:
    return haar(embed(x))


def haar_mono_product(m1, m2) -> RationalQ:
    """h(m1 * m2) for normal monomials, read off the terms of mono_mul."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    if a1 + a2 != d1 + d2 or b1 + b2 != c1 + c2:
        return Q_ZERO
    total = Q_ZERO
    for (a, b, c, d), w in mono_mul(m1, m2):
        if a == 0 and d == 0:
            total = total + _h_bc(b) * w
    return total


def haar_product(x: CoordElement, y: CoordElement) -> RationalQ:
    """h(x * y) computed without building the product's normal form."""
    # bucket x's monomials by the (left, right) weights the partner must cancel
    buckets = {}
    for mono, coeff in x.terms.items():
        key = (left_weight(mono), right_weight(mono))
        buckets.setdefault(key, []).append((mono, coeff))
    total = Q_ZERO
    for m2, c2 in y.terms.items():
        for m1, c1 in buckets.get((-left_weight(m2), -right_weight(m2)), ()):
            h = haar_mono_product(m1, m2)
            if not h.is_zero():
                total = total + h * c1 * c2
    return total


def inner(x: CoordElement, y: CoordElement) -> RationalQ:
    """The invariant inner product (x, y) = h(y* x)."""
    return haar_product(y.star(), x)
