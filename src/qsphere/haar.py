"""The invariant state on the coordinate algebra and its inner product.

On normal basis monomials the state vanishes unless the monomial is a power
of bc, and

    h((bc)^n) = (-q)^n (1 - q^2) / (1 - q^(2n+2)),

equivalently h(A^n) = (1 - q^2)/(1 - q^(2n+2)) on the sphere.  This closed
form is the implementation; invariance under the module actions and the
modular property are enforced by the test suite rather than assumed, and
together with h(1) = 1 they determine the state uniquely.

haar_product computes h(x * y) without materializing the normal form of the
product; it is the workhorse behind the exact Gram matrices.
"""

from __future__ import annotations

from functools import lru_cache

from .coordalg import CoordElement, _dgamma, _gamma
from .errors import NotInHopfDomain
from .podles import PodlesElement, embed
from .scalar import LaurentPoly, Q_ONE, Q_ZERO, RationalQ
from .uq import left_weight, right_weight


@lru_cache(maxsize=None)
def _h_bc(n: int) -> RationalQ:
    """h((bc)^n) = (-q)^n (1 - q^2)/(1 - q^(2n+2))."""
    if n == 0:
        return Q_ONE
    num = LaurentPoly.q_power(n, (-1) ** n) * (
        LaurentPoly.one() - LaurentPoly.q_power(2)
    )
    den = LaurentPoly.one() - LaurentPoly.q_power(2 * n + 2)
    return RationalQ(num, den)


def haar_value_A(n: int) -> RationalQ:
    """h(A^n) = (1 - q^2)/(1 - q^(2n+2))."""
    if n == 0:
        return Q_ONE
    return RationalQ(
        LaurentPoly.one() - LaurentPoly.q_power(2),
        LaurentPoly.one() - LaurentPoly.q_power(2 * n + 2),
    )


def haar(x: CoordElement) -> RationalQ:
    """The invariant state, term by term on normal monomials."""
    if x.localized:
        raise NotInHopfDomain("the invariant state is not defined on localized input")
    total = Q_ZERO
    for (a, b, c, d), coeff in x.terms.items():
        if a == 0 and d == 0 and b == c:
            total = total + coeff * _h_bc(b)
    return total


def haar_podles(x: PodlesElement) -> RationalQ:
    return haar(embed(x))


@lru_cache(maxsize=None)
def _h_word_tail(t: int, n0: int) -> RationalQ:
    """sum_j gamma[t][j] * h((bc)^(n0+j)), the fully contracted a^t..d^t part."""
    total = Q_ZERO
    for j, g in enumerate(_gamma(t)):
        total = total + _h_bc(n0 + j).mul_poly(g)
    return total


def haar_mono_product(m1, m2) -> RationalQ:
    """h(m1 * m2) for normal monomials, in closed form."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    if a1 + a2 != d1 + d2 or b1 + b2 != c1 + c2:
        return Q_ZERO
    s, t = d1, a2
    m = min(s, t)
    x = t - m
    y = s - m
    scal = -x * (b1 + c1) - y * (b2 + c2)
    total = Q_ZERO
    for i, g in enumerate(_dgamma(s, t)):
        A = a1 + x
        D = y + d2
        if A != D:
            continue
        B = b1 + i + b2
        C = c1 + i + c2
        # h(word(A,B,C,A)) = q^(A(B+C)) sum_j gamma[A][j] h((bc)^(B+j)), B == C
        part = _h_word_tail(A, B).mul_poly(g.shift(2 * (scal + A * (B + C))))
        total = total + part
    return total


def haar_product(x: CoordElement, y: CoordElement) -> RationalQ:
    """h(x * y) computed without building the product's normal form."""
    if x.localized or y.localized:
        raise NotInHopfDomain("the invariant state is not defined on localized input")
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
