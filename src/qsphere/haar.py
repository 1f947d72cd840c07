"""The invariant state on the coordinate algebra and its inner product.

On normal basis monomials the state vanishes unless the monomial is a power
of bc, and

    h((bc)^n) = (-q)^n (1 - q^2) / (1 - q^(2n+2)),

equivalently h(A^n) = (1 - q^2)/(1 - q^(2n+2)) on the sphere.  This closed
form is the implementation; invariance under the module actions and the
modular property are enforced by the test suite rather than assumed, and
together with h(1) = 1 they determine the state uniquely.

h is linear: h(psi) = sum c_n h((bc)^n) over the Haar content {n: c_n} of psi
(`haar_sum`), so contents add before h applies once; `haar_content` reads that
of x y off mono_mul's (bc)^n terms, memoised per monomial pair.  h((bc)^n) =
w_n / L_N, n <= N, with L_N = prod Phi_d(q^2), 2 <= d <= N + 1, and w_n in
s^(2n) Z[q^2], s = q^(1/2).  Integer c_n packed at 2^k in s^g (g | 4) times
w_n / s^(2n), which are packed with L_N once per (N, k, g), sum to one big int.
k, the least multiple of 16 above the bit length of the coefficient bound
max |w_n|_1 sum |c_n|_inf >= |L_N|_inf, unpacks the sum and meets GCDHEU's
2^k > 2 |L_N|_inf + 2, so `scalar.over_packed` reduces it in place; when the
packed quotients are not proven, `poly_gcd` does.  Other c_n: `sum_products`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .comb import add_term
from .coordalg import CoordElement, mono_mul
from .podles import PodlesElement, embed
from .scalar import (Q_ONE, Q_ZERO, RationalQ, is_integral, over_packed, pack, qgeom, qhalfpow,
                     qpow, sum_products, to_ints)
from .uq import left_weight, right_weight


def _h_bc(n: int) -> RationalQ:
    """h((bc)^n) = (-q)^n (1 - q^2)/(1 - q^(2n+2))."""
    return qhalfpow(2 * n, (-1) ** n) * haar_value_A(n)


def haar_value_A(n: int) -> RationalQ:
    """h(A^n) = (1 - q^2)/(1 - q^(2n+2))."""
    return (Q_ONE - qpow(2)) / (Q_ONE - qpow(2 * n + 2))


@lru_cache(maxsize=32)
def _bc_denominator(top: int):
    """(L, w, max |w[n]|_1): the lcm L of the denominators of h((bc)^n),
    n <= top, and w[n] = h((bc)^n) L; level top joins [top + 1]_(q^2) to L."""
    if top == 0:
        return Q_ONE, (Q_ONE,), 1
    den, w, _ = _bc_denominator(top - 1)
    ratio = den / qgeom(top + 1, 0, 4)
    v = RationalQ(ratio.den)
    w = (*(x * v for x in w), qhalfpow(2 * top, (-1) ** top) * RationalQ(ratio.num))
    return den * v, w, max(sum(map(abs, x.num.coeffs.values())) for x in w)


@lru_cache(maxsize=64)
def _bc_packed(top: int, k: int, g: int):
    """L_top and each w_n / s^(2n), n <= top, packed at 2^k in s^g, g | 4."""
    den, w, _ = _bc_denominator(top)
    return (pack(to_ints(den.num.coeffs, 0, g), k),
            [pack(to_ints(x.num.coeffs, 2 * n, g), k) for n, x in enumerate(w)])


def haar_sum(acc: dict) -> RationalQ:
    """h(psi) = sum c_n h((bc)^n) over psi's Haar content {n: c_n}, reduced once."""
    if not all(map(is_integral, acc.values())):
        return sum_products((c, _h_bc(n)) for n, c in acc.items())
    cs = [(2 * n, c.num.coeffs) for n, c in acc.items() if c]
    if not cs:
        return Q_ZERO
    den, _, bound = _bc_denominator(top := max(cs)[0] // 2)
    lo = min(e + t for t, c in cs for e in c)
    g = math.gcd(4, *(e + t - lo for t, c in cs for e in c))
    k = ((bound * sum(max(map(abs, c.values())) for _, c in cs)).bit_length() | 15) + 1
    dp, wp = _bc_packed(top, k, g)
    total = sum(pack(to_ints(c, lo - t, g), k) * wp[t // 2] for t, c in cs)
    return over_packed(total, lo, k, g, den.num, dp)


def haar(x: CoordElement) -> RationalQ:
    """The invariant state, read off the powers of bc among x's monomials."""
    return haar_sum({b: k for (a, b, c, d), k in x.terms.items() if a == d == 0 and b == c})


def haar_podles(x: PodlesElement) -> RationalQ:
    return haar(embed(x))


@lru_cache(maxsize=512)
def _bc_terms(m1, m2) -> tuple:
    """The terms (n, w) of w (bc)^n in the product m1 m2 of normal monomials."""
    return tuple((b, w) for (a, b, _, d), w in mono_mul(m1, m2) if a == d == 0)


def haar_content(x: CoordElement, y: CoordElement) -> dict:
    """The Haar content {n: c_n} of x y, the coefficients of its (bc)^n."""
    # bucket x's monomials by the (left, right) weights the partner must cancel
    buckets = {}
    for mono, coeff in x.terms.items():
        key = (left_weight(mono), right_weight(mono))
        buckets.setdefault(key, []).append((mono, coeff))
    acc = {}  # n -> coefficient of (bc)^n in x y
    for m2, c2 in y.terms.items():
        for m1, c1 in buckets.get((-left_weight(m2), -right_weight(m2)), ()):
            c = c1 * c2
            for n, w in _bc_terms(m1, m2):
                add_term(acc, n, c * w)
    return acc


def haar_product(x: CoordElement, y: CoordElement) -> RationalQ:
    """h(x * y) computed without building the product's normal form."""
    return haar_sum(haar_content(x, y))


def inner(x: CoordElement, y: CoordElement) -> RationalQ:
    """The invariant inner product (x, y) = h(y* x)."""
    return haar_product(y.star(), x)
