"""The invariant state on the coordinate algebra and its inner product.

On normal basis monomials the state vanishes unless the monomial is a power
of bc, and

    h((bc)^n) = (-q)^n (1 - q^2) / (1 - q^(2n+2)),

equivalently h(A^n) = (1 - q^2)/(1 - q^(2n+2)) on the sphere.  This closed
form is the implementation; invariance under the module actions and the
modular property are enforced by the test suite rather than assumed, and
together with h(1) = 1 they determine the state uniquely.

haar_product reads h(x y) off the (bc)^n terms of coordalg.mono_mul over
the pairs of monomials whose weights cancel, without building the product's
normal form.  As h((bc)^n) = (-q)^n / (1 + q^2 + ... + q^(2n)), a sum of
c_n h((bc)^n) with top level N is (sum c_n w_n) / L_N, over one cached
denominator L_N = prod Phi_d(q^2), 2 <= d <= N + 1, reduced once; a c_n
with a denominator or a Fraction coefficient goes to `sum_products`.
"""

from __future__ import annotations

from functools import lru_cache

from .comb import add_term
from .coordalg import CoordElement, mono_mul
from .podles import PodlesElement, embed
from .scalar import Q_ONE, RationalQ, is_integral, qgeom, qhalfpow, qpow, sum_over, sum_products
from .uq import left_weight, right_weight


@lru_cache(maxsize=1024)
def _h_bc(n: int) -> RationalQ:
    """h((bc)^n) = (-q)^n (1 - q^2)/(1 - q^(2n+2))."""
    return qhalfpow(2 * n, (-1) ** n) * haar_value_A(n)


def haar_value_A(n: int) -> RationalQ:
    """h(A^n) = (1 - q^2)/(1 - q^(2n+2))."""
    return (Q_ONE - qpow(2)) / (Q_ONE - qpow(2 * n + 2))


@lru_cache(maxsize=32)
def _bc_denominator(top: int):
    """(L, w): the lcm L of the denominators of h((bc)^n), n <= top, and
    w[n] = h((bc)^n) L; level top joins 1 + q^2 + ... + q^(2 top) to L."""
    if top == 0:
        return Q_ONE, (Q_ONE,)
    den, w = _bc_denominator(top - 1)
    ratio = den / qgeom(top + 1, 0, 4)
    v = RationalQ(ratio.den)
    return den * v, (*(x * v for x in w), qhalfpow(2 * top, (-1) ** top) * RationalQ(ratio.num))


def _bc_sum(acc: dict) -> RationalQ:
    """sum c_n h((bc)^n) over {n: c_n}, reduced once."""
    if acc and all(map(is_integral, acc.values())):
        den, w = _bc_denominator(max(acc))
        return sum_over(((c, w[n]) for n, c in acc.items()), den)
    return sum_products((c, _h_bc(n)) for n, c in acc.items())


def haar(x: CoordElement) -> RationalQ:
    """The invariant state, read off the powers of bc among x's monomials."""
    return _bc_sum({b: k for (a, b, c, d), k in x.terms.items() if a == d == 0 and b == c})


def haar_podles(x: PodlesElement) -> RationalQ:
    return haar(embed(x))


def haar_product(x: CoordElement, y: CoordElement) -> RationalQ:
    """h(x * y) computed without building the product's normal form."""
    # bucket x's monomials by the (left, right) weights the partner must cancel
    buckets = {}
    for mono, coeff in x.terms.items():
        key = (left_weight(mono), right_weight(mono))
        buckets.setdefault(key, []).append((mono, coeff))
    acc = {}  # n -> coefficient of (bc)^n in x y
    for m2, c2 in y.terms.items():
        for m1, c1 in buckets.get((-left_weight(m2), -right_weight(m2)), ()):
            c = c1 * c2
            for (a, b, _, d), w in mono_mul(m1, m2):
                if a == d == 0:
                    add_term(acc, b, c * w)
    return _bc_sum(acc)


def inner(x: CoordElement, y: CoordElement) -> RationalQ:
    """The invariant inner product (x, y) = h(y* x)."""
    return haar_product(y.star(), x)
