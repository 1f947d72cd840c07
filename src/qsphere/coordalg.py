"""The coordinate *-Hopf algebra of quantum SU(2) with PBW normal forms.

Generators a, b, c, d with the relations

    ab = q ba,  ac = q ca,  bc = cb,  bd = q db,  cd = q dc,
    ad = 1 + q bc,  da = 1 + q^-1 bc.

Normal monomials are a^i b^j c^k and b^j c^k d^l (a and d never mix), all
exponents nonnegative.

Elements are immutable; all operations are pure, so values can be shared
freely between threads.
"""

from __future__ import annotations

from functools import lru_cache

from .comb import SparseComb, TensorComb, merge_into
from .scalar import LaurentPoly, Q_ONE, Q_ZERO, RationalQ, qhalfpow

# A monomial is (aexp, bexp, cexp, dexp), all >= 0, with aexp*dexp = 0.
MONO_ONE = (0, 0, 0, 0)

_ONE_POLY = LaurentPoly({0: 1})


@lru_cache(maxsize=1024)
def _gamma(t):
    """Coefficients g[0..t] with a^t d^t = sum_i g[i] * b^i c^i (Laurent in q):
    a <-> d, b and c fixed, q -> q^-1 keeps every relation, so a^t d^t is the
    image of d^t a^t, `_dgamma(t, t)` with every exponent negated."""
    return tuple(LaurentPoly({-e: c for e, c in p.coeffs.items()}) for p in _dgamma(t, t))


@lru_cache(maxsize=1024)
def _dgamma(s, t):
    """Coefficients g[0..min(s,t)] of d^s a^t = sum_i g[i] a^x b^i c^i d^y,
    where x = max(t-s, 0) and y = max(s-t, 0)."""
    if s == 0 or t == 0:
        return (_ONE_POLY,)
    prev = _dgamma(s - 1, t - 1)
    m = min(s, t)
    x = t - m
    shift = LaurentPoly({-2 * (2 * s - 1) - 4 * x: 1})
    out = []
    for i in range(m + 1):
        p = prev[i] if i < m else LaurentPoly()
        if i > 0:
            p = p + prev[i - 1] * shift
        out.append(p)
    return tuple(out)


def _word(A, B, C, D):
    """Normal form of the ordered word a^A b^B c^C d^D as (mono, poly) pairs."""
    if A == 0 or D == 0:
        return ((( A, B, C, D), _ONE_POLY),)
    t = min(A, D)
    gam = _gamma(t)
    base = LaurentPoly({2 * t * (B + C): 1})
    return tuple(
        ((A - t, B + i, C + i, D - t), gam[i] * base) for i in range(t + 1)
    )


def mono_mul(m1, m2):
    """Product of two normal monomials as (mono, RationalQ) pairs.

    The tables _gamma, _dgamma and _word stay Laurent polynomials, where a
    power of q is a cheap shift; each output weight is wrapped once."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    s, t = d1, a2
    m = min(s, t)
    x = t - m
    y = s - m
    scal = -x * (b1 + c1) - y * (b2 + c2)
    out = []
    for i, g in enumerate(_dgamma(s, t)):
        gshift = g.shift(2 * scal)
        for mono, w in _word(a1 + x, b1 + i + b2, c1 + i + c2, y + d2):
            out.append((mono, RationalQ._raw(gshift if w is _ONE_POLY else gshift * w)))
    return out


class CoordElement(SparseComb):
    """Element of the coordinate algebra."""

    __slots__ = ()

    ONE_KEY = MONO_ONE
    LETTERS = (("a", None), ("b", None), ("c", None), ("d", None))

    @staticmethod
    def _check_key(mono):
        a, _, _, d = mono
        if min(mono) < 0:
            raise ValueError(f"negative exponent in {mono}")
        if a and d:
            raise ValueError(f"monomial {mono} mixes a and d")

    # -- structure ------------------------------------------------------

    @staticmethod
    def _mono_mul(m1, m2):
        # looked up in the module at call time, so a wrapper installed on
        # coordalg.mono_mul sees every product
        return mono_mul(m1, m2)

    # bench/tracer.py times products through CoordElement.__dict__["__mul__"]
    __mul__ = SparseComb.__mul__

    # -- Hopf structure ---------------------------------------------------

    def star(self):
        """The *-involution: a* = d, b* = -q c, c* = -q^-1 b, d* = a."""
        # (a^i b^j c^k d^l)* is a multiple of a^l b^k c^j d^i: no two terms meet
        return CoordElement._raw(
            {
                (d, c, b, a): coeff * qhalfpow(2 * (b - c), (-1) ** (b + c))
                for (a, b, c, d), coeff in self.terms.items()
            }
        )

    def counit(self):
        total = Q_ZERO
        for (a, b, c, d), coeff in self.terms.items():
            if b == 0 and c == 0:
                total = total + coeff
        return total

    def antipode(self):
        """Antipode: S(a) = d, S(b) = -q^-1 b, S(c) = -q c, S(d) = a.

        These images are forced by the convolution-inverse axiom for the
        chosen relations and coproduct (equivalently S(u_ij) = u_ji* for the
        unitary corepresentation matrix).
        """
        # S(a^i b^j c^k d^l) is a multiple of a^l b^j c^k d^i: no two terms meet
        return CoordElement._raw(
            {
                (d, b, c, a): coeff * qhalfpow(2 * (c - b), (-1) ** (b + c))
                for (a, b, c, d), coeff in self.terms.items()
            }
        )

    def coproduct(self, n=2):
        if n < 2:
            raise ValueError("coproduct arity must be at least 2")
        acc = {}
        for mono, coeff in self.terms.items():
            merge_into(acc, _mono_coproduct(mono, n).terms, coeff)
        return TensorElement._raw(acc, n)


# generator elements
gen_a = CoordElement._raw({(1, 0, 0, 0): Q_ONE})
gen_b = CoordElement._raw({(0, 1, 0, 0): Q_ONE})
gen_c = CoordElement._raw({(0, 0, 1, 0): Q_ONE})
gen_d = CoordElement._raw({(0, 0, 0, 1): Q_ONE})


class TensorElement(TensorComb):
    """Element of the n-fold tensor power of the coordinate algebra."""

    __slots__ = ()

    FACTOR = CoordElement


# coproducts of the generators: Delta(u_ij) = sum_k u_ik (x) u_kj for the
# corepresentation matrix u = [[a, b], [c, d]]
_U = {(0, 0): (1, 0, 0, 0), (0, 1): (0, 1, 0, 0), (1, 0): (0, 0, 1, 0), (1, 1): (0, 0, 0, 1)}
_GEN_POS = {(1, 0, 0, 0): (0, 0), (0, 1, 0, 0): (0, 1), (0, 0, 1, 0): (1, 0), (0, 0, 0, 1): (1, 1)}


@lru_cache(maxsize=1024)
def _letter_coproduct(letter, n):
    """n-fold coproduct of a single generator letter as a TensorElement."""
    i, j = _GEN_POS[letter]
    terms = {}
    for path in range(2 ** (n - 1)):
        ks = [i] + [(path >> t) & 1 for t in range(n - 1)] + [j]
        key = tuple(_U[(ks[t], ks[t + 1])] for t in range(n))
        terms[key] = Q_ONE
    return TensorElement._raw(terms, n)


@lru_cache(maxsize=1024)
def _mono_coproduct(mono, n):
    out = TensorElement.one(n)
    for letter, exp in zip(_GEN_POS, mono):
        if exp:
            out = out * _letter_coproduct(letter, n) ** exp
    return out
