"""The standard quantum 2-sphere: normal forms, embedding and recognition.

Abstract presentation: generators A = A*, B, B* with

    BA = q^2 AB,  AB* = q^2 B*A,  B*B = A - A^2,  BB* = q^2 A - q^4 A^2,

realized inside the coordinate algebra by A = -q^-1 bc, B = ac, B* = -db.
Basis monomials are A^i B^j (j >= 0) and A^i B*^k (k >= 1); keys are pairs
(i, j) with j > 0 for B powers and j < 0 for B* powers.

The sphere is exactly the right-K-invariant part of the coordinate algebra,
and the modular automorphism of the invariant state acts by
sigma(A) = A, sigma(B) = q^2 B, sigma(B*) = q^-2 B*.
"""

from __future__ import annotations

from functools import lru_cache

from .comb import SparseComb, merge_into
from .coordalg import CoordElement
from .errors import NotInSubalgebra
from .scalar import Q_ONE, qhalfpow, qpow


class PodlesElement(SparseComb):
    """Element of the quantum-sphere coordinate algebra in normal form."""

    __slots__ = ()

    ONE_KEY = (0, 0)
    LETTERS = (("A", None), ("B", "Bs"))

    @staticmethod
    def _check_key(mono):
        if len(mono) != 2 or mono[0] < 0:
            raise ValueError(f"{mono} is not the key (i, j) of A^i B^j, i >= 0")

    @staticmethod
    def _mono_mul(m1, m2):
        """Product of basis monomials as (mono, RationalQ) pairs."""
        i1, j1 = m1
        i2, j2 = m2
        # move the B-part of m1 past A^i2:
        # B^m A^i = q^(2 m i) A^i B^m and B*^m A^i = q^(-2 m i) A^i B*^m,
        # uniformly q^(2 j1 i2) with the signed exponent j1
        scal = qpow(2 * j1 * i2)
        i = i1 + i2
        if j1 == 0 or j2 == 0 or (j1 > 0) == (j2 > 0):
            return (((i, j1 + j2), scal),)
        # prepending A^i to a normal element costs nothing
        return tuple(
            ((ci + i, cj), scal * cc) for (ci, cj), cc in _cross(j1, j2).terms.items()
        )

    def star(self):
        """A* = A, (B)* = B*; (A^i B^j)* = q^(-2ij) A^i B^-j on basis keys."""
        return PodlesElement._raw(
            {(i, -j): c * qpow(-2 * i * j) for (i, j), c in self.terms.items()}
        )


gen_A = PodlesElement._raw({(1, 0): Q_ONE})
gen_B = PodlesElement._raw({(0, 1): Q_ONE})
gen_Bs = PodlesElement._raw({(0, -1): Q_ONE})


@lru_cache(maxsize=1024)
def _cross(j1, j2):
    """B^j1 B*^-j2 (j1 > 0 > j2) or B*^-j1 B^j2 (j1 < 0 < j2) in normal form;
    the innermost pair BB* = q^2 A - q^4 A^2 or B*B = A - A^2 is
    q^w A - q^2w A^2, and the key (0, 0) of an empty outer power is the unit."""
    step, w = (1, 2) if j1 > 0 else (-1, 0)
    mid = PodlesElement._raw({(1, 0): qpow(w), (2, 0): -qpow(2 * w)})
    left = PodlesElement._raw({(0, j1 - step): Q_ONE})
    right = PodlesElement._raw({(0, j2 + step): Q_ONE})
    return left * mid * right


def sigma(x: PodlesElement) -> PodlesElement:
    """Modular automorphism: A -> A, B -> q^2 B, B* -> q^-2 B*."""
    return PodlesElement._raw(
        {(i, j): c * qpow(2 * j) for (i, j), c in x.terms.items()}
    )


@lru_cache(maxsize=1024)
def _embed_mono(mono) -> CoordElement:
    """The image of a basis monomial, one monomial in normal form:
    A^i B^j maps to (-1)^i q^(-i - j(j-1)/2 - 2ij) a^j b^i c^(i+j) and
    A^i B*^k to (-1)^(i+k) q^(-i - k(k+1)/2) b^(i+k) c^i d^k, the products
    of the images A = -q^-1 bc, B = ac and B* = -db."""
    i, j = mono
    if j >= 0:
        key, half, sign = (j, i, i + j, 0), -2 * i - j * (j - 1) - 4 * i * j, i
    else:  # k = -j, and k (k + 1) = j (j - 1)
        key, half, sign = (0, i - j, i, -j), -2 * i - j * (j - 1), i - j
    return CoordElement._raw({key: qhalfpow(half, (-1) ** sign)})


def embed(x: PodlesElement) -> CoordElement:
    """Algebra embedding into the coordinate algebra."""
    acc = {}
    for mono, c in x.terms.items():
        merge_into(acc, _embed_mono(mono).terms, c)
    return CoordElement._raw(acc)


def recognize(x: CoordElement) -> PodlesElement:
    """Inverse of embed on the sphere, the right-K-invariant subalgebra.

    x <| K multiplies a normal monomial a^a b^b c^c d^d (ad = 0) by
    q^((c + d - a - b)/2), so x is invariant exactly when each of its
    monomials has a + b = c + d: with d = 0 that is c = a + b, and with a = 0
    it is b = c + d.  These two patterns are the embeddings of A^b B^a and of
    A^c B*^d, each a scalar times that one monomial, and distinct keys give
    distinct monomials.  So recognition divides coefficient by coefficient,
    and a monomial outside both patterns is the only way to fail.
    """
    out = {}
    for (a, b, c, d), coeff in x.terms.items():
        if d == 0 and c == a + b:
            key = (b, a)
        elif a == 0 and b == c + d:
            key = (c, -d)
        else:
            raise NotInSubalgebra(f"monomial {(a, b, c, d)} is not right-K-invariant")
        out[key] = coeff / _embed_mono(key).terms[(a, b, c, d)]
    return PodlesElement._raw(out)
