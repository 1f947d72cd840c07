"""The standard quantum 2-sphere, the subalgebra of the coordinate algebra
generated by A = -q^-1 bc, B = ac and B* = -db.

Basis monomials are A^i B^j (j >= 0) and A^i B*^k (k >= 1); keys are pairs
(i, j) with j > 0 for B powers and j < 0 for B* powers.  Products and the
*-involution are taken on the images and recognized back, so `coordalg` is
the one place that reorders letters: the relations BA = q^2 AB, AB* = q^2 B*A,
B*B = A - A^2 and BB* = q^2 A - q^4 A^2 follow from its relations, and
tests/test_podles.py checks them (test_defining_relations).

The sphere is exactly the right-K-invariant part of the coordinate algebra,
and the modular automorphism of the invariant state acts by
sigma(A) = A, sigma(B) = q^2 B, sigma(B*) = q^-2 B*.
"""

from __future__ import annotations

from functools import lru_cache

from .comb import SparseComb, merge_into
from .coordalg import CoordElement, gen_a, gen_b, gen_c, gen_d
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
    @lru_cache(maxsize=1024)
    def _mono_mul(m1, m2):
        """Product of basis monomials as (mono, RationalQ) pairs: the product
        of their images, recognized."""
        return tuple(recognize(_embed_mono(m1) * _embed_mono(m2)).terms.items())

    def star(self):
        """The *-involution of the coordinate algebra, on the image."""
        return recognize(embed(self).star())


gen_A = PodlesElement._raw({(1, 0): Q_ONE})
gen_B = PodlesElement._raw({(0, 1): Q_ONE})
gen_Bs = PodlesElement._raw({(0, -1): Q_ONE})


def sigma(x: PodlesElement) -> PodlesElement:
    """Modular automorphism: A -> A, B -> q^2 B, B* -> q^-2 B*."""
    return PodlesElement._raw(
        {(i, j): c * qpow(2 * j) for (i, j), c in x.terms.items()}
    )


_IMAGE_A = (gen_b * gen_c).scale(qhalfpow(-2, -1))  # the images of the generators
_IMAGE_B = gen_a * gen_c
_IMAGE_BS = (gen_d * gen_b).scale(-1)


@lru_cache(maxsize=1024)
def _embed_mono(mono) -> CoordElement:
    """The image of a basis monomial A^i B^j, the product of the images of
    its letters, one letter on a cached shorter word: one monomial in normal
    form, since bc commutes and a or d moves past b and c by a power of q."""
    i, j = mono
    if i:
        return _IMAGE_A * _embed_mono((i - 1, j))
    if j:
        return _embed_mono((0, j - 1)) * _IMAGE_B if j > 0 else _embed_mono((0, j + 1)) * _IMAGE_BS
    return CoordElement.one()


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
