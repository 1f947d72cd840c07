"""Finite linear combinations of basis monomials over Q(q^(1/2)).

Every exact algebra in the package (the coordinate algebra, U_q(su_2), the
quantum sphere, their tensor powers and the chains over the sphere) stores
an element as a dict {monomial key: RationalQ}.  SparseComb holds the code
they share: the zero-dropping constructor, the merging sum, scaling, the
product loop over a per-class monomial product, powers and rendering.

The contract that code rests on: every algebra has a unit key, tensor
powers included, and the product of two basis monomials is a sequence of
(key, RationalQ) pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityError
from .scalar import Q_ONE, RationalQ, power, render

_SCALARS = (int, Fraction, RationalQ)


def _as_q(c) -> RationalQ:
    return c if isinstance(c, RationalQ) else RationalQ(c)


def add_term(acc: dict, key, c):
    """acc[key] += c in place, dropping a sum that cancels: the one merge of
    the exact algebras and of the ladder in either of its fields."""
    old = acc.get(key)
    if old is not None:
        c = old + c
    if c:
        acc[key] = c
    elif old is not None:
        del acc[key]


def merge_into(acc: dict, terms: dict, coeff=None):
    """acc += coeff * terms in place (unscaled for None or Q_ONE), dropping sums that cancel."""
    for key, c in terms.items():
        add_term(acc, key, c if coeff is None or coeff is Q_ONE else c * coeff)


class SparseComb:
    """Finite combination sum_m c_m m of basis monomials, c_m in Q(q^(1/2)).

    Canonical form: no zero coefficient is ever stored, and the keys are
    basis monomials of a normal form, so two elements are equal exactly
    when their term dicts are equal; `==` decides equality.

    Subclasses supply the key check (_check_key), the unit key (ONE_KEY),
    the product of two basis monomials (_mono_mul, returning (key, RationalQ)
    pairs), the letters that render a key (LETTERS) and, for an extra field
    such as a tensor arity, _raw and _like.
    Values are immutable.
    """

    __slots__ = ("terms",)

    ONE_KEY = None
    # per position of a key: (name, name of the inverse letter or None)
    LETTERS = ()

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _as_q(coeff)
                if not coeff.is_zero():
                    self._check_key(key)
                    clean[key] = coeff
        self.terms = clean

    @staticmethod
    def _check_key(key):
        """Raise ValueError for a key outside the basis."""

    @classmethod
    def _raw(cls, terms):
        """Trusted constructor: terms already canonical."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def _like(self, terms, other=None):
        """An element of the same space as self (and other) with these terms."""
        return self._raw(terms)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({cls.ONE_KEY: Q_ONE})

    @classmethod
    def monomial(cls, mono, coeff=Q_ONE):
        return cls({tuple(mono): coeff})

    def _lift(self, other):
        """other in the space of self: a scalar becomes a multiple of one."""
        if type(other) is type(self) or isinstance(other, type(self)):
            return other
        if isinstance(other, _SCALARS):
            c = _as_q(other)
            return self._like({} if c.is_zero() else {self.ONE_KEY: c})
        return NotImplemented

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a multiple of the unit equals its scalar, so it hashes as that scalar
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and self.ONE_KEY in self.terms:
            return hash(self.terms[self.ONE_KEY])
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _mono_degree(mono):
        return sum(abs(e) for e in mono)

    def degree(self):
        return max(map(self._mono_degree, self.terms), default=0)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        merge_into(d, other.terms)
        return self._like(d, other)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, coeff):
        coeff = _as_q(coeff)
        if coeff.is_zero():
            return self._like({})
        return self._like({m: c * coeff for m, c in self.terms.items()})

    # -- algebra structure ------------------------------------------------

    @staticmethod
    def _mono_mul(m1, m2):
        raise TypeError("this space has no product")

    def __mul__(self, other):
        if type(other) is not type(self):  # before the ABC check of _SCALARS
            if isinstance(other, _SCALARS):
                return self.scale(other)
            if not isinstance(other, type(self)):
                return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for mono, w in self._mono_mul(m1, m2):
                    add_term(out, mono, c * w)
        return self._like(out, other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined on elements")
        return power(self, n, self._like({self.ONE_KEY: Q_ONE}))

    # -- rendering --------------------------------------------------------

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts, one = [], self.ONE_KEY
        for mono in sorted(self.terms, key=lambda m: (self._mono_degree(m), m)):
            body = self._render_mono(mono)
            cs = render(self.terms[mono])
            if mono == one:
                s = cs
            elif cs == "1":
                s = body
            elif cs == "-1":
                s = f"-{body}"
            elif " " in cs or "/" in cs:
                s = f"({cs})*{body}"
            else:
                s = f"{cs}*{body}"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    @classmethod
    def _render_mono(cls, mono):
        factors = []
        for e, (name, inverse) in zip(mono, cls.LETTERS):
            if e < 0 and inverse:
                name, e = inverse, -e
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors) or "1"


class TensorComb(SparseComb):
    """Element of an n-fold tensor power: keys are n-tuples of monomials of
    the factor algebra FACTOR, and a key's check, degree, rendering and
    product (with RationalQ weights) are FACTOR's, slot by slot.  The unit
    key is FACTOR's unit key in every slot, so scalars, powers and hashing
    work as on the factor; `of` takes only FACTOR elements and scalars."""

    __slots__ = ("arity",)

    FACTOR = None

    def __init__(self, arity, terms=None):
        self.arity = arity
        super().__init__(terms)

    def _check_key(self, key):
        if len(key) != self.arity:
            raise ArityError("tensor key arity mismatch")
        for mono in key:
            self.FACTOR._check_key(mono)

    @property
    def ONE_KEY(self):
        return (self.FACTOR.ONE_KEY,) * self.arity

    @classmethod
    def _raw(cls, terms, arity):
        out = cls.__new__(cls)
        out.terms = terms
        out.arity = arity
        return out

    def _like(self, terms, other=None):
        if other is not None and other.arity != self.arity:
            raise ArityError("tensor arity mismatch")
        return self._raw(terms, self.arity)

    @classmethod
    def zero(cls, arity):
        return cls._raw({}, arity)

    @classmethod
    def one(cls, arity):
        return cls._raw({(cls.FACTOR.ONE_KEY,) * arity: Q_ONE}, arity)

    @classmethod
    def of(cls, *factors):
        """Tensor product of factor-algebra elements or scalars."""
        terms = {(): Q_ONE}
        for f in factors:
            if isinstance(f, _SCALARS):
                f = cls.FACTOR.one().scale(f)
            elif not isinstance(f, cls.FACTOR):
                raise TypeError(f"{type(f).__name__} is not a {cls.FACTOR.__name__} factor")
            terms = {
                key + (m,): c0 * c
                for key, c0 in terms.items()
                for m, c in f.terms.items()
            }
        return cls(len(factors), terms)

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = SparseComb.__hash__

    @classmethod
    def _mono_degree(cls, key):
        return sum(map(cls.FACTOR._mono_degree, key))

    @classmethod
    def _render_mono(cls, key):
        return " (x) ".join(map(cls.FACTOR._render_mono, key))

    def _mono_mul(self, k1, k2):
        slot_mul = self.FACTOR._mono_mul
        parts = [slot_mul(m1, m2) for m1, m2 in zip(k1, k2)]
        out = [((m,), w) for m, w in parts[0]]
        for slot in parts[1:]:
            out = [(key + (m,), w * w2) for key, w in out for m, w2 in slot]
        return out

    def __repr__(self):
        return f"{type(self).__name__}(arity={self.arity}, {len(self.terms)} terms)"
