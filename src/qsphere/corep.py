"""The Peter-Weyl ladder of the two spinor families, and exact matrices.

The Dirac operator acts on the j = +-1/2 Peter-Weyl modules V+ and V-.  For
spin l = n - 1/2 the unnormalised vector at the bottom corner is
w_{-l,-l} = a^(2l); the ladder raises the row index j by the twisted right
action of F and the column index k by the left action of E,

    w_{j+1,k} = -R_F w_{j,k},    w_{j,k+1} = E |> w_{j,k},

so the normalised vectors phi = w/|w| follow phi_{j+1} = -R_F phi_j/alpha
and phi_{k+1} = E |> phi_k/alpha with alpha^2 = [l-j][l+j+1].  With T = 2l
and F = (T + s)/2 F-steps to 2j = s, the bottom vector is one monomial, a
matrix coefficient of SU_q(2) (Klimyk-Schmuedgen 1997), so no F-step is
taken: w_{s,n,-2l} = q^(F - n(n-1)/2) [T]!/[T-F]! a^(T-F) c^F.  Squared
norms come from the step factors alone, from |a^(2l)|^2 = q^(2l)/[2l+1],
without the vectors; no square root enters.  With E steps to 2k, and
[F]!/[T-F]! = [(T+1)/2]^s, they multiply to N = q^T [T]!^2 [E]!
[(T+1)/2]^s / ([T+1] [T-E]!).  Vectors, and their norms, are built on
demand: one (s, n) holds its bottom vector and the part of its E-chain
read so far.

`Ladder` is the one implementation of the ladder and of the expansion of an
element in it, a triangular solve on top-degree monomials; `expand_mul`
solves one column of M(x) per level, from the expansions of each monomial
of x times the bottom vector, solved once per level, and fills the rest by
U_q-covariance (the q-Wigner-Eckart theorem).  It keys a vector (s, n, 2k)
with s = 2j and computes with +, -, * and / alone, on the values its one
hook `value` gives the exact coefficients: the RationalQ itself here, and
its `scalar.Surd` at a rational q0 in `spectral._Engine`.  Spins run to
2l <= MAX_TWOL, the one cutoff of both layers.  `vplus_vminus_basis` and
`mult_matrix` read the module's exact `LADDER` and key a vector (2l, 2j,
2k): half-integers are stored doubled so all indices are ints.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .comb import add_term
from .coordalg import CoordElement, mono_mul
from .errors import CutoffExceeded
from .haar import haar
from .podles import PodlesElement, embed
from .scalar import Q_ONE, Q_ZERO, RationalQ, qhalfpow, qint
from .uq import act_left, gen_E, left_weight, right_weight

MAX_TWOL = 99


def _twol(l_max) -> int:
    t = int(round(2 * Fraction(l_max)))
    if t > MAX_TWOL:
        raise CutoffExceeded(f"l_max = {l_max} exceeds the cutoff 2l <= {MAX_TWOL}")
    return t


# the ladder's E-step, unnormalised; a module function, so that it calls
# whatever act_left is bound here at call time
def _e_step(x):
    return act_left(gen_E, x)


class Vector(namedtuple("Vector", "terms ladder key")):
    """An unnormalised ladder vector {mono: coefficient}; norm2 on demand."""

    __slots__ = ()
    norm2 = property(lambda self: self.ladder.norm2(self.key))


class Ladder:
    """The ladder and the expansion in it, with coefficients in Q(q^(1/2));
    every table is filled on first use.  A subclass changes the field by
    overriding `value`."""

    def __init__(self):
        self._images = {}  # (map, mono) -> the exact map's image
        self._states = {}  # mono -> h(mono)
        self._pairings = {}  # (m2, m1) -> h(m2* m1)
        self._chains = {}  # (s, n) -> the E-chain of vector terms built so far
        self._norms = {}  # (s, n) -> the squared norms of the level, by 2k
        self._lowest = {}  # (s, n) -> {mono: expand(mul(mono, w_{s,n,-2l}))}
        self._qints = []  # [m] at index m
        self._halfpows = {}  # m -> q^(m/2)

    # -- the field ----------------------------------------------------------

    def value(self, x: RationalQ):
        """x in the ladder's field."""
        return x

    # -- the exact layer in this field --------------------------------------

    def terms(self, x: CoordElement) -> dict:
        return {m: self.value(c) for m, c in x.terms.items()}

    def mul(self, xs: dict, ys: dict) -> dict:
        out = {}
        for m1, c1 in xs.items():
            for m2, c2 in ys.items():
                c = c1 * c2
                for mono, w in mono_mul(m1, m2):
                    add_term(out, mono, c * self.value(w))
        return out

    def apply(self, fn, xs: dict) -> dict:
        """The exact linear map fn (CoordElement -> CoordElement) on xs."""
        out = {}
        for mono, c in xs.items():
            img = self._images.get((fn, mono))
            if img is None:
                img = self.terms(fn(CoordElement._raw({mono: Q_ONE})))
                self._images[fn, mono] = img
            for m, w in img.items():
                add_term(out, m, c * w)
        return out

    def inner(self, xs: dict, ys: dict):
        """The invariant inner product h(ys* xs)."""
        total = self.value(Q_ZERO)
        for m2, c2 in ys.items():
            part = self.value(Q_ZERO)
            for m1, c1 in xs.items():
                h = self._pairings.get((m2, m1))
                if h is None:
                    h = self._pairings[m2, m1] = self._pairing(m2, m1)
                if h:
                    part = part + c1 * h
            total = total + c2 * part
        return total

    def _pairing(self, m2, m1):
        """h(m2* m1), evaluating only the products the state does not kill."""
        total = self.value(Q_ZERO)
        ((ms, cs),) = self.apply(CoordElement.star, {m2: self.value(Q_ONE)}).items()
        for mono, w in mono_mul(ms, m1):
            h = self._states.get(mono)
            if h is None:
                h = self._states[mono] = self.value(haar(CoordElement._raw({mono: Q_ONE})))
            if h:
                total = total + self.value(w) * h
        return cs * total

    # -- ladder ---------------------------------------------------------------

    def norm2(self, key):
        """The squared norm h(w* w) of w_key, without the vector: the bottom
        norm h((a^2l)* a^2l) = q^(2l)/[2l+1], a Schur orthogonality relation
        (Klimyk-Schmuedgen 1997), times alpha^2 = [l-j][l+j+1] for each
        F-step to 2j = s and each E-step to 2k; multiplied, never reduced."""
        s, n, twok = key
        twol = 2 * n - 1
        norms = self._norms.get((s, n))
        if norms is None:
            # steps[i] is alpha^2 for the step from 2j (or 2k) = -2l + 2i
            steps = [self._qint(twol - i) * self._qint(i + 1) for i in range(twol)]
            bottom = self._halfpow(2 * twol) / self._qint(twol + 1)
            fsteps = (twol + s) // 2
            norms = list(accumulate(steps[:fsteps] + steps, operator.mul, initial=bottom))
            norms = self._norms[s, n] = norms[fsteps:]
        return norms[(twol + twok) // 2]

    def vector(self, key) -> Vector:
        """w_key, extending the E-chain of its (s, n) only as far as 2k from
        the bottom vector q^(F - n(n-1)/2) [T]!/[T-F]! a^(T-F) c^F."""
        s, n, twok = key
        chain = self._chains.get((s, n))
        if chain is None:
            T, F = 2 * n - 1, (2 * n - 1 + s) // 2
            if T > MAX_TWOL:
                raise CutoffExceeded(f"2l = {T} exceeds the cutoff {MAX_TWOL}")
            c = self._halfpow(2 * F - n * (n - 1))
            for m in range(T - F + 1, T + 1):
                c = c * self._qint(m)
            chain = self._chains[s, n] = [{(T - F, 0, F, 0): c}]
        while len(chain) <= (twok + 2 * n - 1) // 2:
            chain.append(self.apply(_e_step, chain[-1]))
        return Vector(chain[(twok + 2 * n - 1) // 2], self, key)

    def level(self, n: int) -> dict:
        """All j = +-1/2 vectors of spin n - 1/2, keyed (2j, 2k)."""
        return {(s, twok): self.vector((s, n, twok))
                for s in (-1, 1) for twok in range(1 - 2 * n, 2 * n, 2)}

    def expand(self, u: dict) -> dict:
        """Coefficients {(s, n, twok): c} of u in the unnormalised ladder.

        Within one family and left weight, a spin-l vector has degree
        exactly 2l, so a top-degree monomial of level n (its pivot) occurs
        in no lower level and the solve runs from the top level down; the
        remainder must vanish, which makes the expansion the unique one.
        The part of u of right weight other than +-1 is orthogonal to both
        families and dropped.
        """
        groups = {}
        for m, c in u.items():
            if abs(right_weight(m)) == 1:
                groups.setdefault((right_weight(m), left_weight(m)), {})[m] = c
        out = {}
        for (s, twok), rest in groups.items():
            n = (max(map(sum, rest)) + 1) // 2
            while rest and 2 * n - 1 >= abs(twok):
                vec = self.vector((s, n, twok))
                pivot = max(vec.terms, key=sum)
                c = rest.get(pivot)
                if c is not None:
                    c = out[s, n, twok] = c / vec.terms[pivot]
                    minus_c = -c
                    for m, w in vec.terms.items():
                        add_term(rest, m, minus_c * w)
                n -= 1
            if rest:
                raise ArithmeticError(f"remainder {rest} outside the ladder")
        return out

    def _halfpow(self, m: int):
        """q^(m/2) in the field, cached."""
        if m not in self._halfpows:
            self._halfpows[m] = self.value(qhalfpow(m))
        return self._halfpows[m]

    def _qint(self, m: int):
        """[m] in the field, cached."""
        while len(self._qints) <= m:
            self._qints.append(self.value(qint(len(self._qints))))
        return self._qints[m]

    def e_chain(self, xs: dict) -> list:
        """xs, E |> xs, E^2 |> xs, ... up to the last that is not zero."""
        chain = []
        while xs:
            chain.append(xs)
            xs = self.apply(_e_step, xs)
        return chain

    def expand_mul(self, chain: list, s: int, n: int) -> dict:
        """{twok: expand(mul(xs, w_{s,n,twok}))} over level n, solving only
        the lowest-weight column of each of the E-chain xs, E |> xs, ... given.

        By Delta(E) = E (x) K + K^-1 (x) E and w_{k+1} = E |> w_k, a part x_w
        of x of left weight w has x_w w_{k+1} = q^(w/2) (E |> (x_w w_k)
        - q^(2k/2) (E |> x_w) w_k), where E |> shifts a key (s', n', t) of
        an expansion to t + 2 and kills t = 2n' - 1.  A key of x_w w_k has
        t = w + 2k, so x is never split by weight.  Carried as
        c q^(-(t - 2k)(2k + 2l)/4), a term moves without a product, those of
        (E |> x_w) w_k gain -q^(2k + l), and one power restores an entry.
        """
        twol = 2 * n - 1
        chain = [self._lowest_column(x, s, n) for x in chain] + [{}]
        out = {-twol: chain[0]}
        for twok in range(-twol, twol, 2):
            h = -self._halfpow(2 * twok + twol)
            for i in range(len(chain) - 1):
                col = {(s2, n2, t + 2): c for (s2, n2, t), c in chain[i].items() if t < 2 * n2 - 1}
                for key, c in chain[i + 1].items():
                    add_term(col, key, h * c)
                chain[i] = col
            g = twok + 2 + twol
            out[twok + 2] = {(s2, n2, t): self._halfpow((t - twok - 2) * g // 2) * c
                             for (s2, n2, t), c in chain[0].items()}
        return out

    def _lowest_column(self, xs: dict, s: int, n: int) -> dict:
        """expand(mul(xs, w_{s,n,-2l})) by linearity from the expansion of
        each monomial times the bottom vector, in the key order of `expand`:
        weight groups as first met, n falling within each."""
        cols = self._lowest.setdefault((s, n), {})
        out = {}
        for m, c in xs.items():
            col = cols.get(m)
            if col is None:
                bottom = self.vector((s, n, 1 - 2 * n)).terms
                col = cols[m] = self.expand(self.mul({m: self.value(Q_ONE)}, bottom))
            for key, v in col.items():
                add_term(out, key, c * v)
        rank = {g: i for i, g in enumerate(dict.fromkeys(key[::2] for key in out))}
        return dict(sorted(out.items(), key=lambda kv: (rank[kv[0][::2]], -kv[0][1])))


# the exact ladder, shared by every caller
LADDER = Ladder()


class LadderVector(namedtuple("LadderVector", "twol twoj twok elem norm2")):
    """Unnormalized Peter-Weyl vector with its exact squared norm."""

    __slots__ = ()

    def key(self):
        return self[:3]

    def star_elem(self) -> CoordElement:
        return self.elem.star()


def vplus_vminus_basis(l_max):
    """The j = +1/2 rows (first) and j = -1/2 rows for all half-odd l <= l_max.

    Vectors are ordered by (l, k); these are the two module families the
    Dirac operator swaps.
    """
    tmax = _twol(l_max)
    families = {1: [], -1: []}
    for twol in range(1, tmax + 1, 2):
        for (s, twok), v in LADDER.level((twol + 1) // 2).items():
            families[s].append(LadderVector(twol, s, twok, CoordElement._raw(v.terms), v.norm2))
    return families[1], families[-1]


class ExactMatrix(namedtuple("ExactMatrix", "entries untrusted_cols")):
    """Exact matrix entries {(row key, column key): entry} over ladder keys,
    with untrusted columns flagged at the truncation boundary."""

    __slots__ = ()

    def entry(self, row_key, col_key) -> RationalQ:
        return self.entries.get((row_key, col_key), Q_ZERO)


def mult_matrix(x: PodlesElement, source, target) -> ExactMatrix:
    """Matrix of left multiplication by x from span(source) to span(target).

    entry(alpha, beta) is the coefficient of w_alpha in the ladder expansion
    of x w_beta, that is (x w_beta, w_alpha) / |w_alpha|^2, exact.  Columns
    whose image can leave the target range (l_beta + spin bound of x past
    the top spin of target) are flagged untrusted.
    """
    y = embed(x)
    chain, deg = LADDER.e_chain(LADDER.terms(y)), y.degree()
    rows = {v.key() for v in target}
    tmax = max((v.twol for v in target), default=0)
    entries = {}
    untrusted = set()
    levels = {}  # (2l, 2j) -> {twok: expansion}
    for beta in source:
        if beta.twol + deg > tmax:
            untrusted.add(beta.key())
        level = (beta.twol, beta.twoj)
        if level not in levels:
            levels[level] = LADDER.expand_mul(chain, beta.twoj, (beta.twol + 1) // 2)
        for (s, n, twok), c in levels[level][beta.twok].items():
            if (2 * n - 1, s, twok) in rows:
                entries[(2 * n - 1, s, twok), beta.key()] = c
    return ExactMatrix(entries, untrusted)
