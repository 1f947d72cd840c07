"""The quantized enveloping algebra of su(2), its Hopf structure, the dual
pairing with the coordinate algebra, and the three action maps.

Generators E, F, K, K^-1 with

    K K^-1 = 1,  KE = q EK,  FK = q KF,  EF - FE = (K^2 - K^-2)/(q - q^-1),

involution E* = F, K* = K, coproduct Delta(E) = E(x)K + K^-1(x)E (same shape
for F), Delta(K) = K(x)K, counit eps(E) = eps(F) = eps(K-1) = 0, antipode
S(K) = K^-1, S(E) = -qE, S(F) = -q^-1 F.

PBW basis: F^f K^k E^e with f, e >= 0 and k any integer.
"""

from __future__ import annotations

from functools import lru_cache

from .comb import SparseComb, TensorComb, add_term, merge_into
from .coordalg import CoordElement, mono_mul
from .scalar import Q_ONE, Q_ZERO, RationalQ, qgeom, qhalfpow, qlambda, qpow

MONO_ONE = (0, 0, 0)


class UqElement(SparseComb):
    """Element of U_q(su_2) in PBW normal form."""

    __slots__ = ()

    ONE_KEY = MONO_ONE
    LETTERS = (("F", None), ("K", "Kinv"), ("E", None))

    @staticmethod
    def _check_key(mono):
        f, k, e = mono
        if f < 0 or e < 0:
            raise ValueError(f"negative E or F exponent in {mono}")

    @staticmethod
    def _mono_mul(m1, m2):
        f1, k1, e1 = m1
        f2, k2, e2 = m2
        if e1 == 0 and k1 == 0:
            return (((f1 + f2, k2, e2), Q_ONE),)
        if f2 == 0 and k2 == 0:
            return (((f1, k1, e1 + e2), Q_ONE),)
        # assemble F^f1 K^k1 (F^xf K^xk E^xe) K^k2 E^e2; distinct (xf, xk, xe)
        # give distinct monomials
        return [
            ((f1 + xf, k1 + xk + k2, xe + e2), c * qpow(-k1 * xf - xe * k2))
            for (xf, xk, xe), c in _ef_cross(e1, f2).terms.items()
        ]


gen_E = UqElement._raw({(0, 0, 1): Q_ONE})
gen_F = UqElement._raw({(1, 0, 0): Q_ONE})
gen_K = UqElement._raw({(0, 1, 0): Q_ONE})
gen_Kinv = UqElement._raw({(0, -1, 0): Q_ONE})


@lru_cache(maxsize=1024)
def _ef_cross(e, f):
    """E^e F^f in PBW normal form (the only nontrivial rewriting)."""
    if e == 0 or f == 0:
        return UqElement._raw({(f, 0, e): Q_ONE})
    if e == 1:
        # E F^f = F (E F^(f-1)) + lambda^-1 (q^(-2(f-1)) F^(f-1) K^2
        #                                    - q^(2(f-1)) F^(f-1) K^-2)
        lam_inv = qlambda().inverse()
        acc = {(pf + 1, pk, pe): c for (pf, pk, pe), c in _ef_cross(1, f - 1).terms.items()}
        merge_into(
            acc,
            {
                (f - 1, 2, 0): lam_inv * qpow(-2 * (f - 1)),
                (f - 1, -2, 0): -lam_inv * qpow(2 * (f - 1)),
            },
        )
        return UqElement._raw(acc)
    return UqElement._raw({(0, 0, e - 1): Q_ONE}) * _ef_cross(1, f)


def uq_counit(f: UqElement) -> RationalQ:
    total = Q_ZERO
    for (ff, kk, ee), c in f.terms.items():
        if ff == 0 and ee == 0:
            total = total + c
    return total


def uq_star(f: UqElement) -> UqElement:
    """The involution E* = F, F* = E, K* = K (antilinear antihomomorphism)."""
    # (F^f K^k E^e)* = F^e K^k E^f
    return UqElement._raw({(ee, kk, ff): c for (ff, kk, ee), c in f.terms.items()})


def uq_antipode(f: UqElement) -> UqElement:
    """S(F^f K^k E^e) = (-1)^(e+f) q^(e-f) E^e K^-k F^f: S is an
    antihomomorphism with S(E) = -qE, S(K) = K^-1 and S(F) = -q^-1 F."""
    acc = {}
    for (ff, kk, ee), c in f.terms.items():
        word = UqElement.monomial((0, 0, ee)) * UqElement.monomial((0, -kk, 0))
        word = word * UqElement.monomial((ff, 0, 0))
        merge_into(acc, word.terms, c * qhalfpow(2 * (ee - ff), (-1) ** (ee + ff)))
    return UqElement._raw(acc)


class UqTensor(TensorComb):
    """Element of the n-fold tensor power of U_q(su_2)."""

    __slots__ = ()

    FACTOR = UqElement


def _gen_coproduct(mono, n):
    """n-fold coproduct of E (mono (0, 0, 1)) or F (mono (1, 0, 0)) as a
    UqTensor: Delta^(n)(E) = sum_i K^-1 (x) ... (x) E_i (x) ... (x) K."""
    terms = {}
    for i in range(n):
        key = tuple(
            (0, -1, 0) if t < i else mono if t == i else (0, 1, 0) for t in range(n)
        )
        terms[key] = Q_ONE
    return UqTensor._raw(terms, n)


def uq_coproduct(f: UqElement, n: int = 2) -> UqTensor:
    acc = {}
    for (ff, kk, ee), c in f.terms.items():
        k = UqTensor._raw({((0, kk, 0),) * n: Q_ONE}, n)  # K^k (x) ... (x) K^k
        t = _gen_coproduct((1, 0, 0), n) ** ff * k * _gen_coproduct((0, 0, 1), n) ** ee
        merge_into(acc, t.terms, c)
    return UqTensor._raw(acc, n)


# -- actions on the coordinate algebra ---------------------------------------

# The single-letter actions of E and F, the only table of them in the
# package; letters are indexed 0..3 for a, b, c, d.  Side "L" is the left
# action g |> x, side "R" the right action x <| g; letters not listed vanish.
# Each entry is (y, delta) for the image y of the letter x, which
# q-commutes with it: y x = q^delta x y.
LETTER_ACTION = {
    ("L", "E"): {0: ((0, 1, 0, 0), -1), 2: ((0, 0, 0, 1), -1)},  # E|>a = b, E|>c = d
    ("L", "F"): {1: ((1, 0, 0, 0), 1), 3: ((0, 0, 1, 0), 1)},  # F|>b = a, F|>d = c
    ("R", "E"): {2: ((1, 0, 0, 0), 1), 3: ((0, 1, 0, 0), 1)},  # c<|E = a, d<|E = b
    ("R", "F"): {0: ((0, 0, 1, 0), -1), 1: ((0, 0, 0, 1), -1)},  # a<|F = c, b<|F = d
}
_LETTER_MONOS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def left_weight(mono):
    """2w such that K |> mono = q^w mono."""
    a, b, c, d = mono
    return -a + b - c + d


def right_weight(mono):
    """2w such that mono <| K = q^w mono."""
    a, b, c, d = mono
    return -a - b + c + d


WEIGHT = {"L": left_weight, "R": right_weight}


@lru_cache(maxsize=4096)
def _act_mono(side, gen, mono) -> CoordElement:
    """E or F acting on one normal monomial: gen |> mono on side "L",
    mono <| gen on side "R".

    Both actions expand through Delta(g) = g (x) K + K^-1 (x) g, so g acts
    on a word letter by letter, as the sum of (K^-1 . before) (g . letter)
    (K . after).  In mono = P x^e S the image y of x q-commutes with x,
    y x = q^delta x y, so the e terms of the group x^e are one element
    H y S, H = P x^(e-1), times sum_i q^((W(S) - W(H))/2 + i (W(x) + delta))
    over i = 0..e-1, for the weight W of K on that side.
    """
    weight = WEIGHT[side]
    acc = {}
    for letter, (img, delta) in LETTER_ACTION[side, gen].items():
        e = mono[letter]
        if e:
            head = mono[:letter] + (e - 1,) + (0,) * (3 - letter)
            tail = (0,) * (letter + 1) + mono[letter + 1:]
            step = 2 * (weight(_LETTER_MONOS[letter]) + delta)
            coeff = qgeom(e, weight(tail) - weight(head), step)
            for m, w in mono_mul(head, img):
                for m2, w2 in mono_mul(m, tail):
                    add_term(acc, m2, w * w2 * coeff)
    return CoordElement._raw(acc)


def _act_gen(side, gen, x: CoordElement) -> CoordElement:
    """One generator E, F, K or Kinv acting on x from the given side."""
    if gen in ("K", "Kinv"):
        sign = 1 if gen == "K" else -1
        weight = WEIGHT[side]
        return CoordElement._raw(
            {m: c * qhalfpow(sign * weight(m)) for m, c in x.terms.items()}
        )
    acc = {}
    for mono, c in x.terms.items():
        merge_into(acc, _act_mono(side, gen, mono).terms, c)
    return CoordElement._raw(acc)


def _letters(e, k, f) -> list:
    """The generators of E^e, then K^k (K^-1 for k < 0), then F^f, in turn."""
    return ["E"] * e + ["K" if k > 0 else "Kinv"] * abs(k) + ["F"] * f


def _act_words(side, words, x: CoordElement) -> CoordElement:
    """The sum over (word, c) of c times x acted on by the letters of word in turn."""
    acc = {}
    for word, c in words:
        y = x
        for gen in word:
            y = _act_gen(side, gen, y)
        merge_into(acc, y.terms, c)
    return CoordElement._raw(acc)


def _act(side, f, x: CoordElement) -> CoordElement:
    # F^f K^k E^e |> x applies E first, x <| F^f K^k E^e applies F first
    order = 1 if side == "L" else -1
    words = [(_letters(ee, kk, ff)[::order], c) for (ff, kk, ee), c in f.terms.items()]
    return _act_words(side, words, x)


def act_left(f: UqElement, x: CoordElement) -> CoordElement:
    """The left module-algebra action f |> x."""
    return _act("L", f, x)


def act_right(x: CoordElement, f: UqElement) -> CoordElement:
    """The right module-algebra action x <| f."""
    return _act("R", f, x)


def r_action(f: UqElement, x: CoordElement) -> CoordElement:
    """R_f(x) = x <| S^-1(f), the *-representation used by the Dirac layer.

    S^-1 is an antihomomorphism with S^-1(E) = -q^-1 E, S^-1(K) = K^-1 and
    S^-1(F) = -qF, so S^-1(F^f K^k E^e) = S^-1(E)^e S^-1(K)^k S^-1(F)^f =
    (-1)^(e+f) q^(f-e) E^e K^-k F^f.  A right action takes the letters of
    a product from the left, x <| (g h) = (x <| g) <| h, so x <| S^-1(f)
    applies E e times, then K^-k, then F f times, with no normal ordering."""
    words = [(_letters(ee, -kk, ff), c * qhalfpow(2 * (ff - ee), (-1) ** (ee + ff)))
             for (ff, kk, ee), c in f.terms.items()]
    return _act_words("R", words, x)


def pair(f: UqElement, x: CoordElement) -> RationalQ:
    """The dual pairing <f, x> = eps(f |> x)."""
    return act_left(f, x).counit()
