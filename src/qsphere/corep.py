"""Ladder construction of the Peter-Weyl weight vectors and exact matrices.

For each spin l the unnormalized vector at the bottom corner is w_{-l,-l} =
a^(2l); raising the row index j applies the twisted right action of F,
raising the column index k applies the left action of E.  Squared norms are
tracked exactly through the step factors [l-j][l+j+1] (no square roots enter
the symbolic layer; normalized vectors exist only in the numeric layer).

Half-integers are stored doubled (twol = 2l etc.) so all indices are ints.
"""

from __future__ import annotations

from fractions import Fraction

from .coordalg import CoordElement
from .errors import CutoffExceeded
from .haar import haar_product, inner
from .podles import PodlesElement, embed
from .scalar import Q_ZERO, RationalQ, qint
from .uq import act_left, gen_E, gen_F, left_weight, r_action, right_weight

MAX_TWOL = 64


def _twol(l_max) -> int:
    t = int(round(2 * Fraction(l_max)))
    if t > MAX_TWOL:
        raise CutoffExceeded(f"l_max = {l_max} exceeds the configured cutoff")
    return t


def alpha_squared(twol: int, twoj: int) -> RationalQ:
    """([l-j][l+j+1])^(1/2) squared: the exact ladder step factor."""
    return qint((twol - twoj) // 2) * qint((twol + twoj + 2) // 2)


class LadderVector:
    """Unnormalized Peter-Weyl vector with its exact squared norm."""

    __slots__ = ("twol", "twoj", "twok", "elem", "norm2", "_star")

    def __init__(self, twol, twoj, twok, elem, norm2):
        self.twol = twol
        self.twoj = twoj
        self.twok = twok
        self.elem = elem
        self.norm2 = norm2
        self._star = None

    @property
    def l(self):
        return Fraction(self.twol, 2)

    @property
    def j(self):
        return Fraction(self.twoj, 2)

    @property
    def k(self):
        return Fraction(self.twok, 2)

    def star_elem(self) -> CoordElement:
        if self._star is None:
            self._star = self.elem.star()
        return self._star

    def key(self):
        return (self.twol, self.twoj, self.twok)

    def __repr__(self):
        return f"LadderVector(l={self.l}, j={self.j}, k={self.k})"


_CACHE: dict[tuple[int, int], dict[int, LadderVector]] = {}
# _CACHE[(twol, twoj)] maps twok -> vector, built lazily row by row

_JROW_CACHE: dict[int, dict[int, LadderVector]] = {}
# _JROW_CACHE[twol] maps twoj -> vector at twok = -twol


def _j_row(twol: int) -> dict[int, LadderVector]:
    """All vectors w_{j, -l} for one l, built by the F-ladder from a^(2l)."""
    row = _JROW_CACHE.get(twol)
    if row is not None:
        return row
    seed_elem = CoordElement.monomial((twol, 0, 0, 0))
    seed = LadderVector(twol, -twol, -twol, seed_elem, inner(seed_elem, seed_elem))
    row = {-twol: seed}
    prev = seed
    for twoj in range(-twol + 2, twol + 1, 2):
        elem = r_action(gen_F, prev.elem)
        norm2 = prev.norm2 * alpha_squared(twol, twoj - 2)
        prev = LadderVector(twol, twoj, -twol, elem, norm2)
        row[twoj] = prev
    _JROW_CACHE[twol] = row
    return row


def _k_row(twol: int, twoj: int) -> dict[int, LadderVector]:
    """All vectors w_{j,k} for fixed l and j, built by the E-ladder."""
    key = (twol, twoj)
    row = _CACHE.get(key)
    if row is not None:
        return row
    start = _j_row(twol)[twoj]
    row = {-twol: start}
    prev = start
    for twok in range(-twol + 2, twol + 1, 2):
        elem = act_left(gen_E, prev.elem)
        norm2 = prev.norm2 * alpha_squared(twol, twok - 2)
        prev = LadderVector(twol, twoj, twok, elem, norm2)
        row[twok] = prev
    _CACHE[key] = row
    return row


def ladder_vector(twol: int, twoj: int, twok: int) -> LadderVector:
    if twol > MAX_TWOL:
        raise CutoffExceeded(f"2l = {twol} exceeds the configured cutoff")
    return _k_row(twol, twoj)[twok]


def build_ladder(l_max) -> dict[tuple[int, int, int], LadderVector]:
    """All vectors with l <= l_max, keyed by (2l, 2j, 2k)."""
    tmax = _twol(l_max)
    out = {}
    for twol in range(0, tmax + 1):
        for twoj in range(-twol, twol + 1, 2):
            for twok, vec in _k_row(twol, twoj).items():
                out[(twol, twoj, twok)] = vec
    return out


def vplus_vminus_basis(l_max):
    """The j = +1/2 rows (first) and j = -1/2 rows for all half-odd l <= l_max.

    Vectors are ordered by (l, k); these are the two module families the
    Dirac operator swaps.
    """
    tmax = _twol(l_max)
    vplus = []
    vminus = []
    for twol in range(1, tmax + 1, 2):
        for twok in range(-twol, twol + 1, 2):
            vplus.append(ladder_vector(twol, 1, twok))
            vminus.append(ladder_vector(twol, -1, twok))
    return vplus, vminus


class ExactMatrix:
    """Dense exact matrix indexed by ladder keys, with untrusted columns
    flagged at the truncation boundary."""

    __slots__ = ("row_keys", "col_keys", "entries", "untrusted_cols")

    def __init__(self, row_keys, col_keys, entries, untrusted_cols=()):
        self.row_keys = list(row_keys)
        self.col_keys = list(col_keys)
        self.entries = entries
        self.untrusted_cols = set(untrusted_cols)

    def entry(self, row_key, col_key) -> RationalQ:
        return self.entries.get((row_key, col_key), Q_ZERO)

    def to_json(self):
        import json

        from .scalar import render

        rpos = {k: i for i, k in enumerate(self.row_keys)}
        cpos = {k: i for i, k in enumerate(self.col_keys)}
        return json.dumps(
            {
                "rows": [list(k) for k in self.row_keys],
                "cols": [list(k) for k in self.col_keys],
                "entries": {
                    f"{rpos[rk]},{cpos[ck]}": render(v)
                    for (rk, ck), v in self.entries.items()
                },
                "untrusted_cols": sorted(cpos[k] for k in self.untrusted_cols),
            },
            sort_keys=True,
        )

    def to_csv(self):
        from .scalar import render

        lines = ["," + ",".join(str(k) for k in self.col_keys)]
        for r in self.row_keys:
            lines.append(
                str(r)
                + ","
                + ",".join(f'"{render(self.entry(r, c))}"' for c in self.col_keys)
            )
        return "\n".join(lines)


def _coord_operand(x) -> CoordElement:
    return embed(x) if isinstance(x, PodlesElement) else x


def mult_matrix(x, source, target, l_max=None) -> ExactMatrix:
    """Matrix of left multiplication by x from span(source) to span(target).

    entry(alpha, beta) = (x w_beta, w_alpha) / |w_alpha|^2, exact.  Columns
    whose image can leave the computed range (l_beta + spin bound of x past
    the family cutoff) are flagged untrusted.
    """
    y = _coord_operand(x)
    if y.localized:
        raise ValueError("multiplication operators need unlocalized symbols")
    deg = y.degree()
    if l_max is not None:
        tmax = _twol(l_max)
        source = [v for v in source if v.twol <= tmax]
        target = [v for v in target if v.twol <= tmax]
    tmax_target = max((v.twol for v in target), default=0)
    # weight bookkeeping: y shifts the right weight uniformly (if homogeneous)
    # and the left weight by each monomial's weight
    entries = {}
    untrusted = set()
    by_weights = {}
    for v in target:
        by_weights.setdefault((v.twoj, v.twok), []).append(v)
    y_lweights = {left_weight(m) for m in y.terms}
    y_rweights = {right_weight(m) for m in y.terms}
    for beta in source:
        if beta.twol + deg > tmax_target:
            untrusted.add(beta.key())
        u = y * beta.elem
        if u.is_zero():
            continue
        cands = []
        for rw in y_rweights:
            for lw in y_lweights:
                cands.extend(by_weights.get((beta.twoj + rw, beta.twok + lw), ()))
        for alpha in cands:
            if abs(alpha.twol - beta.twol) > deg:
                continue
            val = haar_product(alpha.star_elem(), u)
            if not val.is_zero():
                entries[(alpha.key(), beta.key())] = val / alpha.norm2
    return ExactMatrix(
        [v.key() for v in target], [v.key() for v in source], entries, untrusted
    )
