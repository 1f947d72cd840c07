"""Numeric realization of the Dirac operator on a truncated Hilbert space.

The truncated space at level cutoff L carries the orthonormal weight basis
phi^(s)_{n,k} (s = +-1, n = 1..L, k in half-integers |k| <= n - 1/2) at a
fixed rational 0 < q0 < 1, normalized so that the twisted right actions act
exactly as

    R_E phi^+_{n,k} = -[n] phi^-_{n,k},   R_F phi^-_{n,k} = -[n] phi^+_{n,k}.

In this basis D, every M(x) and [D, M(x)] have real entries, each an
element of Q(sqrt(q0)) rounded once.  A column of M(x) holds a few
entries, so each operator is a sparse `Operator` of real COO arrays, and
products, commutators with D and trace diagonals cost O(nnz).  Each
trace formula holds level by level, so checking it at a real z > 2 loses
nothing, and z is a real number.  The one antilinear operator, the real
structure J, is held as the unitary U of J v = U conj(v): U is -i times a
signed permutation like D, and `build_J` is the one complex array.

Spaces are built with `PAD` levels beyond L.  M(x) moves levels by at most
`_shift(x)`, so a product is exact on the levels up to npad less the sum
of its operands' shifts; traces sum only diagonal entries there, and
report the discarded boundary count.  A check fills only the levels its
window reads and the families its weights read, and holds no entry in the
others: x0 [D,x1] [D,x2] on the levels n <= W = npad - s0 - s1 - s2 reads
x0 through level W + s0, x2 through W and x1 through W + min(s2, s0 + s1);
the commutant checks read M(x) and M(y) through npad - max(s_x, s_y); the
h-trace, whose weights vanish on s = -1, reads the s = 1 diagonal of M(x)
straight from the level tables.  `build_mult` fills both families.

Exact construction: the basis is the one ladder of `corep.Ladder`, with
its sign convention phi_{j+1} = -R_F phi_j/alpha, phi_{k+1} = E |> phi_k/alpha
and its cutoff 2l <= `corep.MAX_TWOL`, evaluated at q0 by `_Engine`, which
maps each distinct exact coefficient to its `scalar.Surd` (e + o sqrt(q0))/d
of ints.  The unnormalised vectors w are built on demand: the columns of
M(x) on a level come from `Ladder.expand_mul`, which solves only the lowest
one.  The engine keeps per operator one level table per (s, n), COO arrays
in keys that do not depend on L, which `_operator` places by arithmetic.
Rounding enters M(x) in one place, `_Engine._round`, for an entry
c sqrt(N_alpha / N_beta).  With the squared norms of `corep`, N = q^T [T]!^2
[E]! [(T+1)/2]^s / ([T+1] [T-E]!), `_Engine._norm_ratio` gives N_alpha /
N_beta = r_num / r_den, without a gcd, as a part of the two levels, cached
per pair, times [E_alpha]!/[E_beta]! and [T_beta-E_beta]!/[T_alpha-E_alpha]!,
each cached, from the ladder's own [m] = e/d at q0 (`Ladder._qint`).
A nonzero part e/d of c is then the square root of one int true division,
(e^2 r_num) / (d^2 r_den), times p/r under the root for the odd part,
signed as e.  The division rounds c_part^2 N_alpha / N_beta correctly, so
each part is within one ulp, and no part is read as a float: a coefficient
past the float range rounds as long as its entry is in it.  So
M(x*) = M(x)^T holds to the bit, and only the member of {x, x*} with the
shorter E-chain (x on a tie) is filled, as `_Engine.filled` decides,
transposed for the other: in the checks, B is read off B*'s tables.
Vectors and tables are built once per q0 and shared by every space at
that q0; the engines of the few most recent q0 are kept.  A check embeds
each operand once; `fodc` memoises the exact tau per triple.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .coordalg import CoordElement
from .corep import MAX_TWOL, Ladder, Vector
from .errors import CutoffExceeded
from .fodc import tau
from .haar import haar
from .podles import PodlesElement, embed, recognize
from .report import record
from .scalar import Surd, evaluate


def qnum(n: int, q0: float) -> float:
    """The q-deformed integer at a numeric point."""
    return (q0**n - q0**-n) / (q0 - 1.0 / q0)


class _Engine(Ladder):
    """The exact ladder at one rational q0, with values in Q(sqrt(q0)) as
    `scalar.Surd`s and one table of levels per M(y)."""

    def __init__(self, q0: Fraction):
        super().__init__()
        self.q0 = q0
        self._values = {}  # RationalQ -> its Surd
        self._levels = {}  # y -> {(s, n): level table of M(y)}
        self.reads_star = {}  # y -> whether M(y) is read as M(y*)^T
        self._pairs, self._ranges = {}, {}  # P by (sa, na, sb, nb), [hi]!/[lo]! by (lo, hi)

    def value(self, x):
        """A RationalQ at q0, evaluated once per distinct value."""
        v = self._values.get(x)
        if v is None:
            v = self._values[x] = Surd.at(x, self.q0)
        return v

    def _norm_ratio(self, alpha, beta) -> tuple:
        """N_alpha / N_beta as ints (num, den), unreduced and without a gcd:
        the part P of the two levels, cached per pair, times the ranges
        [E_alpha]!/[E_beta]! and [T_beta - E_beta]!/[T_alpha - E_alpha]!."""
        (sa, na, ka), (sb, nb, kb), rng = alpha, beta, self._range
        ea, eb = na + (ka - 1) // 2, nb + (kb - 1) // 2  # E = (T + 2k)/2
        pair = self._pairs.get((sa, na, sb, nb))
        if pair is None:  # q^(Ta - Tb) ([Ta]!/[Tb]!)^2 [na]^sa [nb]^-sb [Tb + 1]/[Ta + 1]
            ta, tb = 2 * na - 1, 2 * nb - 1
            pair = self._pairs[sa, na, sb, nb] = _prod(
                (self.q0 ** (ta - tb)).as_integer_ratio(), rng(tb, ta), rng(tb, ta),
                rng(na - (sa > 0), na - (sa < 0)), rng(nb - (sb < 0), nb - (sb > 0)),
                rng(tb, tb + 1), rng(ta + 1, ta))
        (pn, pd), (en, ed), (tn, td) = pair, rng(eb, ea), rng(2 * na - 1 - ea, 2 * nb - 1 - eb)
        return pn * en * tn, pd * ed * td

    def _range(self, lo, hi) -> tuple:
        """[hi]!/[lo]! as ints (num, den), cached; each [m] is rational, e/d."""
        out = self._ranges.get((lo, hi))
        if out is None:
            qints = map(self._qint, range(lo + 1, hi + 1))
            out = self._ranges[lo, hi] = (_prod(*((v.e, v.d) for v in qints))
                                          if lo <= hi else self._range(hi, lo)[::-1])
        return out

    def _round(self, key, coeffs) -> list:
        """The entries c sqrt(N_alpha / N_key) of w_key's orthonormal column,
        in the order of its coefficients {alpha: c}: where rounding enters."""
        p, r = self.q0.numerator, self.q0.denominator
        out = []
        for alpha, c in coeffs.items():
            rn, rd = self._norm_ratio(alpha, key)
            e, o, dd = c.e, c.o, c.d * c.d * rd
            entry = 0.0  # a zero part adds nothing, so it is skipped
            if e:
                v = math.sqrt(e * e * rn / dd)
                entry += v if e > 0 else -v
            if o:
                v = math.sqrt(o * o * p * rn / (dd * r))
                entry += v if o > 0 else -v
            out.append(entry)
        return out

    def levels(self, y, top, families=(1, -1)) -> list:
        """The level tables of M(y), s in families (s = 1 then -1 by
        default) and n = 1..top: (keys, vals) of the columns of (s, n), 2k
        rising, keys' rows the family index and s < 0 of the row, then of
        the column; each filled once, free of L, and none of another family
        filled."""
        table = self._levels.setdefault(y, {})
        levels = [(s, n) for s in families for n in range(1, top + 1)]
        missing = [level for level in levels if level not in table]
        chain = missing and self.e_chain(self.terms(y))  # built once per fill
        for s, n in missing:
            keys, vals = [], []
            for twok, coeffs in self.expand_mul(chain, s, n).items():
                col = n * (n - 1) + (twok + 2 * n - 1) // 2
                keys += [(m * (m - 1) + (t + 2 * m - 1) // 2, s2 < 0, col, s < 0)
                         for s2, m, t in coeffs]
                vals += self._round((s, n, twok), coeffs)
            table[s, n] = np.array(keys, dtype=np.intp).reshape(-1, 4).T, np.array(vals)
        return [table[level] for level in levels]

    def filled(self, y) -> tuple:
        """(y or y*, whether y*): the operand whose tables M(y) is read off,
        as M(y*)^T when y* has the shorter E-chain (y on a tie)."""
        star = self.reads_star.get(y)
        if star is None:
            star = self.reads_star[y] = (len(self.e_chain(self.terms(y.star())))
                                         < len(self.e_chain(self.terms(y))))
        return (y.star() if star else y), star


def _prod(*parts) -> tuple:
    """The product of fractions (num, den) as ints (num, den), unreduced."""
    return math.prod(a for a, _ in parts), math.prod(b for _, b in parts)


# one engine per q0, shared by every space at that q0; the few most
# recently used are kept, each holding megabytes of tables
_engine_for = functools.lru_cache(maxsize=4)(_Engine)

# levels built beyond the reported L, so operator products stay exact there
PAD = 3


class TruncatedSpace:
    """Orthonormal truncated basis phi^(s)_{n,k} with padding levels.

    Levels run n = 1..L for reporting; internally the basis is built to
    npad = L + PAD so that operator products of bounded level shift stay
    exact on the reported window.  `vec` maps a key (s, n, 2k) to its
    unnormalised ladder vector, built on first read; no check reads it.
    A (q0, L) whose largest power q0^(-2 npad) is past the float range is
    refused with ValueError.  Key (s, n, 2k) is at n (n - 1) + (2k + 2n - 1)/2
    (`n`, `twok`), plus `family` = npad (npad + 1) if s = -1.
    """

    def __init__(self, q0, L: int):
        if L < 1:
            raise ValueError("L must be at least 1")
        if 2 * (L + PAD) - 1 > MAX_TWOL:
            raise CutoffExceeded("truncation level too large")
        if isinstance(q0, float):
            raise TypeError(f"float q0 {q0!r}: the exact basis takes an int or Fraction")
        self.q0_exact = Fraction(q0)
        if not 0 < self.q0_exact < 1:
            raise ValueError("q0 must satisfy 0 < q0 < 1")
        self.q0 = float(self.q0_exact)
        self.L = L
        self.npad = L + PAD
        # the zeta sums read [2n] through n = npad
        try:
            self.q0 ** (-2 * self.npad)
        except OverflowError:
            raise ValueError(f"q0 = {q0} at L = {L} needs q0^-{2 * self.npad}, past the float "
                             f"range") from None
        self.engine = _engine_for(self.q0_exact)
        levels = np.arange(1, self.npad + 1)
        self.n = n = np.repeat(levels, 2 * levels)
        self.family, self.dim = len(n), 2 * len(n)
        self.twok = 2 * np.arange(self.family) - 2 * n * n + 1
        # D = diag(dirac) P for the involution P: (s, n, 2k) -> (-s, n, 2k)
        self.swap = (np.arange(self.dim) + self.family) % self.dim
        self.dirac = np.tile(np.array([-qnum(m, self.q0) for m in levels.tolist()])[n - 1], 2)
        # U = J conj: (s, n, 2k) -> (-s, n, -2k) with entry -i (-1)^(k-1/2)
        mirror = 2 * n * n - 1 - np.arange(self.family)
        self.flip = np.concatenate([mirror + self.family, mirror])
        self.jsign = np.tile(np.where((self.twok - 1) // 2 % 2, -1.0, 1.0), 2)

    @functools.cached_property
    def vec(self) -> dict:
        return {(s, n, t): self.engine.vector((s, n, t))
                for s in (1, -1) for n, t in zip(self.n.tolist(), self.twok.tolist())}

    def norm2_num(self, v: Vector) -> float:
        """Squared norm of the orthonormal vector of v: the exact Haar
        pairing h(w* w) at q0 over the tracked norm2."""
        return float(self.engine.inner(v.terms, v.terms) / v.norm2)


class Operator:
    """A real dim x dim operator as COO arrays, vals[e] at (rows[e], cols[e]).
    With merge, the entries at one position are summed in the order given."""

    def __init__(self, rows, cols, vals, dim, merge=False):
        if merge:
            keys, inv = np.unique(rows * dim + cols, return_inverse=True)
            rows, cols, vals = keys // dim, keys % dim, np.bincount(inv, vals, len(keys))
        self.rows, self.cols, self.vals, self.dim = rows, cols, vals, dim

    def _terms(self, other):
        """Entry indices (e, f) of the product's terms self[i, j] other[j, k]."""
        counts = np.bincount(other.rows, minlength=self.dim)
        n = counts[self.cols]
        e = np.repeat(np.arange(len(self.vals)), n)
        first = np.repeat((np.cumsum(counts) - counts)[self.cols] - (np.cumsum(n) - n), n)
        return e, np.argsort(other.rows, kind="stable")[first + np.arange(len(e))]

    def __matmul__(self, other):
        e, f = self._terms(other)
        return Operator(self.rows[e], other.cols[f], self.vals[e] * other.vals[f], self.dim, True)

    def __sub__(self, other):
        pairs = (self.rows, other.rows), (self.cols, other.cols), (self.vals, -other.vals)
        return Operator(*map(np.concatenate, pairs), self.dim, True)

    def diagonal(self, other) -> np.ndarray:
        """diag(self other): each self[i, k] joined with other[k, i]."""
        e, f = self._terms(other)
        on = self.rows[e] == other.cols[f]
        return np.bincount(self.rows[e[on]], self.vals[e[on]] * other.vals[f[on]], self.dim)

    def abs_row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, np.abs(self.vals), self.dim)


def _operator(space, levels, transpose=False) -> Operator:
    """M from the engine's level tables in basis order, s = 1 before -1 and
    n rising, with no entry in the levels not given; rows past npad cut off.
    With transpose, a column fills the row of its key instead."""
    keys, vals = zip((np.empty((4, 0), dtype=np.intp), np.empty(0)), *levels)
    keys, vals = np.concatenate(keys, axis=1), np.concatenate(vals)
    rows, cols = keys[0] + space.family * keys[1], keys[2] + space.family * keys[3]
    kept = keys[0] < space.family  # a row past npad has a family index past it
    rows, cols = (cols[kept], rows[kept]) if transpose else (rows[kept], cols[kept])
    return Operator(rows, cols, vals[kept], space.dim)


def build_J(space: TruncatedSpace) -> np.ndarray:
    """The unitary U of the real structure J v = U conj(v), J = gamma J0 with
    J0 v = i (K |> v* <| K).  J0 maps w_{s,n,2k} to c w_{-s,n,-2k} with
    c^2 N_{-s,n,-2k} = N_{s,n,2k} and sign s (-1)^(k-1/2), so U is the signed
    permutation U phi_{s,n,k} = -i (-1)^(k-1/2) phi_{-s,n,-k}."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[space.flip, range(space.dim)] = -1j * space.jsign
    return mat


def _commutator(space: TruncatedSpace, M: Operator) -> Operator:
    """[D, M] = d M[P, :] - M[:, P] d for D = diag(d) P.  The two halves grow
    like [n] and cancel, so they are merged, in the dense order d v - v d,
    before any product."""
    rows, cols = space.swap[M.rows], space.swap[M.cols]
    return (Operator(rows, M.cols, M.vals * space.dirac[rows], M.dim)
            - Operator(M.rows, cols, M.vals * space.dirac[cols], M.dim))


def _shift(y: CoordElement) -> int:
    """The most levels M(y) moves a basis vector by, for an embedded y."""
    return (y.degree() + 1) // 2


def _mult_levels(y: CoordElement, space: TruncatedSpace, top: int, families=(1, -1)) -> list:
    """The level tables of M(y) through level top in the given families; its
    columns reach spin npad + _shift(y) - 1/2, so one past the cutoff is
    refused up front."""
    if (twol := 2 * (space.npad + _shift(y)) - 1) > MAX_TWOL:
        raise CutoffExceeded(f"M({recognize(y)}) at L = {space.L} needs 2l = {twol}, past the "
                             f"cutoff {MAX_TWOL}")
    return space.engine.levels(y, top, families)


def build_mult(x, space: TruncatedSpace, top=None) -> Operator:
    """Left multiplication by a sphere element x or its embedding y, a sparse
    `Operator` in the orthonormal basis; the image outside the two families
    is projected away.  Only the columns of levels n <= top hold entries,
    every level by default.  M(y) is M(y*)^T, so when y* has the shorter
    E-chain, M(y*) is filled through top + _shift(y), transposed."""
    top = space.npad if top is None else top
    if top > space.npad:  # its columns would index past the space
        raise ValueError(f"top = {top} is past npad = {space.npad}")
    y = embed(x) if isinstance(x, PodlesElement) else x
    filled, star = space.engine.filled(y)
    if star:  # its rows through top are columns of M(y*) through top + _shift(y)
        top = min(space.npad, top + _shift(y))
    return _operator(space, _mult_levels(filled, space, top), star)


def _window(space: TruncatedSpace, nmax: int) -> np.ndarray:
    """Positions of the basis vectors of level n <= nmax; a window without
    a level would make a check pass vacuously, and raises ValueError."""
    if nmax < 1:
        raise ValueError(f"L = {space.L} leaves no level where the product is exact")
    return np.r_[0 : nmax * (nmax + 1), space.family : space.family + nmax * (nmax + 1)]


# -- zeta function ------------------------------------------------------------


def zeta_series(z: float, L: int, q0: float) -> float:
    """Truncated eigenvalue sum [1]^-z [2] + ... + [L]^-z [2L]; at z > 0 a
    power [n]^-z only underflows to 0, since [n] >= 1."""
    return sum(qnum(n, q0) ** -z * qnum(2 * n, q0) for n in range(1, L + 1))


@functools.lru_cache(maxsize=64)  # each trace record reads it at its (z, q0)
def zeta_merom(z: float, q0: float) -> float:
    """Meromorphic form of the eigenvalue zeta function.

    zeta(z) = (q^-1 - q)^(z-1) * sum_k C(z-2+k, k)
              [ q^(z-2+2k)/(1-q^(z-2+2k)) + q^(z+2k)/(1-q^(z+2k)) ],
    an absolutely convergent series off the poles z = 2 - 2k of its terms.
    At z = -2k the poles of the second part of term k and the first part of
    term k + 1 cancel; where |z + 2k| < 1, never at z > 2, the two are one
    term C(z-2+k, k)/(k+1) x/expm1(-x log q), x = z + 2k, -1/log q at x = 0.
    Only z = 2 is a pole of zeta, simple with residue (q - q^-1)/log q;
    there and within round-off, and at a q0 outside (0, 1), it raises
    ValueError.  Its terms grow while (z-1+k) q^2 > k+1, so the sum runs past
    the largest term and on until a term is below the round-off of the sum.
    """
    if not 0 < q0 < 1:
        raise ValueError(f"q0 = {q0} is outside (0, 1)")
    lq = math.log(q0)
    try:
        pref = (1.0 / q0 - q0) ** (z - 1)
    except OverflowError as exc:
        raise ValueError(f"zeta(z) overflows a float at z = {z:g}") from exc
    total = 0.0
    coeff = 1.0  # C(z-2+k, k) built iteratively
    prev, k, joined = math.inf, 0, False
    while True:
        e1, e2, x = math.exp((z - 2 + 2 * k) * lq), math.exp((z + 2 * k) * lq), z + 2 * k
        absorbed, joined = joined, abs(x) < 1  # the first part, by term k - 1
        if e1 == 1 and not absorbed or e2 == 1 and not joined:
            raise ValueError(f"zeta(z) at z = {z:g} is at a pole of its series")
        second = (x / math.expm1(-x * lq) if x else -1 / lq) / (k + 1) if joined else e2 / (1 - e2)
        term = coeff * ((0.0 if absorbed else e1 / (1 - e1)) + second)
        total += term
        if not math.isfinite(total):
            raise ValueError(f"zeta(z) overflows a float at z = {z:g}")
        if abs(term) < prev and abs(term) <= 2.0**-53 * abs(total):
            return pref * total
        prev = abs(term)
        coeff *= (z - 1 + k) / (k + 1)
        k += 1


def zeta_residue(q0: float) -> float:
    """Residue of the continued zeta function at z = 2."""
    return (q0 - 1.0 / q0) / math.log(q0)


def residue_check(q0: float, eps: float = 1e-4):
    """(z-2) zeta(z) at z = 2 + eps against the residue R of `zeta_residue`.

    In `zeta_merom` at z = 2 + eps only the term q^eps/(1 - q^eps) =
    -1/(eps log q) - 1/2 + O(eps) has a pole, the prefactor is (q^-1 - q)
    (1 + eps log(q^-1 - q)) + O(eps^2), and the rest of the series is
    S = 2 sum_{m>=1} q^2m/(1 - q^2m) + O(eps).  So eps zeta(2 + eps) =
    R + a1 eps + O(eps^2), with a1 = (q^-1 - q)(S - 1/2 - log(q^-1 - q)/log q),
    and the check is judged by tol_abs = 2 |a1| eps.  That holds while the
    O(eps^2) term and the round-off of 1 - q^eps stay below |a1| eps, with
    margins over 100 at eps = 1e-4 for 0.01 <= q0 <= 0.99, where a1 > 1.15.
    """
    z = 2.0 + eps
    val = (z - 2) * zeta_merom(z, q0)  # first: it refuses a q0 outside (0, 1)
    lam, lq = 1.0 / q0 - q0, math.log(q0)
    s = sum(2 * q0 ** (2 * m) / (1 - q0 ** (2 * m)) for m in range(1, int(20 / -lq) + 2))
    a1 = lam * (s - 0.5 - math.log(lam) / lq)
    return record("zeta_residue", {"eps": eps}, val, zeta_residue(q0),
                  tol_abs=2 * abs(a1) * eps, q0=q0)


# -- trace checks -------------------------------------------------------------


def _refuse_z(z):
    if not 2 < z < math.inf:  # Tr K^2 |D|^-z M(x) diverges at the pole z = 2
        raise ValueError(f"z = {z} gives no finite trace: a finite real z > 2 is needed")


def _trace_record(check, inputs, diag, gamma, nmax, exact, z, space, shift, bound):
    """zeta(z)^-1 sum_i weight_i diag_i over the levels n <= nmax against
    its exact truncated value, reporting the discarded boundary count.  The
    weight of phi^(s)_{n,k} is q0^(2k) [n]^-z, times gamma if s = -1: 0 for
    h, which reads one chirality block, and -q0^2 (from gamma_q) for tau.

    The trace formulas hold level by level: the weighted diagonal sum over
    level n is [n]^-z [2n] times the exact value.  So the truncated trace is
    exactly value * zeta_nmax(z) / zeta(z), the rhs; the value and the ratio,
    with zeta_nmax from `zeta_series`, are reported beside it.  Only
    round-off is left.  A diagonal entry and the trace each sum at most dim
    rounded terms, so |lhs - rhs| <= gamma_(2 dim) S ~ 2 dim u S, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1), for
    S = sum_i |weight_i| bound_i / |zeta(z)| with bound_i at least the sum of
    |terms| of diag_i: tol_abs = dim * 2.2e-16 * max(1, S), S = round_off_scale.
    """
    keep = _window(space, nmax)
    q0 = space.q0
    # (1.0 if s == 1 else gamma) * q0**twok * [n]**-z, summed as floats
    powers = np.array([q0**t for t in range(1 - 2 * space.npad, 2 * space.npad, 2)])
    t, n = space.twok[: len(keep) // 2] // 2 + space.npad, space.n[: len(keep) // 2] - 1
    qz = np.array([qnum(m, q0) ** -z for m in range(1, nmax + 1)])[n]
    w = np.concatenate([powers[t] * qz, (gamma * powers)[t] * qz])
    tr = sum((w * diag[keep]).tolist())
    zeta = zeta_merom(z, q0)
    scale = sum((abs(w) * bound[keep]).tolist()) / abs(zeta)
    ratio = zeta_series(z, nmax, q0) / zeta
    value = float(evaluate(exact, space.q0_exact))
    discarded = space.dim - len(keep)
    extra = {"discarded_boundary": discarded, "level_shift": shift, "exact": value,
             "zeta_ratio": ratio, "round_off_scale": scale}
    return record(check, inputs, tr / zeta, value * ratio,
                  tol_abs=space.dim * 2.2e-16 * max(1.0, scale), L=space.L, q0=q0,
                  trusted_fraction=1.0 - discarded / space.dim, extra=extra)


def haar_trace_check(x: PodlesElement, z, space: TruncatedSpace):
    """h(x) against zeta(z)^-1 Tr K^2 |D|^-z M(x) over one chirality block.

    The weights read only the s = 1 block, so only the s = 1 level tables
    are filled, of y or of y* as `build_mult` would read them: a diagonal
    entry of M(y*)^T is that of M(y*).  The diagonal is read off the
    tables, with no `Operator`; its s = -1 half is zero, weighted by 0."""
    _refuse_z(z)
    y = embed(x)
    tables = _mult_levels(space.engine.filled(y)[0], space, space.npad, (1,))
    keys, vals = map(np.hstack, zip(*tables))
    # the entries with row key = column key, exact at every level, one per
    # column, never -0.0
    on = (keys[0] == keys[2]) & (keys[1] == keys[3])
    diag = np.zeros(space.dim)
    diag[keys[2, on]] = vals[on]
    return _trace_record("haar_trace", {"x": str(x), "z": z}, diag, 0.0, space.npad,
                         haar(y), z, space, _shift(y), abs(diag))


def tau_trace_check(x0, x1, x2, z, space: TruncatedSpace):
    """Tr gamma_q K^2 |D|^-z x0 [D,x1] [D,x2] against zeta(z) tau(x0,x1,x2),
    from the diagonal on levels n <= top only: entry (i, k) of the sparse
    x0 [D,x1] joined with entry (k, i) of [D,x2].  The terms of diag_i sum
    to at most row i of |M(x0)| times the max row sums of |[D,x]|."""
    _refuse_z(z)
    y0, y1, y2 = embed(x0), embed(x1), embed(x2)
    s0, s1, s2 = _shift(y0), _shift(y1), _shift(y2)
    top = space.npad - s0 - s1 - s2
    m0 = build_mult(y0, space, top + s0)
    c1 = _commutator(space, build_mult(y1, space, top + min(s2, s0 + s1)))
    c2 = _commutator(space, build_mult(y2, space, top))
    bound = m0.abs_row_sums() * c1.abs_row_sums().max() * c2.abs_row_sums().max()
    diag = (m0 @ c1).diagonal(c2)
    inputs = {"x0": str(x0), "x1": str(x1), "x2": str(x2), "z": z}
    return _trace_record("tau_trace", inputs, diag, -space.q0**2, top, tau(x0, x1, x2), z,
                         space, s0 + s1 + s2, bound)


def commutant_checks(x: PodlesElement, y: PodlesElement, space: TruncatedSpace):
    """[M(x), J M(y)* J^-1] = 0 and [[D, M(x)], J M(y)* J^-1] = 0 on the
    trusted window, which reads M(x) and M(y) through level top."""
    ex, ey = embed(x), embed(y)
    sx, sy = _shift(ex), _shift(ey)
    Mx = build_mult(ex, space, space.npad - max(sx, sy))
    # J M(y)* J^-1 = U M(y)^T U^H, with U = -i times the signed permutation
    # of flip and jsign: an entry v of M(y) at (i, j) moves to (flip j,
    # flip i) as jsign_j jsign_i v
    My = build_mult(ey, space, space.npad - max(sx, sy))
    conj_y = Operator(space.flip[My.cols], space.flip[My.rows],
                      My.vals * (space.jsign[My.cols] * space.jsign[My.rows]), space.dim)
    DMx = _commutator(space, Mx)
    keep = np.zeros(space.dim, dtype=bool)
    keep[_window(space, space.npad - sx - sy)] = True
    inputs = {"x": str(x), "y": str(y)}
    return [
        record(name, inputs, float(abs(c.vals[keep[c.rows] & keep[c.cols]]).max(initial=0.0)),
               0.0, tol_abs=1e-9, L=space.L, q0=space.q0)
        for name, c in (
            ("commutant", Mx @ conj_y - conj_y @ Mx),
            ("order_one", DMx @ conj_y - conj_y @ DMx),
        )
    ]
