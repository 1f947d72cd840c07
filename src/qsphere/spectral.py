"""Numeric realization of the Dirac operator on a truncated Hilbert space.

The truncated space at level cutoff L carries the orthonormal weight basis
phi^(s)_{n,k} (s = +-1, n = 1..L, k in half-integers |k| <= n - 1/2), built by
a float version of the exact ladder at a fixed 0 < q0 < 1 and normalized so
that the twisted right actions act exactly as

    R_E phi^+_{n,k} = -[n] phi^-_{n,k},   R_F phi^-_{n,k} = -[n] phi^+_{n,k}.

Spaces are built with padding levels beyond L; operator products keep a
conservative level-shift tally, and traces sum only diagonal entries whose
columns are fully trusted, reporting the discarded boundary count.

Trust limit: the float ladder loses orthonormality fast, because its
coefficients grow like q^(-n^2).  At q0 = 1/2 the largest |<phi, phi> - 1|
over the vectors of level n measures 8.5e-13 at n = 3, 1.1e-8 at n = 4,
1.1e-3 at n = 5 and 2.0e2 at n = 6; at q0 = 1/4 it is 4.9e-9 at n = 3,
5.1e-2 at n = 4 and 1.8e8 at n = 5.  Results that read levels past that
point, padding included, are not trustworthy.

Complex scalars exist only in this module; everything upstream is exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .coordalg import CoordElement, _dgamma, _gamma
from .errors import CutoffExceeded
from .haar import haar_podles
from .podles import PodlesElement, embed
from .report import record
from .scalar import evaluate
from .uq import LETTER_ACTION, WEIGHT, left_weight, right_weight


def qnum(n: int, q0: float) -> float:
    """The q-deformed integer at a numeric point."""
    return (q0**n - q0**-n) / (q0 - 1.0 / q0)


class _Numerics:
    """Float-coefficient mirror of the exact monomial algebra at fixed q0.

    Coefficient tables are evaluated from the exact ones, so both layers
    share a single source of truth for the rewriting combinatorics.
    """

    def __init__(self, q0: float):
        self.q = float(q0)
        self.s = math.sqrt(self.q)
        self._gam = {}
        self._dgam = {}
        self._act = {}
        self._hword = {}

    # -- tables ---------------------------------------------------------

    def gamma(self, t):
        v = self._gam.get(t)
        if v is None:
            v = [p.eval_float(self.q) for p in _gamma(t)]
            self._gam[t] = v
        return v

    def dgamma(self, s, t):
        v = self._dgam.get((s, t))
        if v is None:
            v = [p.eval_float(self.q) for p in _dgamma(s, t)]
            self._dgam[(s, t)] = v
        return v

    # -- monomial algebra -------------------------------------------------

    def mono_mul(self, m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        s, t = d1, a2
        m = min(s, t)
        x = t - m
        y = s - m
        scal = self.q ** (-x * (b1 + c1) - y * (b2 + c2))
        out = []
        for i, g in enumerate(self.dgamma(s, t)):
            A = a1 + x
            B = b1 + i + b2
            C = c1 + i + c2
            D = y + d2
            if A == 0 or D == 0:
                out.append(((A, B, C, D), g * scal))
            else:
                tt = min(A, D)
                base = g * scal * self.q ** (tt * (B + C))
                for j, gg in enumerate(self.gamma(tt)):
                    out.append(((A - tt, B + j, C + j, D - tt), base * gg))
        return out

    def mul(self, xs: dict, ys: dict) -> dict:
        out = {}
        for m1, c1 in xs.items():
            for m2, c2 in ys.items():
                c = c1 * c2
                for mono, w in self.mono_mul(m1, m2):
                    out[mono] = out.get(mono, 0.0) + c * w
        return {m: c for m, c in out.items() if c != 0.0}

    def star(self, xs: dict) -> dict:
        out = {}
        for (a, b, c, d), coeff in xs.items():
            out[(d, c, b, a)] = coeff * (-1.0) ** (b + c) * self.q ** (b - c)
        return out

    # -- generator actions ------------------------------------------------

    def _act_mono(self, kind, name, mono):
        key = (kind, name, mono)
        cached = self._act.get(key)
        if cached is not None:
            return cached
        letter = next((i for i in range(4) if mono[i] > 0), None)
        if letter is None:
            self._act[key] = {}
            return {}
        rest = list(mono)
        rest[letter] -= 1
        rest = tuple(rest)
        weight = WEIGHT[kind]
        out = {}
        img = LETTER_ACTION[kind, name].get(letter)
        if img is not None:
            # (f act letter)(K act rest) resp. the right-handed version
            w = self.s ** weight(rest)
            for mono2, c in self.mono_mul(img, rest):
                out[mono2] = out.get(mono2, 0.0) + c * w
        tail = self._act_mono(kind, name, rest)
        if tail:
            single = tuple(1 if i == letter else 0 for i in range(4))
            w = self.s ** (-weight(single))
            for m2, c2 in tail.items():
                for mono2, c in self.mono_mul(single, m2):
                    out[mono2] = out.get(mono2, 0.0) + c * c2 * w
        out = {m: c for m, c in out.items() if c != 0.0}
        self._act[key] = out
        return out

    def act(self, side, name, xs: dict) -> dict:
        """name |> xs on side "L", xs <| name on side "R"."""
        if name in ("K", "Kinv"):
            sgn = 1 if name == "K" else -1
            weight = WEIGHT[side]
            return {m: c * self.s ** (sgn * weight(m)) for m, c in xs.items()}
        out = {}
        for mono, c in xs.items():
            for m2, c2 in self._act_mono(side, name, mono).items():
                out[m2] = out.get(m2, 0.0) + c * c2
        return {m: c for m, c in out.items() if c != 0.0}

    def r_action(self, name, xs: dict) -> dict:
        # R_E = -q^-1 (. <| E), R_F = -q (. <| F) via the inverse antipode
        if name == "E":
            return {m: -c / self.q for m, c in self.act("R", "E", xs).items()}
        if name == "F":
            return {m: -c * self.q for m, c in self.act("R", "F", xs).items()}
        raise ValueError(name)

    # -- invariant state ----------------------------------------------------

    def h_bc(self, n):
        return (-self.q) ** n * (1 - self.q**2) / (1 - self.q ** (2 * n + 2))

    def _h_word_tail(self, t, n0):
        key = (t, n0)
        v = self._hword.get(key)
        if v is None:
            v = sum(g * self.h_bc(n0 + j) for j, g in enumerate(self.gamma(t)))
            self._hword[key] = v
        return v

    def haar_mono_product(self, m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        if a1 + a2 != d1 + d2 or b1 + b2 != c1 + c2:
            return 0.0
        if d1 > 0 and a2 > 0:
            # reorder through the modular property h(xy) = h(twist(y) x);
            # the a..d ordered word reduces with bounded q-power tables,
            # avoiding the catastrophic cancellation of the d..a crossing
            tw = self.q ** (-(left_weight(m2) + right_weight(m2)))
            return tw * self.haar_mono_product(m2, m1)
        # now the concatenated word is a^A b^B c^C d^D up to commutations
        scal = self.q ** (-a2 * (b1 + c1) - d1 * (b2 + c2))
        A = a1 + a2
        B = b1 + b2
        total = scal * self.q ** (A * 2 * B) * self._h_word_tail(A, B)
        return total

    def haar_product(self, xs: dict, ys: dict) -> float:
        buckets = {}
        for mono, coeff in xs.items():
            key = (left_weight(mono), right_weight(mono))
            buckets.setdefault(key, []).append((mono, coeff))
        total = 0.0
        for m2, c2 in ys.items():
            key = (-left_weight(m2), -right_weight(m2))
            for m1, c1 in buckets.get(key, ()):
                total += self.haar_mono_product(m1, m2) * c1 * c2
        return total

    def coord_to_num(self, x: CoordElement) -> dict:
        return {m: c.eval_float(self.q) for m, c in x.terms.items()}


_NUMERICS_CACHE: dict[float, _Numerics] = {}


def numerics_for(q0: float) -> _Numerics:
    q0 = float(q0)
    eng = _NUMERICS_CACHE.get(q0)
    if eng is None:
        eng = _Numerics(q0)
        _NUMERICS_CACHE[q0] = eng
    return eng


class TruncatedSpace:
    """Orthonormal truncated basis phi^(s)_{n,k} with padding levels.

    Levels run n = 1..L for reporting; internally the ladder is built to
    npad = L + pad so that operator products of bounded level shift stay
    exact on the reported window.
    """

    def __init__(self, q0, L: int, pad: int = 3):
        if L < 1:
            raise ValueError("L must be at least 1")
        if 2 * (L + pad) - 1 > 99:
            raise CutoffExceeded("truncation level too large")
        self.q0_exact = Fraction(q0)
        if not 0 < self.q0_exact < 1:
            raise ValueError("q0 must satisfy 0 < q0 < 1")
        self.q0 = float(self.q0_exact)
        self.L = L
        self.pad = pad
        self.npad = L + pad
        self.num = numerics_for(self.q0)
        self._build_ladder()
        self.index = []
        for s in (1, -1):
            for n in range(1, self.npad + 1):
                for twok in range(-(2 * n - 1), 2 * n, 2):
                    self.index.append((s, n, twok))
        self.pos = {key: i for i, key in enumerate(self.index)}
        self.dim = len(self.index)

    # -- ladder ---------------------------------------------------------

    def _build_ladder(self):
        num = self.num
        q0 = self.q0
        self.vec = {}
        for n in range(1, self.npad + 1):
            twol = 2 * n - 1
            nrm = math.sqrt(
                num.haar_mono_product((0, 0, 0, twol), (twol, 0, 0, 0))
            )
            v = {(twol, 0, 0, 0): 1.0 / nrm}
            twoj = -twol
            if twoj == -1:
                self._k_run(n, -1, v)
            while twoj < 1:
                alpha = math.sqrt(
                    qnum((twol - twoj) // 2, q0) * qnum((twol + twoj + 2) // 2, q0)
                )
                v = {m: -c / alpha for m, c in num.r_action("F", v).items()}
                twoj += 2
                if twoj == -1:
                    self._k_run(n, -1, v)
            self._k_run(n, 1, v)

    def _k_run(self, n, twoj, bottom):
        num = self.num
        q0 = self.q0
        twol = 2 * n - 1
        s = twoj  # +-1 labels the family
        self.vec[(s, n, -twol)] = bottom
        v = bottom
        for twok in range(-twol + 2, twol + 1, 2):
            alpha = math.sqrt(
                qnum((twol - (twok - 2)) // 2, q0) * qnum((twol + twok) // 2, q0)
            )
            v = {m: c / alpha for m, c in num.act("L", "E", v).items()}
            self.vec[(s, n, twok)] = v

    def basis_vector(self, key) -> dict:
        return self.vec[key]

    def level(self, i: int) -> int:
        return self.index[i][1]

    # -- projections ------------------------------------------------------

    def project(self, u: dict, s_target: int, band_center=None, band=None):
        """Coefficients of u against the orthonormal basis of one family,
        as {(s, n, twok): coeff}; candidates filtered by the left weights
        present in u and an optional level band."""
        num = self.num
        if not u:
            return {}
        lws = {left_weight(m) for m in u}
        out = {}
        for twok in lws:
            for n in range(1, self.npad + 1):
                if 2 * n - 1 < abs(twok):
                    continue
                if band is not None and abs(n - band_center) > band:
                    continue
                key = (s_target, n, twok)
                phi = self.vec.get(key)
                if phi is None:
                    continue
                val = num.haar_product(num.star(phi), u)
                if val != 0.0:
                    out[key] = val
        return out

    def norm2_num(self, u: dict) -> float:
        return self.num.haar_product(self.num.star(u), u)


class TruncOperator:
    """Dense operator on a truncated space, with an antilinear flag and a
    conservative level-shift tally for truncation trust."""

    __slots__ = ("space", "mat", "antilinear", "level_shift", "name")

    def __init__(self, space, mat, antilinear=False, level_shift=0, name=""):
        self.space = space
        self.mat = mat
        self.antilinear = antilinear
        self.level_shift = level_shift
        self.name = name

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ (np.conj(v) if self.antilinear else v)

    def __matmul__(self, other: "TruncOperator") -> "TruncOperator":
        if self.space is not other.space:
            raise ValueError("operators live on different spaces")
        if self.antilinear:
            mat = self.mat @ np.conj(other.mat)
        else:
            mat = self.mat @ other.mat
        return TruncOperator(
            self.space,
            mat,
            antilinear=self.antilinear != other.antilinear,
            level_shift=self.level_shift + other.level_shift,
            name=f"{self.name}*{other.name}",
        )

    def __add__(self, other):
        if self.antilinear != other.antilinear:
            raise ValueError("cannot add linear and antilinear operators")
        return TruncOperator(
            self.space,
            self.mat + other.mat,
            self.antilinear,
            max(self.level_shift, other.level_shift),
            name=f"{self.name}+{other.name}",
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return TruncOperator(
            self.space, self.mat * c, self.antilinear, self.level_shift, self.name
        )

    def adjoint(self) -> "TruncOperator":
        if self.antilinear:
            raise ValueError("adjoint implemented for linear operators only")
        return TruncOperator(
            self.space,
            np.conj(self.mat.T),
            level_shift=self.level_shift,
            name=f"{self.name}*",
        )

    def inverse(self) -> "TruncOperator":
        mat = np.linalg.inv(self.mat)
        if self.antilinear:
            mat = np.conj(mat)
        return TruncOperator(
            self.space, mat, self.antilinear, self.level_shift, name=f"{self.name}^-1"
        )

    def commutator(self, other: "TruncOperator") -> "TruncOperator":
        return self @ other - other @ self

    def trusted_levels(self) -> int:
        return self.space.npad - self.level_shift

    def max_abs_on_trusted(self) -> float:
        """Largest entry magnitude over the trusted column/row window."""
        space = self.space
        nmax = self.trusted_levels()
        sel = np.array([space.level(i) <= nmax for i in range(space.dim)])
        sub = self.mat[np.ix_(sel, sel)]
        return float(np.max(np.abs(sub))) if sub.size else 0.0


def _diag_operator(space, values, name, antilinear=False):
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, key in enumerate(space.index):
        mat[i, i] = values(key)
    return TruncOperator(space, mat, antilinear=antilinear, level_shift=0, name=name)


def build_dirac(space: TruncatedSpace) -> TruncOperator:
    """D phi^+_{n,k} = -[n] phi^-_{n,k} and symmetrically; hermitian with
    eigenvalues +-[n] of multiplicity 2n."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for (s, n, twok), i in space.pos.items():
        j = space.pos[(-s, n, twok)]
        mat[j, i] = -qnum(n, space.q0)
    return TruncOperator(space, mat, name="D")


def build_gamma(space: TruncatedSpace) -> TruncOperator:
    return _diag_operator(space, lambda key: 1.0 if key[0] > 0 else -1.0, "gamma")


def build_J0(space: TruncatedSpace) -> TruncOperator:
    """The antilinear operator v -> i (K |> v* <| K), built by expanding the
    image of every basis vector in the ladder (no closed formula assumed)."""
    num = space.num
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for (s, n, twok), i in space.pos.items():
        v = space.vec[(s, n, twok)]
        u = num.act("L", "K", num.act("R", "K", num.star(v)))
        coeffs = space.project(u, -s, band_center=n, band=0)
        for key, c in coeffs.items():
            mat[space.pos[key], i] += 1j * c
    return TruncOperator(space, mat, antilinear=True, name="J0")


def build_J(space: TruncatedSpace) -> TruncOperator:
    g = build_gamma(space)
    j0 = build_J0(space)
    out = TruncOperator(
        space, g.mat @ j0.mat, antilinear=True, level_shift=0, name="J"
    )
    return out


def _operand_to_num(space, x):
    if isinstance(x, PodlesElement):
        x = embed(x)
    return space.num.coord_to_num(x)


def build_mult(x, space: TruncatedSpace, name="") -> TruncOperator:
    """Left multiplication by a sphere element (or a right-weight-homogeneous
    coordinate element) in the orthonormal basis."""
    num = space.num
    xs = _operand_to_num(space, x)
    if not xs:
        return TruncOperator(space, np.zeros((space.dim, space.dim), dtype=complex), name=name)
    rws = {right_weight(m) for m in xs}
    if len(rws) > 1:
        raise ValueError("operand mixes right weights; it does not preserve the basis grading")
    rw = rws.pop()
    deg = max(sum(abs(e) for e in m) for m in xs)
    shift = (deg + 1) // 2
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for (s, n, twok), i in space.pos.items():
        s_target = s + rw
        if s_target not in (-1, 1):
            continue
        u = num.mul(xs, space.vec[(s, n, twok)])
        for key, c in space.project(u, s_target, band_center=n, band=shift).items():
            mat[space.pos[key], i] = c
    return TruncOperator(space, mat, level_shift=shift, name=name or "M")


# -- zeta function ------------------------------------------------------------


def zeta_series(z, L: int, q0: float):
    """Truncated eigenvalue sum [1]^-z [2] + ... + [L]^-z [2L]; flags slow
    convergence through the returned tail estimate."""
    total = 0.0 + 0.0j
    for n in range(1, L + 1):
        total += complex(qnum(n, q0)) ** (-z) * qnum(2 * n, q0)
    last = abs(complex(qnum(L, q0)) ** (-z) * qnum(2 * L, q0))
    ratio = q0 ** (complex(z).real - 2.0)
    tail = last * ratio / (1 - ratio) if ratio < 1 else float("inf")
    return total, tail


def zeta_merom(z, k_max: int, q0: float):
    """Meromorphic form of the eigenvalue zeta function.

    zeta(z) = (q^-1 - q)^(z-1) * sum_k C(z-2+k, k)
              [ q^(z-2+2k)/(1-q^(z-2+2k)) + q^(z+2k)/(1-q^(z+2k)) ],
    an absolutely convergent series off the poles z = 2 - 2k; the pole at
    z = 2 is simple with residue (q - q^-1)/log q.
    """
    z = complex(z)
    lq = math.log(q0)
    pref = complex(1.0 / q0 - q0) ** (z - 1)
    total = 0.0 + 0.0j
    coeff = 1.0 + 0.0j  # C(z-2+k, k) built iteratively
    for k in range(k_max + 1):
        e1 = cmath.exp((z - 2 + 2 * k) * lq)
        e2 = cmath.exp((z + 2 * k) * lq)
        total += coeff * (e1 / (1 - e1) + e2 / (1 - e2))
        coeff *= (z - 1 + k) / (k + 1)
    return pref * total


def zeta_residue(q0: float) -> float:
    """Residue of the continued zeta function at z = 2."""
    return (q0 - 1.0 / q0) / math.log(q0)


def residue_check(q0: float, eps: float = 1e-4, k_max: int = 80):
    """(z-2) zeta(z) at z = 2 + eps against the closed-form residue."""
    z = 2.0 + eps
    val = (z - 2) * zeta_merom(z, k_max, q0)
    expected = zeta_residue(q0)
    return record(
        "zeta_residue",
        {"eps": eps},
        val.real,
        expected,
        tol_rel=1e-3,
        q0=q0,
    )


# -- trace checks -------------------------------------------------------------


def _trace_weighted(space, ops_diag_weight, P: TruncOperator, nmax: int):
    """Sum of weighted diagonal entries over levels n <= nmax; returns the
    trace and the discarded boundary count."""
    total = 0.0 + 0.0j
    discarded = 0
    for i, key in enumerate(space.index):
        n = key[1]
        if n <= nmax:
            total += ops_diag_weight(key) * P.mat[i, i]
        else:
            discarded += 1
    return total, discarded


def haar_trace_check(x: PodlesElement, z, space: TruncatedSpace, tol_rel=None):
    """h(x) against zeta(z)^-1 Tr K^2 |D|^-z M(x) over one chirality block."""
    q0 = space.q0
    M = build_mult(x, space, name="M(x)")
    nmax = space.npad  # diagonal entries are exact at every built level

    def weight(key):
        s, n, twok = key
        if s != 1:
            return 0.0
        return q0**twok * complex(qnum(n, q0)) ** (-z)

    tr, discarded = _trace_weighted(space, weight, M, nmax)
    zeta = zeta_merom(z, 80, q0)
    rhs = float(evaluate(haar_podles(x), space.q0_exact))
    lhs = (tr / zeta).real
    deg = x.degree()
    tol = tol_rel if tol_rel is not None else 10.0 * q0 ** ((z - 2) * (space.L - deg))
    # the default tail bound reaches 1 at small L, where a relative tolerance
    # can no longer tell a converged trace from a wrong one
    insufficient = tol_rel is None and tol >= 1
    total_plus = sum(1 for s, n, k in space.index if s == 1)
    rec = record(
        "haar_trace",
        {"x": str(x), "z": z},
        lhs,
        rhs,
        tol_rel=0.0 if insufficient else tol,
        L=space.L,
        q0=q0,
        trusted_fraction=1.0 - discarded / max(total_plus, 1),
        extra={"discarded_boundary": discarded},
    )
    if insufficient:
        rec.update(passed=False, reason="L insufficient", tail_bound=tol)
    return rec


def tau_trace_check(x0, x1, x2, z, space: TruncatedSpace, tol_rel=1e-3):
    """Tr gamma_q K^2 |D|^-z x0 [D,x1] [D,x2] against zeta(z) tau(x0,x1,x2)."""
    from .fodc import tau

    q0 = space.q0
    D = build_dirac(space)
    M0 = build_mult(x0, space, "M0")
    M1 = build_mult(x1, space, "M1")
    M2 = build_mult(x2, space, "M2")
    P = M0 @ D.commutator(M1) @ D.commutator(M2)
    nmax = space.npad - P.level_shift

    def weight(key):
        s, n, twok = key
        gq = 1.0 if s == 1 else -q0**2
        return gq * q0**twok * complex(qnum(n, q0)) ** (-z)

    tr, discarded = _trace_weighted(space, weight, P, nmax)
    zeta = zeta_merom(z, 80, q0)
    tau_val = float(evaluate(tau(x0, x1, x2), space.q0_exact))
    lhs = (tr / zeta).real
    return record(
        "tau_trace",
        {"x0": str(x0), "x1": str(x1), "x2": str(x2), "z": z},
        lhs,
        tau_val,
        tol_rel=tol_rel,
        L=space.L,
        q0=q0,
        trusted_fraction=1.0 - discarded / space.dim,
        extra={"discarded_boundary": discarded, "level_shift": P.level_shift},
    )


def commutant_checks(x: PodlesElement, y: PodlesElement, space: TruncatedSpace, tol=1e-9):
    """[M(x), J M(y)* J^-1] = 0 and [[D, M(x)], J M(y)* J^-1] = 0 on the
    trusted window."""
    D = build_dirac(space)
    J = build_J(space)
    Jinv = J.inverse()
    Mx = build_mult(x, space, "M(x)")
    My = build_mult(y, space, "M(y)")
    conj_y = J @ My.adjoint() @ Jinv
    c1 = Mx.commutator(conj_y)
    c2 = D.commutator(Mx).commutator(conj_y)
    r1 = record(
        "commutant",
        {"x": str(x), "y": str(y)},
        c1.max_abs_on_trusted(),
        0.0,
        tol_abs=tol,
        L=space.L,
        q0=space.q0,
    )
    r2 = record(
        "order_one",
        {"x": str(x), "y": str(y)},
        c2.max_abs_on_trusted(),
        0.0,
        tol_abs=tol,
        L=space.L,
        q0=space.q0,
    )
    return [r1, r2]
