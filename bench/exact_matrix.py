"""The matrix part of workload `exact`: the exact Peter-Weyl ladder and
the exact multiplication matrices M(A), M(B), M(B*) on the V+ family.

Timed: `corep.vplus_vminus_basis(7/2)` and three `corep.mult_matrix` calls.
Checked, exactly in Q(q^(1/2)):
  - the ladder holds the (l, j = +-1/2, k) keys for l = 1/2 .. 7/2;
  - seeded vectors: the ladder's squared norm equals h(w* w);
  - seeded pairs of equal weight and different spin are orthogonal;
  - every trusted column beta of each matrix rebuilds x w_beta as
    sum_alpha M[alpha, beta] w_alpha;
  - M(B*) is the adjoint of M(B) and M(A) is self-adjoint in the Haar
    inner product;
  - the sphere relations B*B = A - A^2 and BB* = q^2 A - q^4 A^2 hold
    as matrix products on the columns where both factors are trusted.
"""

from __future__ import annotations

import random
from fractions import Fraction

from common import Raised, judge
from qsphere import corep
from qsphere.haar import haar_product, inner
from qsphere.podles import embed, gen_A, gen_B, gen_Bs
from qsphere.scalar import Q_ZERO, qpow

L_MAX = Fraction(7, 2)
NORM_SAMPLE = 6
ORTH_SAMPLE = 4
OPERANDS = (("A", gen_A), ("B", gen_B), ("Bs", gen_Bs))
DEGREE = 2  # A, B, B* have degree 2 in a, b, c, d: they shift 2l by at most 2


def family_keys(twoj):
    tmax = int(2 * L_MAX)
    return [
        (twol, twoj, twok)
        for twol in range(1, tmax + 1, 2)
        for twok in range(-twol, twol + 1, 2)
    ]


def inputs(seed):
    rng = random.Random(seed)
    keys = family_keys(1) + family_keys(-1)
    pairs = [
        (k1, k2)
        for k1 in keys
        for k2 in keys
        if k1[0] < k2[0] and k1[1:] == k2[1:]
    ]
    return {
        "l_max": L_MAX,
        "operands": OPERANDS,
        "norm_keys": rng.sample(keys, NORM_SAMPLE),
        "orth_pairs": rng.sample(pairs, ORTH_SAMPLE),
    }


def solve(inp, clock):
    basis = clock.call(corep.vplus_vminus_basis, inp["l_max"])
    if isinstance(basis, Raised):
        return {"basis": basis, "matrices": {}}
    vplus, _ = basis
    matrices = {
        name: clock.call(corep.mult_matrix, x, vplus, vplus)
        for name, x in inp["operands"]
    }
    return {"basis": basis, "matrices": matrices}


def _matmul(p, q):
    rows_of_q = {}
    for (g, b), v in q.items():
        rows_of_q.setdefault(g, []).append((b, v))
    out = {}
    for (a, g), u in p.items():
        for b, v in rows_of_q.get(g, ()):
            out[(a, b)] = out.get((a, b), Q_ZERO) + u * v
    return out


def _combine(*terms):
    """sum of coeff * matrix over (coeff, entries) pairs, zeros dropped."""
    out = {}
    for coeff, entries in terms:
        for key, v in entries.items():
            out[key] = out.get(key, Q_ZERO) + v * coeff
    return out


def _on_columns(entries, cols):
    return {k: v for k, v in entries.items() if k[1] in cols and not v.is_zero()}


def verify(inp, out):
    """One verdict per check; the list has the same length whatever fails."""
    results = []
    basis, mats = out["basis"], out["matrices"]
    plus, minus = family_keys(1), family_keys(-1)
    judge(
        results,
        "ladder.keys",
        lambda: [v.key() for v in basis[0]] == plus and [v.key() for v in basis[1]] == minus,
    )
    by_key = {} if isinstance(basis, Raised) else {v.key(): v for f in basis for v in f}
    for key in inp["norm_keys"]:
        judge(
            results,
            "ladder.norm2",
            lambda v=by_key.get(key): inner(v.elem, v.elem) == v.norm2,
        )
    for k1, k2 in inp["orth_pairs"]:
        judge(
            results,
            "ladder.orthogonal",
            lambda k1=k1, k2=k2: haar_product(by_key[k1].star_elem(), by_key[k2].elem).is_zero(),
        )

    tmax = int(2 * L_MAX)
    for name, x in inp["operands"]:
        y = embed(x)
        for col in plus:
            if col[0] + DEGREE > tmax:
                continue  # the image leaves l <= L_MAX: an untrusted column

            def rebuilds(m=mats.get(name), col=col, y=y):
                rebuilt = y * 0
                for row in plus:
                    rebuilt = rebuilt + by_key[row].elem.scale(m.entry(row, col))
                return col not in m.untrusted_cols and y * by_key[col].elem == rebuilt

            judge(results, f"matrix.{name}.column", rebuilds)

    def self_adjoint():
        a, n2 = mats["A"].entries, _norm2(by_key, plus)
        return all(v * n2[r] == a.get((c, r), Q_ZERO) * n2[c] for (r, c), v in a.items())

    def adjoint():
        b, bs, n2 = mats["B"].entries, mats["Bs"].entries, _norm2(by_key, plus)
        pairs = set(bs) | {(c, r) for (r, c) in b}
        return all(
            bs.get((r, c), Q_ZERO) * n2[r] == b.get((c, r), Q_ZERO) * n2[c]
            for (r, c) in pairs
        )

    # both factors of a product are trusted on columns with l + 2 <= L_MAX
    cols = {k for k in plus if k[0] + 2 * DEGREE <= tmax}

    def relation(left, right, c1, c2):
        a = mats["A"].entries
        lhs = _matmul(mats[left].entries, _on_columns(mats[right].entries, cols))
        a_cols = _on_columns(a, cols)
        rhs = _combine((c1, a_cols), (c2, _matmul(a, a_cols)))
        return _on_columns(lhs, cols) == _on_columns(rhs, cols)

    judge(results, "matrix.A.self_adjoint", self_adjoint)
    judge(results, "matrix.Bs.adjoint_of_B", adjoint)
    judge(results, "matrix.relation.BsB", lambda: relation("Bs", "B", qpow(0), -qpow(0)))
    judge(results, "matrix.relation.BBs", lambda: relation("B", "Bs", qpow(2), -qpow(4)))
    return results


def _norm2(by_key, keys):
    return {k: by_key[k].norm2 for k in keys}


def counts(out):
    basis = out["basis"]
    vectors = 0 if isinstance(basis, Raised) else sum(len(f) for f in basis)
    entries = sum(
        len(m.entries) for m in out["matrices"].values() if not isinstance(m, Raised)
    )
    return {"corep.ladder.vectors": vectors, "corep.mult_matrix.entries": entries}
