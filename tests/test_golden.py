"""Golden renders of the exact layer's headline values, and the bits of
the numeric layer's.

Each exact test hashes the canonical renders of a family of values.
RationalQ and the sparse algebras are canonical, so a change to the
arithmetic that keeps the values keeps every render byte for byte.  The
numeric pins are the `float.hex` of trace-check lhs values and of M(x)
entries: each entry is rounded once from its exact value, so a change to
the arithmetic in Q(sqrt(q0)) that keeps the values keeps every bit.  The
tau pins are also bits of the order in which the sparse products sum
their terms; a tau lhs is checked against the dense BLAS oracle of
`tests.test_spectral` within its record's tol_abs.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product

from qsphere import cli, corep, spectral
from qsphere.fodc import TAU, eta, pair_chain, tau, volume_check
from qsphere.haar import haar_podles
from qsphere.podles import embed, gen_A, gen_B, gen_Bs
from qsphere.scalar import render
from qsphere.spectral import TruncatedSpace, build_mult, haar_trace_check, tau_trace_check
from tests.test_spectral import basis_keys, dense_tau_record, to_array

GENERATORS = {"A": gen_A, "B": gen_B, "Bs": gen_Bs}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _tau_lines():
    lines = []
    for names in product(GENERATORS, repeat=3):
        value = tau(*(GENERATORS[n] for n in names))
        lines.append(f"tau{names} = {render(value)}")
    lines.append(f"<tau, eta> = {render(pair_chain(TAU, eta()))}")
    lines.append(f"volume = {volume_check()}")
    return lines


def _haar_lines():
    return [f"h(A^{n}) = {render(haar_podles(gen_A ** n))}" for n in range(8)]


def _matrix_lines():
    vplus, _ = corep.vplus_vminus_basis(Fraction(7, 2))
    lines = []
    for name, x in GENERATORS.items():
        m = corep.mult_matrix(x, vplus, vplus)
        for (row, col), c in sorted(m.entries.items()):
            lines.append(f"M({name}){row}{col} = {render(c)}")
        lines.append(f"M({name}) untrusted {sorted(m.untrusted_cols)}")
    return lines


def test_tau_generators_eta_and_volume_renders():
    assert _digest(_tau_lines()) == TAU_DIGEST


def test_haar_on_A_powers_renders():
    assert _digest(_haar_lines()) == HAAR_DIGEST


def test_mult_matrices_renders():
    assert _digest(_matrix_lines()) == MATRIX_DIGEST


def test_trace_check_lhs_bits():
    # tau sums sparse products in a fixed order, by numpy's bincount, and
    # h sums in Python; no pin reads a BLAS kernel
    one = gen_A**0
    for (q0, L), pins in TRACE_LHS_HEX.items():
        space = TruncatedSpace(q0, L)
        got = {
            "h(A)": haar_trace_check(gen_A, 3, space)["lhs"].hex(),
            "tau(A,B,B*)": tau_trace_check(gen_A, gen_B, gen_Bs, 3, space)["lhs"].hex(),
            "tau(1,B,B*)": tau_trace_check(one, gen_B, gen_Bs, 3, space)["lhs"].hex(),
        }
        assert got == pins, (q0, L)


def test_tau_lhs_meets_the_dense_blas_oracle():
    # a BLAS product sums in another order, so the two lhs may differ in
    # their last bits, but by no more than the record's round-off bound
    one = gen_A**0
    for q0, L in ((Fraction(1, 4), 14), (Fraction(2, 3), 10), (Fraction(81, 100), 14)):
        space = TruncatedSpace(q0, L)
        for xs in ((gen_A, gen_B, gen_Bs), (one, gen_B, gen_Bs), (gen_Bs, gen_A, gen_B)):
            rec, dense = tau_trace_check(*xs, 3, space), dense_tau_record(*xs, 3, space)
            assert rec["passed"] and dense["passed"], (q0, L, xs)
            assert abs(rec["lhs"] - dense["lhs"]) <= rec["tol_abs"], (q0, L, xs)


def test_mult_entry_bits():
    space = TruncatedSpace(Fraction(1, 4), 4)
    pos = {key: i for i, key in enumerate(basis_keys(space))}
    for name, pins in MULT_ENTRY_HEX.items():
        M = to_array(build_mult(GENERATORS[name], space))
        for (row, col), pin in pins.items():
            assert float(M[pos[row], pos[col]]).hex() == pin, (name, row, col)


def test_level_table_bits():
    # keys and float.hex values of every level table of M(A) through level
    # 14 and of M(B*) through level 15, on a fresh engine per q0: a change
    # to the ladder, the norm ratios or the evaluation that keeps the exact
    # values keeps this digest
    digest = hashlib.sha256()
    for q0 in (Fraction(1, 4), Fraction(81, 100), Fraction(2, 3)):
        eng = spectral._Engine(q0)
        for x, top in ((gen_A, 14), (gen_Bs, 15)):
            for keys, vals in eng.levels(embed(x), top):
                digest.update(" ".join(map(str, keys.ravel().tolist())).encode())
                digest.update(" ".join(v.hex() for v in vals.tolist()).encode())
    assert digest.hexdigest() == LEVEL_TABLE_DIGEST


def test_verify_record_digests(capsys):
    # every field of every `verify` record but its wall time, as the
    # command prints it: the h record's tol_abs and round_off_scale read the
    # whole diagonal, so they also pin that its s = -1 half weighs nothing
    for argv, pin in VERIFY_RECORD_DIGESTS.items():
        assert cli.main(["verify", *argv.split()]) == 0, argv
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(rec.pop("wall_ms") >= 0 for rec in recs)
        assert _digest(json.dumps(rec, sort_keys=True) for rec in recs) == pin, argv


# z = 3 throughout
TRACE_LHS_HEX = {
    (Fraction(1, 4), 6): {
        "h(A)": "0x1.e1e179ee5671ep-1",
        "tau(A,B,B*)": "-0x1.de25f76474815p-9",
        "tau(1,B,B*)": "0x1.f9f1969b30155p-57",
    },
    (Fraction(2, 3), 4): {
        "h(A)": "0x1.5a147dadbd05ap-1",
        "tau(A,B,B*)": "-0x1.79e14f48b1d33p-4",
        "tau(1,B,B*)": "0x1.bde3c40951baep-55",
    },
}
# {(row key, column key): entry} of M(x) at q0 = 1/4, L = 4
MULT_ENTRY_HEX = {
    "A": {
        ((1, 1, -1), (1, 1, -1)): "0x1.fe1fe1fe1fe20p-1",
        ((1, 5, -7), (1, 6, -7)): "-0x1.feffaee85f035p-15",
        ((1, 6, 11), (1, 6, 11)): "0x1.fffffe0000002p-25",
        ((-1, 3, 5), (-1, 3, 5)): "0x1.fffe001fffe00p-9",
        ((-1, 6, -9), (-1, 7, -9)): "-0x1.feffbed07404fp-15",
    },
    "B": {
        ((1, 1, -1), (1, 1, 1)): "0x1.e01e01e01e01ep-3",
        ((1, 5, -7), (1, 6, -5)): "-0x1.feefb6ab15c2ep-13",
        ((1, 6, 9), (1, 7, 11)): "-0x1.fffffeefffefep-15",
        ((-1, 3, 5), (-1, 4, 7)): "-0x1.ffeeffd8bd915p-7",
        ((-1, 6, -9), (-1, 6, -7)): "0x1.feff9df0ef56bp-5",
        ((-1, 7, 11), (-1, 7, 13)): "0x1.efbde9063b23ep-27",
    },
}
TAU_DIGEST = "0b584dd2ff93e5e7c90240b08496532abab6094df197df8f2aa07610c25b0b72"
HAAR_DIGEST = "c935a495c7f6b62ae4565fbbd1e155f5dda03a26575063fbdaaf63caae3ce570"
MATRIX_DIGEST = "3e7be4cd5135c41fda33674a590794d7bb0ebc2b66b013d9653e497584ff810f"
LEVEL_TABLE_DIGEST = "3eb17f689e9a324ac5f1156b86204a6fc0f2393b460ab18c6e24a8d77d26f4a3"
# sha256 of the `verify` records, wall_ms dropped, each serialised with
# sorted keys, one per line
VERIFY_RECORD_DIGESTS = {
    "--q0 1/4 --L 6:7 --z 3": "c361d22816c7a2924674dbef41cc8d5f5d0c37ae15f767585bbca7ad115e6fc9",
    "--q0 2/3 --L 10 --z 3": "32ea8a883a8c124688ce5c84ae54811985e9a08a50c8b9ad84e7ad4d9b69ef91",
}
