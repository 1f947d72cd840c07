"""Golden renders of the exact layer's headline values.

Each test hashes the canonical renders of a family of values.  RationalQ
and the sparse algebras are canonical, so a change to the arithmetic that
keeps the values keeps every render byte for byte.
"""

import hashlib
from fractions import Fraction
from itertools import product

from qsphere import corep
from qsphere.fodc import TAU, eta, pair_chain, tau, volume_check
from qsphere.haar import haar_podles
from qsphere.podles import gen_A, gen_B, gen_Bs
from qsphere.scalar import render

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


TAU_DIGEST = "0b584dd2ff93e5e7c90240b08496532abab6094df197df8f2aa07610c25b0b72"
HAAR_DIGEST = "c935a495c7f6b62ae4565fbbd1e155f5dda03a26575063fbdaaf63caae3ce570"
MATRIX_DIGEST = "3e7be4cd5135c41fda33674a590794d7bb0ebc2b66b013d9653e497584ff810f"
