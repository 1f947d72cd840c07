"""Tests of the benchmark itself: references, verdicts, inputs and tracing.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import cocycle
import exact
import exact_matrix
import refs
import trace_formula
from common import Raised, close, converged, is_known_fault, unexpected
from tracer import Tracer

from qsphere import spectral
from qsphere.fodc import tau
from qsphere.haar import haar_podles
from qsphere.podles import gen_A, gen_B, gen_Bs
from qsphere.scalar import evaluate, qpow

HERE = Path(__file__).resolve().parent
GEN = {"A": gen_A, "B": gen_B, "Bs": gen_Bs}


# -- references are the program's exact values ---------------------------------


def test_h_closed_form_equals_haar_state():
    q = qpow(1)
    for n in range(6):
        assert refs.h_A(n, q) == haar_podles(gen_A**n)
    assert trace_formula._operand("BsB") == gen_Bs * gen_B
    assert refs.h_operand("BsB", q) == haar_podles(gen_Bs * gen_B)


def test_tau_closed_forms_equal_tau_on_all_generator_triples():
    closed = refs.tau_generators(qpow(1))
    assert set(closed) == set(product(GEN, repeat=3))
    for triple, value in closed.items():
        assert tau(*(GEN[x] for x in triple)) == value, triple
    assert sum(not v.is_zero() for v in closed.values()) == 7


def test_numeric_references_are_the_exact_values_at_q0():
    q0 = Fraction(1, 4)
    assert refs.h_operand("A", q0) == Fraction(16, 17)
    for triple in (("A", "B", "Bs"), ("Bs", "A", "B")):
        exact = evaluate(tau(*(GEN[x] for x in triple)), q0)
        assert math.isclose(float(refs.tau_generators(q0)[triple]), float(exact), rel_tol=1e-14)
    # the values quoted for q0 = 1/4 in the ROADMAP
    assert f"{float(refs.tau_generators(q0)[('A', 'B', 'Bs')]):.6g}" == "-0.00364875"
    assert f"{float(refs.tau_generators(q0)[('Bs', 'A', 'B')]):.6g}" == "-0.000228047"


def test_tail_level():
    assert refs.tail_level(Fraction(1, 4), 3, 1e-6) == 10
    assert refs.tail_level(Fraction(1, 4), 4, 1e-6) == 5
    assert 0.25**10 <= 1e-6 < 0.25**9


# -- verdicts are the benchmark's own --------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "0.8"])
def test_non_finite_values_fail(bad):
    assert not close(bad, 0.8, 1e-6)
    assert not converged([0.8, bad], 0.8, 1e-6)


def test_convergence_needs_two_successive_levels():
    assert not converged([0.8], 0.8, 1e-6)
    assert not converged([0.8, 0.81], 0.8, 1e-6)
    assert converged([5.0, 0.8 + 1e-7, 0.8 - 1e-7], 0.8, 1e-6)


def test_vacuous_pass_at_half_fails_here():
    # at q0 = 1/2, z = 3, L = 4 the program's h-trace of A is far from
    # h(A) = 0.8, yet its default relative tolerance of 1.25 lets it pass
    ref = float(refs.h_operand("A", Fraction(1, 2)))
    assert ref == 0.8
    values = [
        spectral.haar_trace_check(gen_A, 3, spectral.TruncatedSpace(Fraction(1, 2), L))["lhs"]
        for L in (3, 4)
    ]
    assert not close(values[-1], ref, trace_formula.TARGET)
    assert not converged(values, ref, trace_formula.TARGET)


def test_trace_verdict_ignores_the_passed_flag():
    inp = trace_formula.inputs(1)
    sweeps = [(c, [(3, -809.0), (4, -809.0)]) for c in inp["checks"]]
    passed = {"lhs": 0.0, "passed": True}
    out = {
        "sweeps": sweeps,
        "real": [dict(passed), dict(passed, lhs=math.nan)],
        "residues": [{"lhs": -809.0, "passed": True}] * len(inp["residue_q0"]),
    }
    verdicts = trace_formula.verify(inp, out)
    assert [ok for name, ok in verdicts] == [False] * 4 + [True, False] + [False] * 4
    # wrong numbers from the ladder are the known fault; the residues are not
    assert unexpected(verdicts) == ["residue"]

    # a program that raises, or returns no number, is a breakage, not the
    # ladder fault: the run must read incorrect rather than fast
    raised = Raised("TypeError: boom")
    out = {
        "sweeps": [(c, [(2, raised), (3, raised)]) for c in inp["checks"]],
        "real": raised,
        "residues": [raised] * len(inp["residue_q0"]),
    }
    verdicts = trace_formula.verify(inp, out)
    assert len(verdicts) == 10 and not any(ok for _, ok in verdicts)
    assert unexpected(verdicts) == [
        "error.real.commutant", "error.real.order_one", "error.trace.h", "error.trace.tau",
        "residue",
    ]
    out["real"] = [{"passed": True}, {"lhs": "0.0", "passed": True}]
    verdicts = trace_formula.verify(inp, out)
    assert "error.real.commutant" in unexpected(verdicts)
    assert "error.real.order_one" in unexpected(verdicts)


def test_real_structure_tolerance_scales_with_the_dirac_entries():
    q0, level = trace_formula.COMMUTANT
    commutant, order_one = trace_formula.real_tolerances(q0, level)
    assert commutant == trace_formula.ROUNDOFF
    assert order_one == pytest.approx(trace_formula.ROUNDOFF * spectral.qnum(level + 3, float(q0)))
    # the round-off scale dim * eps of the space stays 100x below the bound
    dim = spectral.TruncatedSpace(q0, level).dim
    assert 100 * dim * 2.3e-16 < commutant


def test_residue_checks_pass_on_seeded_points():
    for seed in range(5):
        inp = trace_formula.inputs(seed)
        for q0 in inp["residue_q0"]:
            lhs = spectral.residue_check(q0, trace_formula.RESIDUE_EPS)["lhs"]
            assert close(lhs, refs.zeta_residue(q0), trace_formula.RESIDUE_TOL)


def test_only_numeric_layer_operations_are_known_faults():
    assert is_known_fault("trace.h") and is_known_fault("real.order_one")
    for name in ("residue", "tau.cyclic", "matrix.A.column", "ladder.norm2", "volume",
                 "error.trace.h", "error.real.order_one"):
        assert not is_known_fault(name)


def _raised_cocycle_out(inp):
    raised = Raised("boom")
    return {
        "generators": [raised] * len(inp["triples"]),
        "eta": raised,
        "volume": raised,
        "coboundary": [raised] * len(inp["quadruples"]),
        "cyclic": [(raised, raised)] * len(inp["cyclic"]),
        "volume_route": [(raised, raised)] * len(inp["volume"]),
    }


def test_operation_count_does_not_depend_on_failures():
    inp = exact_matrix.inputs(3)
    verdicts = exact_matrix.verify(inp, {"basis": Raised("boom"), "matrices": {}})
    assert len(verdicts) == 51 and not any(ok for _, ok in verdicts)
    inp = cocycle.inputs(3)
    verdicts = cocycle.verify(inp, _raised_cocycle_out(inp))
    assert len(verdicts) == 113 and not any(ok for _, ok in verdicts)


def test_exact_checks_both_parts_on_one_seed():
    inp = exact.inputs(3)
    assert inp == [exact_matrix.inputs(3), cocycle.inputs(3)]
    out = [{"basis": Raised("boom"), "matrices": {}}, _raised_cocycle_out(inp[1])]
    verdicts = exact.verify(inp, out)
    assert len(verdicts) == 51 + 113 and not any(ok for _, ok in verdicts)


# -- seeded inputs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", [exact, exact_matrix, cocycle, trace_formula])
def test_inputs_are_reproducible(workload):
    assert workload.inputs(7) == workload.inputs(7)


@pytest.mark.parametrize("workload", [exact, exact_matrix, cocycle, trace_formula])
def test_inputs_depend_on_the_seed(workload):
    assert workload.inputs(7) != workload.inputs(8)


def test_cocycle_tuples_are_weight_balanced_with_fixed_degree():
    inp = cocycle.inputs(11)
    for xs in inp["quadruples"]:
        monos = [next(iter(x.terms)) for x in xs]
        assert sum(j for _, j in monos) == 0
        assert sum(i + abs(j) for i, j in monos) == 7


# -- tracing ----------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tr = Tracer()
    inner = tr.wrap("haar.haar", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tr.wrap("fodc.tau", outer_body)
    outer()
    assert tr.calls["fodc.tau"] == 1 and tr.calls["haar.haar"] == 2
    assert tr.self_s["haar.haar"] >= 0.04
    assert 0.01 <= tr.self_s["fodc.tau"] < 0.03


def test_install_reaches_every_binding():
    code = (
        "import json, sys; sys.path.insert(0, 'bench');"
        "from tracer import Tracer; t = Tracer(); t.install();"
        "from qsphere import fodc, corep; from qsphere.podles import gen_A, gen_B, gen_Bs;"
        "fodc.pair_chain(fodc.TAU, fodc.eta());"
        "corep.vplus_vminus_basis(1);"
        "print(json.dumps(t.calls))"
    )
    root = HERE.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120,
    )
    calls = json.loads(proc.stdout)
    assert calls["fodc.pair_chain"] == 1
    assert calls["fodc.tau"] == 7  # through the cochain TAU, one per chain term
    assert calls["uq.r_action"] > 0 and calls["coordalg.mono_mul"] > 0
    assert calls["corep.vplus_vminus_basis"] == 1 and calls["uq.act_left"] > 0
    assert calls["scalar.poly_mul"] > 0 and calls["scalar.poly_gcd"] > 0


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
