"""Tests for the command line `qsphere verify`."""

import importlib
import json
import numbers
from fractions import Fraction
from pathlib import Path

import pytest

from qsphere import cli
from qsphere.cli import main
from qsphere.report import record


def _run(capsys, *argv):
    status = main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    return status, [json.loads(line) for line in lines]


def test_verify_prints_one_record_per_check_per_level(capsys):
    status, recs = _run(capsys, "--q0", "1/4", "--L", "6:7", "--z", "3")
    assert status == 0
    per_level = ["haar_trace", "tau_trace", "tau_trace", "commutant", "order_one"]
    assert [r["check"] for r in recs] == per_level * 2 + ["zeta_residue"]
    assert [r["L"] for r in recs[:-1]] == [6] * 5 + [7] * 5
    assert all(r["passed"] and r["wall_ms"] >= 0 and r["q0"] == 0.25 for r in recs)
    assert all(r["layer"] == "spectral" for r in recs)
    # every record names the bound it was judged against
    assert all(r["tol_abs"] > 0 and "tol_rel" not in r for r in recs)
    # the exact value of the commutant is 0, where a relative error says nothing
    commutant = next(r for r in recs if r["check"] == "commutant")
    assert commutant["rhs"] == 0.0 and commutant["rel_err"] is None


def test_verify_records_carry_python_numbers():
    # every number of a record is a Python int or float, none a numpy
    # scalar, so the records serialise as plain JSON numbers
    def values(rec):
        for v in rec.values():
            yield from values(v) if isinstance(v, dict) else [v]

    recs = list(cli.verify(Fraction(1, 4), range(6, 7), 3.0))
    found = [v for rec in recs for v in values(rec) if isinstance(v, numbers.Number)]
    assert len(found) > 10 * len(recs)
    assert all(type(v) in (int, float, bool) for v in found), [type(v) for v in found]


def test_verify_fails_when_a_check_fails(capsys, monkeypatch):
    def failing(x, z, space):
        return record("haar_trace", {"x": str(x)}, 0.81, 0.8, tol_abs=1e-15, L=space.L)

    monkeypatch.setattr(cli, "haar_trace_check", failing)
    status, recs = _run(capsys, "--L", "2")
    assert status == 1
    assert {r["L"] for r in recs[:-1]} == {2}
    assert [r["check"] for r in recs if not r["passed"]] == ["haar_trace"]
    assert recs[0]["tol_abs"] == 1e-15 and "tol_rel" not in recs[0]


def test_verify_passes_near_z_2_at_a_large_q0(capsys):
    # the truncated trace there is far from its limit, but equal to the
    # exact truncated value up to round-off
    status, recs = _run(capsys, "--q0", "81/100", "--L", "1:4", "--z", "2.5")
    assert status == 0
    traces = [r for r in recs if "trace" in r["check"]]
    assert len(traces) == 12
    assert all(r["abs_err"] <= r["tol_abs"] and abs(r["lhs"] - r["exact"]) > 1e-3 for r in traces
               if r["exact"])


def test_verify_refuses_a_level_past_the_ladder_cutoff(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q0", "1/4", "--L", "47", "--z", "3"])
    assert exc.value.code == 2
    assert "cutoff" in capsys.readouterr().err


def test_verify_refuses_a_q0_whose_powers_leave_the_float_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q0", "1/100000", "--L", "28", "--z", "3"])
    assert exc.value.code == 2
    assert "past the float range" in capsys.readouterr().err


def test_verify_refuses_a_q0_outside_the_unit_interval(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q0", "3/2", "--L", "2"])
    assert exc.value.code == 2
    assert "0 < q0 < 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--L", "8:4"], "--L names no level"),
        (["--L", "6", "--z", "2"], "real z > 2"),
        (["--L", "6", "--z", "1.5"], "real z > 2"),
        (["--L", "1", "--z", "inf"], "a finite real z > 2"),
        (["--L", "1", "--q0", "1/0"], "1/0 is not a rational number"),
        (["--L", "1", "--z", "1e6"], "zeta(z) overflows a float at z = 1e+06"),
    ],
)
def test_verify_refuses_an_empty_level_range_or_a_z_at_most_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_declared_console_script_resolves():
    # pyproject.toml declares the `qsphere` command as module:function
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, attr = scripts["qsphere"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry) and entry is main
