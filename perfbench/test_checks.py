"""Self-tests of the benchmark's independent checks.

    python3 -m pytest -q perfbench

They need numpy and pytest only, not the onelap package: the bundles here
are built from the closed form, then spoiled on purpose.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing

CASES = [(1, 2.0), (1, 5.0), (2, 3.0), (2, 6.0), (3, 4.0), (3, 8.0)]


def exact_bundle(dim, lam, mesh):
    """What a correct bundle holds: the closed form on the uniform grid."""
    r = np.linspace(0.0, 1.0, mesh + 1)
    mid = 0.5 * (r[1:] + r[:-1])
    u, _ = checks.closed_form(dim, lam, r)
    _, zm = checks.closed_form(dim, lam, mid)
    z = np.concatenate(([0.0], 0.5 * (zm[:-1] + zm[1:]), [1.5 * zm[-1] - 0.5 * zm[-2]]))
    return {"r": r, "u": u, "z": z, "flux_r": mid, "flux_z": zm}


def shifted(b):
    return {**b, "u": b["u"] + 1e-3}


def flipped(b):
    return {**b, "z": -b["z"], "flux_z": -b["flux_z"]}


@pytest.mark.parametrize("dim,lam", CASES)
def test_closed_form_continuous_at_plateau_edge(dim, lam):
    rstar = dim / lam
    below, above = np.nextafter(rstar, 0.0), np.nextafter(rstar, 1.0)
    u, z = checks.closed_form(dim, lam, np.array([below, rstar, above]))
    assert abs(u[0] - u[2]) < 1e-12 and abs(u[1] - u[2]) < 1e-12
    assert abs(z[0] - z[2]) < 1e-12 and z[1] == -1.0


@pytest.mark.parametrize("dim,lam", CASES)
def test_closed_form_zero_on_boundary_and_plateau_height(dim, lam):
    u, z = checks.closed_form(dim, lam, np.array([0.0, 1.0]))
    assert u[1] == 0.0 and z[1] == -1.0
    assert u[0] == pytest.approx(1.0 - (lam / dim) ** (dim - 1) * math.exp(dim - lam), rel=1e-15)


def test_closed_form_zero_state_below_threshold():
    u, z = checks.closed_form(2, 1.8, np.linspace(0.0, 1.0, 11))
    assert np.all(u == 0.0)
    assert z[-1] == pytest.approx(-0.9)


@pytest.mark.parametrize("dim,lam", CASES)
def test_oracle_check(dim, lam):
    b = exact_bundle(dim, lam, 1000)
    assert checks.check_oracle_bundle(b, dim, lam, 1000) == []
    assert checks.check_oracle_bundle(shifted(b), dim, lam, 1000)
    assert checks.check_oracle_bundle(flipped(b), dim, lam, 1000)


@pytest.mark.parametrize("dim,lam", CASES + [(1, 0.5), (3, 2.7)])
def test_solver_check(dim, lam):
    b = exact_bundle(dim, lam, 1000)
    assert checks.check_solver_bundle(b, dim, lam, 1000) == []
    assert checks.check_solver_bundle(shifted(b), dim, lam, 1000)
    assert checks.check_solver_bundle(flipped(b), dim, lam, 1000)


def test_solver_check_rejects_a_bump_below_threshold():
    b = exact_bundle(1, 0.9, 1000)
    b["u"] = 1e-4 * (1.0 - b["r"] ** 2)
    assert checks.check_solver_bundle(b, 1, 0.9, 1000)


@pytest.mark.parametrize("dim,lam", CASES)
def test_sweep_curve_check(dim, lam):
    x = np.linspace(-1.0, 1.0, 401)
    u, _ = checks.closed_form(dim, lam, np.abs(x))
    assert checks.check_sweep_curve(x, u, dim, lam, 1000) == []
    assert checks.check_sweep_curve(x, u + 1e-3, dim, lam, 1000)
    assert checks.check_sweep_curve(x, u * 0.9, dim, lam, 1000)


def test_verdict_problems():
    assert checks.verdict_problems({"verdicts": {"a": True}, "passed": True}) == []
    assert checks.verdict_problems({"verdicts": {"a": False}, "passed": False})


def test_read_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("r,u\n0,0.5\n1,-2.5e-17\n", encoding="ascii")
    header, cols = checks.read_table(path)
    assert header == ["r", "u"]
    assert cols[1].tolist() == [0.5, -2.5e-17]


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.UNITS
    assert set(tracing.layer_metrics([], 0)) | {"trace.overhead_pct"} == set(tracing.UNITS)
