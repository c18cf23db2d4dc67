"""End-to-end acceptance gates.

Each test here is one release criterion, numbered; the terminal summary
prints one PASS/FAIL line per criterion (see conftest).  Tolerances are the
contract numbers, not what the implementation happens to achieve today, and
each criterion carries a wall-clock budget checked with perf_counter.

The expensive runs are shared: the certified interval solve feeds criteria
3 and 5, the rigidity scan feeds criteria 4 and 5.
"""

import math
from time import perf_counter

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from onelap import cli, io, oracle
from onelap.geometry import (DomainSpec, cheeger_bounds, sobolev_constant,
                             sobolev_constant_limit, unit_ball_volume)
from onelap.scalar import (absorption_exact, absorption_primitive,
                           absorption_truncated, remainder,
                           root_absorption_primitive,
                           root_primitive_unbounded, truncate)
from onelap.solver import (ProblemSpec, RadialGrid,
                           RegularizationState, apriori_bounds_report,
                           assemble_residual, assemble_system,
                           continuation_solve, plateau_extent)
from onelap.verify import level_set_decay_check, sampled_explicit, verify


@pytest.fixture(scope="module")
def interval_solve():
    """Criterion-3 run: interval, gamma 1, lam 4, M 4000, default ladder."""
    dom = DomainSpec("interval", 1)
    spec = ProblemSpec(dom, gamma=1.0, source=4.0)
    grid = RadialGrid.uniform(dom, 4000)
    t0 = perf_counter()
    sol = continuation_solve(spec, grid)
    return spec, grid, sol, perf_counter() - t0


@pytest.fixture(scope="module")
def rigidity_scan():
    """Criterion-4 runs: both sides of the threshold on interval and disk."""
    cases = [("interval", 1, 2000, lam) for lam in (0.5, 0.9, 1.0, 1.5, 2.0)]
    cases += [("ball", 2, 1000, lam) for lam in (1.0, 2.0, 3.0)]
    t0 = perf_counter()
    runs = []
    for kind, dim, mesh, lam in cases:
        dom = DomainSpec(kind, dim)
        spec = ProblemSpec(dom, gamma=1.0, source=lam)
        grid = RadialGrid.uniform(dom, mesh)
        sol = continuation_solve(spec, grid)
        runs.append((spec, grid, sol))
    return runs, perf_counter() - t0


def test_criterion_1_closed_form_curve_family(tmp_path, monkeypatch):
    monkeypatch.setenv("ONELAP_OUT_DIR", str(tmp_path))
    t0 = perf_counter()
    rc = cli.main(
        ["sweep", "--mode", "oracle", "--lambdas", "2:20:1", "--samples", "401",
         "--output", str(tmp_path / "curves")]
    )
    elapsed = perf_counter() - t0
    assert rc == 0
    header, cols = io.read_csv(tmp_path / "curves.csv")
    x = cols[0]
    assert header[0] == "x" and len(header) == 20 and x.size == 401
    for name, u in zip(header[1:], cols[1:]):
        lam = float(name.removeprefix("u_lam"))
        assert u[0] == 0.0 and u[-1] == 0.0
        core = u[np.abs(x) <= 1.0 / lam]
        assert core.size > 0
        assert np.max(core) - np.min(core) <= 1e-15
        assert u[200] == approx(1.0 - math.exp(1.0 - lam), rel=1e-14)
    assert elapsed < 1.0


def test_criterion_2_oracle_self_consistency():
    t0 = perf_counter()
    for dim, lam in ((1, 2), (1, 4), (2, 4), (3, 5)):
        dom = DomainSpec("interval" if dim == 1 else "ball", dim)
        spec = ProblemSpec(dom, gamma=1.0, source=float(lam))
        reps = {}
        for mesh in (4000, 8000):
            grid = RadialGrid.uniform(dom, mesh)
            reps[mesh] = verify(sampled_explicit(grid, lam), spec, grid)
        fine = reps[8000]
        defects = {
            "field": fine.field_bound_defect,
            "pairing": fine.pairing_defect,
            "equation": fine.equation_residual,
            "balance": fine.flux_balance_defect,
            "trace": fine.trace_value,
        }
        assert all(v <= 2e-3 for v in defects.values()), defects
        assert fine.energy_gap <= 1e-3
        assert fine.passed
        # dominant defect (the kink row) halves with the mesh; the interior
        # defects are second order and shrink at least that fast
        ratio = reps[4000].equation_residual / fine.equation_residual
        assert 1.5 <= ratio <= 3.0
        for field in ("flux_balance_defect", "energy_gap", "equation_residual_moving"):
            coarse, sharp = getattr(reps[4000], field), getattr(fine, field)
            if sharp > 1e-12:
                assert coarse / sharp >= 1.5, field
    assert perf_counter() - t0 < 10.0


def test_criterion_3_solver_matches_closed_form(interval_solve):
    spec, grid, sol, elapsed = interval_solve
    assert sol.converged
    lam = spec.constant_source
    u_ref = oracle.profile(grid.dim, lam, grid.nodes)
    z_ref = oracle.flux(grid.dim, lam, grid.midpoints)
    assert float(np.max(np.abs(sol.u - u_ref))) <= 1e-2
    away = np.abs(grid.midpoints - 1.0 / lam) > 1.5 * grid.spacing
    assert float(np.max(np.abs(sol.z[away] - z_ref[away]))) <= 5e-2
    assert plateau_extent(grid, sol.history[-1].u) == approx(0.25, abs=2 * grid.spacing)
    assert elapsed < 60.0


def test_criterion_4_rigidity_threshold(rigidity_scan):
    runs, elapsed = rigidity_scan
    for spec, grid, sol in runs:
        lam = spec.constant_source
        h = cheeger_bounds(spec.domain).exact
        top = float(np.max(np.abs(sol.u)))
        if lam <= h:
            assert top <= 1e-6, (spec.domain.kind, lam, top)
        else:
            assert top >= 0.1, (spec.domain.kind, lam, top)
    assert elapsed < 120.0


def test_criterion_5_apriori_and_level_set_bounds(interval_solve, rigidity_scan):
    spec3, grid3, sol3, _ = interval_solve
    runs, _ = rigidity_scan
    everything = [(spec3, grid3, sol3)] + [t for t in runs]
    checked = live = 0
    for spec, grid, sol in everything:
        for rung in sol.history:
            # a grid-sequenced solve climbs its first rungs on coarser meshes
            grid = RadialGrid.uniform(spec.domain, rung.u.size - 1)
            rep = apriori_bounds_report(spec, rung.state, grid, rung.u)
            assert rep.gradient_bound_ok and rep.absorption_bound_ok, (
                spec.domain.kind, spec.constant_source, rung.state.p)
            checked += 1
            if grid.dim == 2 and rung.state.p < 2.0:
                records = level_set_decay_check(rung, rung.state, spec, grid)
                live += bool(records)
                assert all(rec.holds for rec in records), (
                    spec.constant_source, rung.state.p)
    assert checked > 50
    assert live > 0


def test_criterion_6_constants():
    t0 = perf_counter()
    for dim in (1, 2, 3, 4):
        for radius in (0.5, 1.0, 2.5):
            b = cheeger_bounds(DomainSpec("ball", dim, radius=radius))
            exact = dim / radius
            assert b.exact == exact
            assert b.upper == approx(exact, rel=1e-12)
            assert b.lower == approx(exact, rel=1e-12)
    ps = (1.1, 1.01, 1.001)
    for dim in (2, 3, 4):
        limit = sobolev_constant_limit(dim)
        vals = [sobolev_constant(dim, p) for p in ps]
        gaps = [abs(v - limit) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2
        # the amplified constant collapses: compare in log space, the raw
        # powers underflow float64 long before p reaches the end
        logs = [math.log(v) / (p - 1.0) for v, p in zip(vals, ps)]
        assert logs[0] > logs[1] > logs[2]
        assert logs[2] < math.log(1e-10)
    assert perf_counter() - t0 < 1.0


def test_criterion_7_property_suites():
    t0 = perf_counter()
    rng = np.random.default_rng(11)

    # split-reassembly identity, randomized over the exactly-representable band
    for _ in range(200):
        k = float(np.exp(rng.uniform(-40, 40)))
        s = rng.uniform(-2 * k, 2 * k, size=256)
        assert np.all(truncate(s, k) + remainder(s, k) == s)

    # truncated absorption: bounds, monotonicity in n, continuity at the knee
    s = rng.uniform(0.0, 4.0, size=4096)
    for gamma in (0.5, 1.0, 2.0):
        prev = None
        for n in (2, 8, 32, 128):
            h = absorption_truncated(s, n, gamma)
            assert np.all(h >= 0.0) and np.all(h <= n)
            inside = s < 1.0
            assert np.all(h[inside] <= absorption_exact(s[inside], gamma) + 1e-12)
            if prev is not None:
                assert np.all(h >= prev - 1e-12)
            prev = h
        knee = absorption_truncated(1.0 - 1e-300, 64, gamma)
        assert knee == approx(64.0, rel=1e-12)

    # primitives against independent quadrature
    for a, gamma in ((0.3, 1.0), (0.8, 0.5), (0.6, 2.0)):
        val, _ = quad(lambda t: (1.0 - t) ** (-gamma), 0.0, a)
        assert absorption_primitive(a, gamma) == approx(val, rel=1e-10)
    for a, gamma, p in ((0.5, 1.0, 1.5), (0.7, 2.0, 1.25)):
        val, _ = quad(lambda t: (1.0 - t) ** (-gamma / p), 0.0, a)
        assert root_absorption_primitive(a, gamma, p) == approx(val, rel=1e-10)

    # divergence decision table: unbounded exactly when gamma >= p
    table = [(1.0, 1.5, False), (1.5, 1.5, True), (2.0, 1.5, True),
             (1.0, 1.01, False), (1.2, 1.1, True)]
    for gamma, p, want in table:
        assert root_primitive_unbounded(gamma, p) is want

    # tridiagonal Jacobian against central differences
    m = 24
    dom = DomainSpec("ball", 2)
    grid = RadialGrid.uniform(dom, m)
    spec = ProblemSpec(dom, gamma=1.3, source=2.0)
    st = RegularizationState(p=1.3, n=50, eps=1e-3)
    u = 0.4 * np.sin(np.pi * grid.nodes) + 0.05 * rng.standard_normal(m + 1)
    u[-1] = 0.0
    _, ab = assemble_system(spec, st, grid, u)
    dense = np.zeros((m, m))
    dense[np.arange(m), np.arange(m)] = ab[1]
    dense[np.arange(m - 1), np.arange(1, m)] = ab[0][1:]
    dense[np.arange(1, m), np.arange(m - 1)] = ab[2][:-1]
    step = 1e-7
    for j in range(m):
        up, dn = u.copy(), u.copy()
        up[j] += step
        dn[j] -= step
        col = (assemble_residual(spec, st, grid, up)
               - assemble_residual(spec, st, grid, dn)) / (2 * step)
        np.testing.assert_allclose(dense[:, j], col, atol=1e-5 * max(1.0, float(np.max(np.abs(col)))))

    assert perf_counter() - t0 < 10.0
