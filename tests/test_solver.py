"""Discretization, Newton iteration, and the continuation driver."""

import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from onelap import solver
from onelap.oracle import profile
from onelap.solver import (
    LADDER,
    DomainSpec,
    ProblemSpec,
    RadialGrid,
    RegularizationState,
    apriori_bounds_report,
    assemble_residual,
    assemble_system,
    continuation_solve,
    gradient_mass,
    newton_solve,
    plateau_extent,
    regularized_flux,
)
from onelap.verify import Tolerances, verify

INTERVAL = DomainSpec("interval", 1, 1.0)
DISK = DomainSpec("ball", 2, 1.0)


def _state(p=1.2, n=100, eps=1e-4):
    return RegularizationState(p=p, n=n, eps=eps)


# ------------------------------------------------------------------- types

def test_problem_spec_validation():
    with pytest.raises(ValueError, match="source must be nonnegative"):
        ProblemSpec(INTERVAL, gamma=1.0, source=-2.0)
    with pytest.raises(ValueError):
        ProblemSpec(INTERVAL, gamma=0.0, source=1.0)
    with pytest.raises(ValueError, match="finite"):
        ProblemSpec(INTERVAL, gamma=np.inf, source=1.0)
    with pytest.raises(ValueError, match="finite"):
        ProblemSpec(INTERVAL, gamma=1.0, source=np.inf)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=3.0)
    assert spec.constant_source == 3.0


def test_problem_spec_profile_source():
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=lambda r: 2.0 + r)
    assert spec.constant_source is None
    r = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(spec.source_values(r), 2.0 + r)
    bad = ProblemSpec(INTERVAL, gamma=1.0, source=lambda r: r - 0.5)
    with pytest.raises(ValueError, match="source must be nonnegative"):
        bad.source_values(r)
    short = ProblemSpec(INTERVAL, gamma=1.0, source=lambda r: np.ones(3))
    with pytest.raises(ValueError, match="one value per node"):
        short.source_values(r)


def test_regularization_state_validation():
    with pytest.raises(ValueError):
        _state(p=1.0)
    with pytest.raises(ValueError):
        _state(n=0)
    with pytest.raises(ValueError):
        _state(eps=0.0)
    with pytest.raises(ValueError, match="finite"):
        _state(p=np.inf)
    with pytest.raises(ValueError, match="finite"):
        _state(eps=np.inf)
    with pytest.raises(ValueError):
        RadialGrid.uniform(INTERVAL, 4)
    with pytest.raises(ValueError, match="finite"):
        RadialGrid(dim=1, radius=np.inf, mesh_size=64)
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        RadialGrid(dim=0, radius=1.0, mesh_size=64)
    with pytest.raises(ValueError, match="radius must be positive"):
        RadialGrid(dim=1, radius=0.0, mesh_size=64)


def test_grid_weights_telescope():
    for dom, m in ((INTERVAL, 50), (DISK, 64), (DomainSpec("ball", 3, 2.0), 40)):
        grid = RadialGrid.uniform(dom, m)
        n = dom.dim
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == dom.radius
        # cell volumes sum exactly to the radial measure R^N / N
        assert np.sum(grid.cell_volumes()) == pytest.approx(
            dom.radius**n / n, rel=1e-13
        )
        np.testing.assert_allclose(
            grid.midpoint_weights, grid.midpoints ** (n - 1), rtol=1e-15
        )


@pytest.mark.parametrize("dim, radius, mesh", [(100, 1.0, 1000), (400, 1.0, 64), (150, 200.0, 64), (1, 1e-320, 64),
                                               (1, 1e-150, 64)])
def test_grid_rejects_weights_out_of_float_range(dim, radius, mesh):
    # the innermost cell volume (dr/2)^N / N underflows to 0 at dims 100 and
    # 400, R^N overflows at dim 150 over radius 200, and the Jacobian's
    # divisor W_i dr^2 underflows to 0 at radius 1e-320; at radius 1e-150 it
    # is about 1e-304, and the last rung's flux sensitivity phi'(0), about
    # 1e8, over it overflows; any of these would turn the divergence or the
    # Newton step into NaN, so the grid refuses them without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^dim {dim} on a mesh of {mesh} cells of radius {radius!r} "):
            RadialGrid(dim=dim, radius=radius, mesh_size=mesh)


def test_grid_keeps_subnormal_weights():
    # at dim 95 on 1000 cells the innermost weights are subnormal, not 0
    grid = RadialGrid(dim=95, radius=1.0, mesh_size=1000)
    assert 0.0 < grid.cell_volumes()[0] < np.finfo(float).tiny
    assert 0.0 < grid.midpoint_weights[0] < np.finfo(float).tiny


def test_default_schedule():
    # the one ladder: its rungs are written into every solve bundle, so they
    # are pinned exactly
    assert [st.p for st in LADDER] == [1.5, 1.3, 1.1, 1.05, 1.01, 1.003, 1.001, 1.0003, 1.0001,
                                       1.00003, 1.00001, 1.000003, 1.000001]
    assert [st.n for st in LADDER] == [100, 1000, 10_000, 100_000, 1_000_000, 10_000_000] + [100_000_000] * 7
    assert [st.eps for st in LADDER] == [min(max((st.p - 1.0) ** 2, 1e-8), 1e-3) for st in LADDER]
    assert LADDER[0].eps == 1e-3 and LADDER[-1].eps == 1e-8
    # p strictly falls, n never falls, eps never grows
    assert all(b.p < a.p and b.n >= a.n and b.eps <= a.eps for a, b in zip(LADDER, LADDER[1:]))
    assert solver._TAIL == LADDER[8:] and LADDER[7].p > solver._DEEP_P >= LADDER[8].p
    # Newton's stopping rule and budgets are the solver's own constants
    assert (solver._NEWTON_TOL, solver._STEP_TOL, solver._MAX_ITER, solver._MAX_TRIALS) == (1e-9, 1e-12, 200, 50)


# -------------------------------------------------------------- residual

def test_residual_at_zero_state_is_minus_source():
    grid = RadialGrid.uniform(INTERVAL, 128)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=3.5)
    res = assemble_residual(spec, _state(), grid, np.zeros(129))
    np.testing.assert_allclose(res, -3.5, rtol=1e-14)


def test_residual_rejects_bad_iterates():
    grid = RadialGrid.uniform(INTERVAL, 128)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=1.0)
    u = np.zeros(129)
    u[-1] = 0.5
    with pytest.raises(ValueError):
        assemble_residual(spec, _state(), grid, u)
    u[-1] = 0.0
    u[3] = np.nan
    with pytest.raises(ValueError):
        assemble_residual(spec, _state(), grid, u)


def test_residual_finite_above_one():
    # states past the singularity hit the capped absorption branch
    grid = RadialGrid.uniform(INTERVAL, 128)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=1.0)
    u = 1.2 * np.sin(np.pi * grid.nodes)
    u[-1] = 0.0
    res = assemble_residual(spec, _state(n=10), grid, u)
    assert np.all(np.isfinite(res))


def test_oracle_interpolant_residual_small_on_moving_region():
    # the sharp closed form has exactly flat core cells, so its interpolant
    # carries no discrete flux there (those rows read -lam) and the kink row
    # sees the one-cell flux jump; away from both, first-order consistency
    m = 4000
    grid = RadialGrid.uniform(INTERVAL, m)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    st = RegularizationState(p=1.001, n=10**6, eps=1e-8)
    res = assemble_residual(spec, st, grid, profile(1, 4.0, grid.nodes))
    r = grid.nodes[:-1]
    moving = r > 0.25 + 2 * grid.spacing
    core = r < 0.25 - 2 * grid.spacing
    assert np.max(np.abs(res[moving])) <= 0.05
    np.testing.assert_allclose(res[core], -4.0, atol=1e-6)


def test_jacobian_matches_finite_differences():
    m = 24
    grid = RadialGrid.uniform(DISK, m)
    spec = ProblemSpec(DISK, gamma=1.3, source=2.0)
    st = RegularizationState(p=1.3, n=50, eps=1e-3)
    rng = np.random.default_rng(3)
    u = 0.4 * np.sin(np.pi * grid.nodes) + 0.05 * rng.standard_normal(m + 1)
    u[-1] = 0.0
    res, ab = assemble_system(spec, st, grid, u)
    dense = np.zeros((m, m))
    dense[np.arange(m), np.arange(m)] = ab[1]
    dense[np.arange(m - 1), np.arange(1, m)] = ab[0][1:]
    dense[np.arange(1, m), np.arange(m - 1)] = ab[2][:-1]
    step = 1e-7
    for j in range(m):
        up = u.copy()
        dn = u.copy()
        up[j] += step
        dn[j] -= step
        col = (
            assemble_residual(spec, st, grid, up)
            - assemble_residual(spec, st, grid, dn)
        ) / (2 * step)
        np.testing.assert_allclose(dense[:, j], col, atol=1e-5 * max(1.0, np.max(np.abs(col))))


def test_reconstructed_flux_matches_slope_law():
    grid = RadialGrid.uniform(INTERVAL, 100)
    st = _state(p=1.5, eps=1e-2)
    u = 0.5 * (1.0 - grid.nodes**2)
    d = np.diff(u) / grid.spacing
    z = regularized_flux(d, st.p, st.eps)
    np.testing.assert_allclose(z, (d * d + st.eps**2) ** ((st.p - 2) / 2) * d, rtol=1e-13)


# ---------------------------------------------------------------- newton

def test_newton_zero_source_is_immediate():
    grid = RadialGrid.uniform(INTERVAL, 64)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=0.0)
    sol = newton_solve(spec, _state(), grid, np.zeros(65))
    assert sol.converged and sol.iterations == 0
    assert np.all(sol.u == 0.0)


def test_newton_single_rung_reaches_float_floor():
    # quantization of the plateau rows bounds the reachable residual from
    # below; the rung must stop there and report convergence honestly
    grid = RadialGrid.uniform(INTERVAL, 2000)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    st = RegularizationState(p=1.2, n=100, eps=1e-4)
    sol = newton_solve(spec, st, grid, np.zeros(2001))
    assert sol.converged
    assert sol.stop_reason in ("residual", "float_floor")
    assert sol.residual_norm <= 1e-5
    assert float(np.max(sol.u)) < 1.0
    # away from the p -> 1 limit the flux may exceed 1 (|D|^(p-1) at the
    # wall); only the continuation end state owes the unit bound
    assert np.max(np.abs(sol.z)) <= 4.0 ** (st.p - 1.0) + 0.05


def test_newton_rejects_bad_start():
    grid = RadialGrid.uniform(INTERVAL, 64)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=1.0)
    u0 = np.zeros(65)
    u0[10] = np.inf
    with pytest.raises(ValueError):
        newton_solve(spec, _state(), grid, u0)


def test_newton_determinism():
    grid = RadialGrid.uniform(DISK, 300)
    spec = ProblemSpec(DISK, gamma=1.0, source=5.0)
    st = RegularizationState(p=1.3, n=1000, eps=1e-3)
    a = newton_solve(spec, st, grid, np.zeros(301))
    b = newton_solve(spec, st, grid, np.zeros(301))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.z, b.z)
    assert a.iterations == b.iterations


# ----------------------------------------------------------- continuation

def test_continuation_attaches_failing_rung():
    # dim 1 at gamma = 0.3 and lam = 8 on 200 cells: from u = 0 Newton runs
    # out of its iterations on the first rung
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 200)
    spec = ProblemSpec(dom, gamma=0.3, source=8.0)
    sol = continuation_solve(spec, grid)
    assert len(sol.history) - 1 == 0 and sol.history[-1].u.tobytes() == sol.u.tobytes()
    assert not sol.converged
    assert (sol.stop_reason, sol.iterations) == ("stalled", solver._MAX_ITER)


def test_continuation_history_and_plateau():
    grid = RadialGrid.uniform(INTERVAL, 400)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    sol = continuation_solve(spec, grid)
    assert sol.converged
    assert [h.state for h in sol.history] == list(LADDER)
    sups = [float(np.max(np.abs(h.u))) for h in sol.history]
    assert sups[-1] == pytest.approx(float(np.max(sol.u)), rel=1e-12)
    assert sups[-1] == pytest.approx(1.0 - np.exp(-3.0), abs=5e-3)
    # at the ladder's end, eps = 1e-8, the flat core reaches the plateau
    # radius N/lam = 0.25 of the closed form
    assert plateau_extent(grid, sol.history[-1].u) == pytest.approx(0.25, abs=1.5 * grid.spacing)


def test_trivial_regime_collapses_to_dust():
    grid = RadialGrid.uniform(INTERVAL, 500)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=0.5)
    sol = continuation_solve(spec, grid)
    assert float(np.max(np.abs(sol.u))) <= 1e-6
    assert plateau_extent(grid, sol.history[-1].u) == 1.0


def _rung_trace(sol):
    return [(h.state, h.iterations, h.stop_reason, h.residual_norm, h.residual_evals, float(np.max(np.abs(h.u))))
            for h in sol.history]


@pytest.mark.parametrize(
    "dim, mesh, lams, stall",
    [
        # one strength on the trivial branch, one converging, one that stalls
        # at rung 6 when it runs out of max_iter iterations
        (1, 500, (0.5, 4.0, 14.0), (14.0, 6, "max_iter")),
        # lam = 15 stalls at rung 3 after 6 iterations, when its line search
        # meets a dead end: 50 trials and no decrease
        (1, 1000, (5.0, 15.0), (15.0, 3, "dead_end")),
    ],
    ids=["max-iter", "dead-end"],
)
def test_batched_continuation_matches_single_solves(dim, mesh, lams, stall):
    # each strength must come out of the batch exactly as it comes out of its
    # own solve, the stalled one included
    dom = DomainSpec("ball", dim, 1.0)
    grid = RadialGrid.uniform(dom, mesh)
    specs = [ProblemSpec(dom, gamma=1.0, source=lam) for lam in lams]
    batch = continuation_solve(specs, grid)
    assert len(batch) == len(specs)
    stalled = []
    lam, rung, how = stall
    for spec, got in zip(specs, batch):
        want = continuation_solve(spec, grid)
        if not want.converged:
            stalled.append(spec.source)
            assert not got.converged and len(got.history) - 1 == len(want.history) - 1 == rung
            # the rungs climbed, then the stalled one
            assert len(got.history) == rung + 1 and got.history[-1].stop_reason == "stalled"
            if how == "max_iter":
                assert got.iterations == solver._MAX_ITER
            else:
                assert got.iterations < solver._MAX_ITER
        else:
            assert got.converged and len(got.history) == len(LADDER)
        _assert_same_climb(got, want)
    # the stall branch above really ran
    assert stalled == [lam]


def _assert_same_climb(got, want):
    """Two continuation results agree bit for bit, rung by rung."""
    assert _rung_trace(got) == _rung_trace(want)
    for a, b in zip(got.history, want.history):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.residual, b.residual)
    assert np.array_equal(got.u, want.u) and np.array_equal(got.residual, want.residual)
    assert np.array_equal(got.z, want.z)
    assert (got.iterations, got.stop_reason, got.residual_norm) == (
        want.iterations, want.stop_reason, want.residual_norm)


def _rung_meshes(sol):
    return [h.u.size - 1 for h in sol.history]


def test_grid_sequencing_mesh_rule():
    assert solver._meshes(1199) == (1199,)
    assert solver._meshes(1200) == (300, 1200)
    assert solver._meshes(3999) == (999, 3999)
    assert solver._meshes(4000) == (1000, 4000)
    assert solver._meshes(20000) == (312, 1250, 5000, 20000)
    dom = DomainSpec("ball", 1, 1.0)
    sol = continuation_solve(ProblemSpec(dom, gamma=1.0, source=4.0), RadialGrid.uniform(dom, 2000))
    assert _rung_meshes(sol) == [500] * 13 + [2000]
    sol = continuation_solve(ProblemSpec(dom, gamma=1.0, source=4.0), RadialGrid.uniform(dom, 1000))
    assert _rung_meshes(sol) == [1000] * 13


def test_sequenced_batch_matches_single_solves():
    # at M = 4000 the ladder climbs M = 1000 first and solves the last rung
    # again at M; lam = 13 stalls at M = 1000 (rung 6), climbs the whole
    # ladder again at M from zero and stalls there at rung 3
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 4000)
    specs = [ProblemSpec(dom, gamma=1.0, source=lam) for lam in (2.0, 13.0)]
    done, stalled = continuation_solve(specs, grid)
    assert _rung_meshes(done) == [1000] * 13 + [4000]
    assert [h.state for h in done.history] == list(LADDER) + [LADDER[-1]]
    assert not stalled.converged and len(stalled.history) - 1 == 3
    assert _rung_meshes(stalled) == [4000] * 4
    # the fallback is the climb on the grid alone
    alone = solver._climb((specs[1],), LADDER, grid, np.zeros((1, 4001)))[0]
    assert not alone.converged and len(alone.history) - 1 == len(stalled.history) - 1
    _assert_same_climb(stalled, alone)
    for spec, got in zip(specs, (done, stalled)):
        want = continuation_solve(spec, grid)
        assert want.converged == got.converged and len(want.history) - 1 == len(got.history) - 1
        _assert_same_climb(got, want)


def test_whole_ladder_fallback_rescues_a_coarse_stall():
    # dim 1 at lam = 12 stalls at rung 4 on the 300-cell coarse mesh of
    # M = 1200; the whole ladder, climbed again on the 1200 cells from zero,
    # converges and passes
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 1200)
    spec = ProblemSpec(dom, gamma=1.0, source=12.0)
    coarse = solver._climb((spec,), LADDER, RadialGrid(1, 1.0, 300), np.zeros((1, 301)))[0]
    assert not coarse.converged and len(coarse.history) - 1 == 4
    sol = continuation_solve(spec, grid)
    assert _rung_meshes(sol) == [1200] * 13
    assert verify(sol, spec, grid, Tolerances.for_solver()).passed


# the rungs each finer mesh keeps at M = 20000: dim 2 at lam = 4 and dim 1 at
# lam = 6 solve the last rung alone on 1250, 5000 and 20000 cells
_SEQUENCED_MESHES = {
    (2, 4.0): [312] * 13 + [1250] + [5000] + [20000],
    (1, 6.0): [312] * 13 + [1250] + [5000] + [20000],
}


@pytest.mark.parametrize("dim, lam", [(2, 4.0), (1, 6.0)])
def test_sequenced_fine_mesh_converges_where_one_mesh_stalls(dim, lam):
    # climbed on 312, 1250 and 5000 cells first, these converge; on the
    # 20000-cell mesh alone they stalled (dim 2 at rung 7, dim 1 at rung 4)
    # until each rung started from the previous rung's core flux
    dom = DomainSpec("ball", dim, 1.0)
    grid = RadialGrid.uniform(dom, 20000)
    spec = ProblemSpec(dom, gamma=1.0, source=lam)
    sol = continuation_solve(spec, grid)
    assert _rung_meshes(sol) == _SEQUENCED_MESHES[dim, lam]
    assert verify(sol, spec, grid, Tolerances.for_solver()).passed
    assert float(np.max(np.abs(sol.u - profile(dim, lam, grid.nodes)))) <= 5e-5


@pytest.mark.parametrize("dim, lam", [(2, 4.0), (3, 5.0)])
def test_nested_iteration_solves_only_the_last_rung_on_the_fine_mesh(dim, lam):
    # the solve-fine tasks at M = 8000: 500 cells climb the whole ladder,
    # then 2000 and 8000 cells each solve the last rung alone from the
    # interpolated end state
    dom = DomainSpec("ball", dim, 1.0)
    grid = RadialGrid.uniform(dom, 8000)
    spec = ProblemSpec(dom, gamma=1.0, source=lam)
    sol = continuation_solve(spec, grid)
    assert _rung_meshes(sol) == [500] * 13 + [2000] + [8000]
    assert [h.state for h in sol.history[-2:]] == [LADDER[-1]] * 2
    assert all(h.iterations <= solver._NESTED_MAX_ITER for h in sol.history[-2:])
    assert verify(sol, spec, grid, Tolerances.for_solver()).passed


def _sequenced_start(coarse, fine, u):
    """A coarse end state interpolated onto the finer grid, as a (1, M+1)
    start with the boundary node exactly 0."""
    start = np.interp(fine.nodes, coarse.nodes, u)
    start[-1] = 0.0
    return start[None, :]


def test_failed_nested_attempts_keep_the_tail_climb():
    # dim 1 at lam = 4 keeps the last-rung attempt on 1250 and on 20000 cells
    # and fails it on 5000 cells, which then climb the deep tail from the
    # interpolated start, bit for bit as if no attempt had run
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 20000)
    last, tail = LADDER[-1:], solver._TAIL
    spec = ProblemSpec(dom, gamma=1.0, source=4.0)
    sol = continuation_solve(spec, grid)
    coarse = RadialGrid(1, 1.0, 312)
    want = solver._climb((spec,), LADDER, coarse, np.zeros((1, 313)))[0]
    history = want.history
    nested = (solver._NESTED_MAX_ITER, solver._NESTED_MAX_TRIALS)
    ladder = (solver._MAX_ITER, solver._MAX_TRIALS)
    for m, rungs, budget in ((1250, last, nested), (5000, tail, ladder), (20000, last, nested)):
        fine = RadialGrid(1, 1.0, m)
        want = solver._climb((spec,), rungs, fine, _sequenced_start(coarse, fine, want.u), *budget)[0]
        history += want.history
        coarse = fine
    _assert_same_climb(sol, replace(want, history=history))


def test_nested_attempt_outside_the_basin_stalls_at_its_first_step(monkeypatch):
    # interval lam = 4 at M = 20000 starts the 5000-cell last rung outside
    # Newton's basin: its first line search finds no decrease within
    # _NESTED_MAX_TRIALS trials, so the attempt stalls after one iteration
    # instead of spending _NESTED_MAX_ITER of them, and the tail climb runs
    # from the same interpolated start
    calls = []
    climb = solver._climb

    def recorded(specs, rungs, grid, u, *args):
        start = u.copy()
        out = climb(specs, rungs, grid, u, *args)
        calls.append((grid, rungs, start, out[0]))
        return out

    monkeypatch.setattr(solver, "_climb", recorded)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    sol = continuation_solve(spec, RadialGrid.uniform(INTERVAL, 20000))
    assert _rung_meshes(sol) == [312] * 13 + [1250] + [5000] * 5 + [20000]
    attempt, tail = [c for c in calls if c[0].mesh_size == 5000]
    assert not attempt[3].converged and attempt[1] == LADDER[-1:]
    assert attempt[3].stop_reason == "stalled" and attempt[3].iterations == 1
    assert attempt[3].residual_evals <= 1 + solver._NESTED_MAX_TRIALS
    coarse = next(c for c in calls if c[0].mesh_size == 1250)
    start = _sequenced_start(coarse[0], attempt[0], coarse[3].u)
    assert np.array_equal(attempt[2], start) and np.array_equal(tail[2], start)
    assert tail[1] == solver._TAIL
    _assert_same_climb(tail[3], climb((spec,), tail[1], tail[0], start)[0])


def test_nested_and_retried_strengths_batch_like_single_solves():
    # at M = 20000 lam = 2 keeps the last-rung attempts and lam = 3 retries
    # the tail on every finer mesh; in one batch each equals its own solve
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 20000)
    specs = [ProblemSpec(dom, gamma=1.0, source=lam) for lam in (2.0, 3.0)]
    batch = continuation_solve(specs, grid)
    assert [_rung_meshes(sol) for sol in batch] == [
        [312] * 13 + [1250] + [5000] + [20000], [312] * 13 + [1250] * 5 + [5000] * 5 + [20000] * 5]
    for spec, got in zip(specs, batch):
        _assert_same_climb(got, continuation_solve(spec, grid))


@pytest.mark.parametrize("lam, mesh", [(4.0, 200), (14.0, 500)])
def test_residual_evals_count_every_kernel_evaluation(monkeypatch, lam, mesh):
    # a converged and a stalled continuation: the rungs' residual_evals add
    # up to the kernel evaluations the continuation made
    calls = []
    evaluate = solver._Pieces.evaluate

    def counted(self, u):
        calls.append(len(u))
        return evaluate(self, u)

    monkeypatch.setattr(solver._Pieces, "evaluate", counted)
    dom = DomainSpec("ball", 1, 1.0)
    sol = continuation_solve(ProblemSpec(dom, gamma=1.0, source=lam), RadialGrid.uniform(dom, mesh))
    assert set(calls) == {1}
    assert sum(h.residual_evals for h in sol.history) == len(calls)
    # the first evaluation of each rung and one trial per accepted step at least
    assert all(h.residual_evals >= h.iterations + 1 for h in sol.history)


def test_newton_calls_the_assembly_through_the_module(monkeypatch):
    # the layer counters of perfbench wrap solver.assemble_residual and
    # solver.assemble_system: every line-search trial must reach the first,
    # and the first Jacobian of a rung and the one after every iteration the
    # second.  This continuation leaves its rungs on residual, stagnation
    # and float_floor.
    calls = {"assemble_residual": 0, "assemble_system": 0}

    def counted(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    counted("assemble_residual")
    counted("assemble_system")
    sol = continuation_solve(ProblemSpec(INTERVAL, gamma=1.0, source=4.0), RadialGrid.uniform(INTERVAL, 200))
    assert {h.stop_reason for h in sol.history} == {"residual", "stagnation", "float_floor"}
    assert calls["assemble_residual"] == sum(h.residual_evals - 1 for h in sol.history) == 59
    assert calls["assemble_system"] == sum(h.iterations + 1 for h in sol.history) == 67


def test_line_search_starts_from_the_last_accepted_step():
    # dim 1 at lam = 8 crawls at alpha ~ 2^-15 on its deep rungs; restarting
    # every search at alpha = 1 cost about six kernel evaluations per step
    dom = DomainSpec("ball", 1, 1.0)
    sol = continuation_solve(ProblemSpec(dom, gamma=1.0, source=8.0), RadialGrid.uniform(dom, 1000))
    iterations = sum(h.iterations for h in sol.history)
    assert sum(h.residual_evals for h in sol.history) <= 2 * iterations


def test_warm_start_carries_the_core_flux(monkeypatch):
    # dim 1 at lam = 4 on 1000 cells: the p = 1.01 rung starts at a max
    # residual of 3.8 from the p = 1.05 rung's core flux; from that rung's
    # state as it stood it started at 47.3.  Only the core moves: every node
    # from the first cell whose flux is saturated outward keeps its bits
    starts = []
    real = solver.newton_solve

    def recorded(specs, state, grid, u0, *args):
        starts.append((state, u0.copy()))
        return real(specs, state, grid, u0, *args)

    monkeypatch.setattr(solver, "newton_solve", recorded)
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 1000)
    spec = ProblemSpec(dom, gamma=1.0, source=4.0)
    sol = continuation_solve(spec, grid)
    k = [st.p for st in LADDER].index(1.01)
    state, start = starts[k]
    assert state == LADDER[k]
    assert float(np.abs(assemble_residual(spec, state, grid, start[0])).max()) < 5.0
    prev = sol.history[k - 1]
    edge = int(np.argmax(np.abs(prev.z) >= solver._SATURATED))
    assert 0 < edge < grid.mesh_size
    assert start[0, edge:].tobytes() == prev.u[edge:].tobytes()
    assert not np.array_equal(start[0, :edge], prev.u[:edge])


def test_sweep_coarse_newton_iterations(monkeypatch):
    # the three sweeps of the sweep-coarse benchmark, dims 1-3 with 8
    # strengths each on 1000 cells, take exactly this many batched Newton
    # iterations; from each rung's previous state as it stood they took 515
    iterations = []
    real = solver.newton_solve

    def counted(*args):
        batch = real(*args)
        iterations.append(batch.iterations)
        return batch

    monkeypatch.setattr(solver, "newton_solve", counted)
    for dim, lams in ((1, (1.5, 2, 3, 4, 5, 6, 7, 8)), (2, (2.5, 3, 4, 5, 6, 7, 8, 9)),
                      (3, (3.5, 4, 5, 6, 7, 8, 9, 10))):
        dom = DomainSpec("ball", dim, 1.0)
        specs = [ProblemSpec(dom, gamma=1.0, source=float(lam)) for lam in lams]
        sols = continuation_solve(specs, RadialGrid.uniform(dom, 1000))
        assert all(sol.converged for sol in sols)
    assert sum(iterations) == 290


def _envelope_strengths(dim):
    """The strengths of the declared envelope grid in dimension dim: both
    sides of the Cheeger threshold N."""
    return [0.5 * dim, 0.9 * dim, 1.1 * dim] + [dim + k for k in range(1, 11)]


def _envelope_batch(dim, mesh, radius=1.0):
    """The strengths lam R of the envelope grid in dimension dim, their
    problems on the ball of radius R, the grid of `mesh` cells and their
    solutions, solved as one batch: the source lam R / R has its lam R on the
    unit-ball list."""
    dom = DomainSpec("ball", dim, radius)
    grid = RadialGrid.uniform(dom, mesh)
    lams = _envelope_strengths(dim)
    specs = [ProblemSpec(dom, gamma=1.0, source=lam / radius) for lam in lams]
    return lams, specs, grid, continuation_solve(specs, grid)


@functools.cache
def _unit_ball_m1000(dim):
    """The unit-ball envelope batch on 1000 cells, solved once for the two
    gates that read it."""
    return _envelope_batch(dim, 1000)


def _certified(dim, mesh, radius=1.0):
    """The strengths lam R of the envelope batch (`_envelope_batch`) that
    converge and pass verify."""
    batch = _unit_ball_m1000(dim) if (mesh, radius) == (1000, 1.0) else _envelope_batch(dim, mesh, radius)
    lams, specs, grid, sols = batch
    certified = set()
    for lam, spec, sol in zip(lams, specs, sols):
        if sol.converged and verify(sol, spec, grid, Tolerances.for_solver()).passed:
            certified.add(lam)
    return certified


def _sup_error(dim, lam, grid, sol):
    """max |u - u_exact| over the nodes, against the closed form."""
    return float(np.abs(sol.u - profile(dim, lam, grid.nodes)).max())


# every point of the envelope grid must converge and pass verify: on the unit
# ball at M = 1000, 2000 and 4000 (M = 2000 and 4000 grid-sequenced from 500
# and 1000 cells), at M = 8000 (500, then 2000 and 8000 cells) and 20000 (312,
# then 1250, 5000 and 20000 cells), and on the ball of radius 2
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_m1000_keeps_its_certified_points(dim):
    assert _certified(dim, 1000) == set(_envelope_strengths(dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_m1000_median_sup_error(dim):
    # the median over lam = N+1 ... N+10 of the sup error against the closed
    # form reads 5.4e-6, 6.8e-6 and 5.8e-6 in dims 1-3.  verify cannot see an
    # odd-even slope mode that its centred slope does not read; this does:
    # solving in v = -log(1 - u) left one that read 1.55e-4 and 4.48e-4 in
    # dims 1 and 2
    lams, _, grid, sols = _unit_ball_m1000(dim)
    errors = [_sup_error(dim, lam, grid, sol) for lam, sol in zip(lams, sols) if lam >= dim + 1]
    assert len(errors) == 10
    assert np.median(errors) <= 2e-5


# (dim, lam) where the plateau edge N/lam falls inside a cell of both
# meshes, and where it falls on a node of both
_KINK_IN_A_CELL = {1: (3.0, 6.0), 2: (3.0,), 3: (7.0,)}
_KINK_ON_A_NODE = {1: (2.0, 4.0), 2: (5.0,), 3: (4.0, 6.0)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sup_error_converges_under_mesh_refinement(dim):
    # M = 1000 against M = 8000 (grid-sequenced from 500 and 2000 cells).
    # Where the kink sits inside a cell the error is first order in dr, and
    # the finer mesh reads 0.106-0.128 of the coarser one's; where it sits on
    # a node both read at most 2.14e-6
    dom = DomainSpec("ball", dim, 1.0)
    lams = _KINK_IN_A_CELL[dim] + _KINK_ON_A_NODE[dim]
    specs = [ProblemSpec(dom, gamma=1.0, source=lam) for lam in lams]
    errors = {}
    for mesh in (1000, 8000):
        grid = RadialGrid.uniform(dom, mesh)
        sols = continuation_solve(specs, grid)
        assert all(sol.converged for sol in sols)
        errors[mesh] = {lam: _sup_error(dim, lam, grid, sol) for lam, sol in zip(lams, sols)}
    for lam in _KINK_IN_A_CELL[dim]:
        assert errors[8000][lam] <= 0.25 * errors[1000][lam]
    for lam in _KINK_ON_A_NODE[dim]:
        assert errors[1000][lam] < 3e-6 and errors[8000][lam] < 3e-6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_m2000_keeps_its_certified_points(dim):
    assert _certified(dim, 2000) == set(_envelope_strengths(dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_m4000_keeps_its_certified_points(dim):
    assert _certified(dim, 4000) == set(_envelope_strengths(dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_m8000_keeps_its_certified_points(dim):
    assert _certified(dim, 8000) == set(_envelope_strengths(dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_envelope_m20000_keeps_its_certified_points(dim):
    assert _certified(dim, 20000) == set(_envelope_strengths(dim))


@pytest.mark.parametrize("mesh", [1000, 2000, 4000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radius_2_envelope_certifies_every_point(dim, mesh):
    assert _certified(dim, mesh, radius=2.0) == set(_envelope_strengths(dim))


def _tridiagonal(rng, m, pivoting):
    """A random banded (3, m) system that is diagonally dominant by rows.
    With `pivoting`, every even column's sub-diagonal entry outgrows its
    diagonal one, so gtsv swaps rows there; otherwise it never does."""
    sign = rng.choice([-1.0, 1.0], (3, m))
    ab = rng.uniform(-1.0, 1.0, (3, m))
    if pivoting:
        ab[0] *= 0.1
        ab[1, 0::2] = rng.uniform(0.5, 1.0, ab[1, 0::2].size)
        ab[1, 1::2] = rng.uniform(8.0, 12.0, ab[1, 1::2].size)
        ab[2, 0::2] = rng.uniform(1.5, 2.5, ab[2, 0::2].size)
        ab[2, 1::2] *= 0.3
        ab[1:] *= sign[1:]
    else:
        ab[1] += 3.0 * sign[1]
    return ab


@pytest.mark.parametrize("pivoting", [False, True])
@pytest.mark.parametrize("m", [8, 1000, 20000])
def test_solve_banded_matches_scipy_bitwise(m, pivoting):
    from scipy.linalg import solve_banded as scipy_solve_banded
    from scipy.linalg.lapack import dgtsv

    rng = np.random.default_rng(m + pivoting)
    ab = _tridiagonal(rng, m, pivoting)
    b = rng.standard_normal(m)
    # gtsv leaves the second super-diagonal of U in its first m-2 entries,
    # nonzero only where it swapped rows
    du2 = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[0][:-1]
    assert np.count_nonzero(du2) == (m // 2 - 1 if pivoting else 0)
    want = scipy_solve_banded((1, 1), ab, b)
    kept = ab.copy()
    got = solver.solve_banded(ab, b)
    assert got.tobytes() == want.tobytes()
    assert ab.tobytes() == kept.tobytes()  # the one-block-at-a-time fallback reuses ab

    # K = 3 stacked blocks with zero coupling: the stacked solve equals
    # scipy's and, block by block, each block's own solve
    blocks = np.concatenate([_tridiagonal(rng, m, pivoting) for _ in range(3)], axis=1)
    blocks[0, ::m] = 0.0  # super-diagonal entries that reach into the block above
    blocks[2, m - 1::m] = 0.0  # sub-diagonal entries that reach into the block below
    rhs = rng.standard_normal(3 * m)
    want = scipy_solve_banded((1, 1), blocks, rhs)
    got = solver.solve_banded(blocks, rhs)
    assert got.tobytes() == want.tobytes()
    for j in range(3):
        one = solver.solve_banded(blocks[:, j * m:(j + 1) * m], rhs[j * m:(j + 1) * m])
        assert one.tobytes() == got[j * m:(j + 1) * m].tobytes()


def test_solve_banded_rejects_a_singular_system():
    ab = np.ones((3, 8))
    ab[:, 3] = 0.0  # a zero column
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solver.solve_banded(ab, np.ones(8))


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_batched_newton_drops_a_broken_strength_alone(monkeypatch, failure):
    # the fake solve breaks the lam = 3 block at the zero start (right-hand
    # side -residual = lam there): it refuses any system holding that block,
    # or returns NaN in it; the stacked solve then falls back to one block
    # at a time and only that strength fails, on its zero start, as a stall
    # fails: its solution is not converged and its stop reason names the cause
    grid = RadialGrid.uniform(INTERVAL, 64)
    st = _state()
    specs = [ProblemSpec(INTERVAL, gamma=1.0, source=lam) for lam in (2.0, 3.0, 4.0)]
    real = solver.solve_banded

    def fake(ab, b):
        bad = b.reshape(-1, 64)[:, 0] == 3.0
        if bad.any() and failure == "singular":
            raise np.linalg.LinAlgError("singular matrix")
        x = real(ab, b).reshape(-1, 64)
        x[bad] = np.nan
        return x.ravel()

    monkeypatch.setattr(solver, "solve_banded", fake)
    batch = newton_solve(specs, st, grid, np.zeros((3, 65)))
    reason, cause = {"singular": ("singular", "singular Jacobian"),
                     "non-finite": ("non_finite", "non-finite Newton step")}[failure]
    last = batch.results[1]
    assert not last.converged
    assert last.failure == f"{cause} at residual 3.000e+00 (p=1.2, n=100, eps=0.0001)"
    assert (last.stop_reason, last.converged, last.iterations, last.residual_evals) == (reason, False, 0, 1)
    assert last.u.tobytes() == np.zeros(65).tobytes()
    assert last.residual.tobytes() == assemble_residual(specs[1], st, grid, np.zeros(65)).tobytes()
    for k in (0, 2):
        want = newton_solve(specs[k], st, grid, np.zeros(65))
        assert np.array_equal(batch.results[k].u, want.u)
        assert batch.results[k].iterations == want.iterations
    assert batch.iterations == max(batch.results[k].iterations for k in (0, 2))
    failed = continuation_solve(specs[1], grid)
    # the same break at the ladder's rung 0
    assert not failed.converged and len(failed.history) - 1 == 0
    assert failed.failure == f"{cause} at residual 3.000e+00 (p=1.5, n=100, eps=0.001)"
    assert [h.stop_reason for h in failed.history] == [reason]


def test_batched_newton_out_of_iterations_next_to_an_immediate_solve():
    # lam = 0 converges at iteration 0 while lam = 4 runs out of max_iter;
    # each must come out of the batch exactly as from its own solve
    grid = RadialGrid.uniform(INTERVAL, 64)
    st = _state()
    specs = [ProblemSpec(INTERVAL, gamma=1.0, source=lam) for lam in (0.0, 4.0)]
    batch = newton_solve(specs, st, grid, np.zeros((2, 65)), max_iter=3)
    done, stalled = batch.results
    assert batch.iterations == 3
    want = newton_solve(specs[0], st, grid, np.zeros(65), max_iter=3)
    alone = newton_solve(specs[1], st, grid, np.zeros(65), max_iter=3)
    assert not alone.converged and not stalled.converged and stalled.failure == alone.failure
    assert done.converged and done.iterations == 0 and done.failure is None
    assert (stalled.iterations, stalled.stop_reason, stalled.converged) == (3, "stalled", False)
    for got, ref in ((done, want), (stalled, alone)):
        assert got.u.tobytes() == ref.u.tobytes() and got.z.tobytes() == ref.z.tobytes()
        assert got.residual.tobytes() == ref.residual.tobytes()
        assert (got.iterations, got.stop_reason, got.residual_norm) == (
            ref.iterations, ref.stop_reason, ref.residual_norm)


@pytest.mark.parametrize("lams", [(4.0,), (0.5, 3.0, 4.0)])
def test_jacobian_from_accepted_trials_matches_fresh_assembly(monkeypatch, lams):
    # after the first, every Jacobian of the iteration is built from the
    # pieces its accepted line-search trials kept; each must equal, bit for
    # bit, the residual and Jacobian assembled afresh at the same states.
    # With three strengths, lam = 0.5 finishes at iteration 5 of 8 and some
    # line searches accept the strengths in different trials.
    grid = RadialGrid.uniform(INTERVAL, 200)
    st = _state(p=1.1, n=1000, eps=1e-2)
    specs = [ProblemSpec(INTERVAL, gamma=1.0, source=lam) for lam in lams]
    real_system = solver.assemble_system
    real_accept = solver._Pieces.accept
    rows, partial = [], []

    def checked(spec, state, grid, u, pieces=None):
        assert pieces is not None
        got = real_system(spec, state, grid, u, pieces=pieces)
        want = real_system(spec, state, grid, u)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        rows.append(len(u))
        return got

    def accept(self, trial, at, ok):
        partial.append(not ok.all() or at.size < len(self.residual))
        return real_accept(self, trial, at, ok)

    monkeypatch.setattr(solver, "assemble_system", checked)
    monkeypatch.setattr(solver._Pieces, "accept", accept)
    batch = newton_solve(specs, st, grid, np.zeros((len(lams), 201)))
    its = [sol.iterations for sol in batch.results]
    assert all(sol.converged for sol in batch.results)
    assert len(rows) == max(its) + 1
    if len(lams) == 3:
        assert its == [5, 8, 8]
        assert rows[0] == 3 and rows[-1] == 2
        assert any(partial)


def test_batch_rejects_mixed_exponents_and_bad_shapes():
    grid = RadialGrid.uniform(INTERVAL, 64)
    specs = [ProblemSpec(INTERVAL, gamma=1.0, source=2.0), ProblemSpec(INTERVAL, gamma=2.0, source=2.0)]
    with pytest.raises(ValueError, match="singular exponent"):
        assemble_residual(specs, _state(), grid, np.zeros((2, 65)))
    with pytest.raises(ValueError, match="shape"):
        assemble_residual(specs[:1], _state(), grid, np.zeros(65))
    with pytest.raises(ValueError, match="at least one problem"):
        newton_solve([], _state(), grid, np.zeros((0, 65)))


def test_solve_problem_front_door():
    # one ProblemSpec in, one solution out: the K = 1 batch, unwrapped
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    grid = RadialGrid.uniform(INTERVAL, 200)
    sol = continuation_solve(spec, grid)
    assert sol.converged and 0.9 < float(np.max(sol.u)) < 1.0
    (batched,) = continuation_solve([spec], grid)
    _assert_same_climb(sol, batched)


# ------------------------------------------------------------ diagnostics

def test_plateau_extent_on_interpolants():
    grid = RadialGrid.uniform(INTERVAL, 400)
    u = profile(1, 4.0, grid.nodes)
    assert plateau_extent(grid, u) == pytest.approx(0.25, abs=1.5 * grid.spacing)
    assert plateau_extent(grid, np.zeros(401)) == 1.0


def test_gradient_mass_of_linear_ramp():
    grid = RadialGrid.uniform(INTERVAL, 200)
    u = 1.0 - grid.nodes
    for p in (1.1, 1.5, 2.0):
        # |u'| = 1, interval surface factor 2: mass = 2 * R
        assert gradient_mass(grid, u, p) == pytest.approx(2.0, rel=1e-12)


def test_apriori_bounds_on_converged_rung():
    grid = RadialGrid.uniform(INTERVAL, 500)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    st = RegularizationState(p=1.2, n=100, eps=1e-4)
    sol = newton_solve(spec, st, grid, np.zeros(501))
    rep = apriori_bounds_report(spec, st, grid, sol.u)
    assert rep.source_mass == pytest.approx(8.0, rel=1e-13)  # 4 * |(-1,1)|
    assert rep.gradient_bound_ok and rep.absorption_bound_ok
    assert rep.gradient_mass < rep.source_mass
    assert rep.absorption_mass < rep.source_mass
