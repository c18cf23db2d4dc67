"""Discretization, Newton iteration, and the continuation driver."""

import numpy as np
import pytest

from onelap import solver
from onelap.oracle import profile
from onelap.solver import (
    ContinuationSchedule,
    DomainSpec,
    NonConvergence,
    SingularJacobian,
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
    reconstruct_flux,
    schedule_preset,
)

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


def test_regularization_state_validation():
    with pytest.raises(ValueError):
        _state(p=1.0)
    with pytest.raises(ValueError):
        _state(n=0)
    with pytest.raises(ValueError):
        _state(eps=0.0)
    with pytest.raises(ValueError):
        RadialGrid.uniform(INTERVAL, 4)


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


def test_schedule_validation():
    good = _state(p=1.4)
    with pytest.raises(ValueError):
        ContinuationSchedule(())
    with pytest.raises(ValueError):
        ContinuationSchedule((good, _state(p=1.4)))  # p must drop
    with pytest.raises(ValueError):
        ContinuationSchedule((good, _state(p=1.2, n=50)))  # n drops
    with pytest.raises(ValueError):
        ContinuationSchedule((good, _state(p=1.2, eps=1e-3)))  # eps grows


def test_schedule_presets():
    sched = schedule_preset("default")
    ps = [st.p for st in sched.states]
    assert len(ps) == 13
    assert ps[0] == 1.5 and ps[-1] == 1.000001
    assert all(b < a for a, b in zip(ps, ps[1:]))
    assert all(st.eps >= 1e-8 for st in sched.states)
    assert len(schedule_preset("tight").states) == 15
    assert len(schedule_preset("fast").states) < 13
    with pytest.raises(ValueError):
        schedule_preset("bogus")


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
    z = reconstruct_flux(st, grid, u)
    d = np.diff(u) / grid.spacing
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
    grid = RadialGrid.uniform(INTERVAL, 64)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    sched = ContinuationSchedule((_state(p=1.4),), max_iter=1)
    with pytest.raises(NonConvergence) as info:
        continuation_solve(spec, sched, grid)
    assert info.value.rung == 0
    assert info.value.last is not None and not info.value.last.converged


def test_continuation_history_and_fast_preset():
    grid = RadialGrid.uniform(INTERVAL, 400)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    schedule = schedule_preset("fast")
    sol = continuation_solve(spec, schedule, grid)
    assert sol.converged
    assert len(sol.history) == len(schedule.states)
    assert [h.state for h in sol.history] == list(schedule.states)
    sups = [float(np.max(np.abs(h.u))) for h in sol.history]
    assert sups[-1] == pytest.approx(float(np.max(sol.u)), rel=1e-12)
    # the quick-look preset stops at eps = 1e-6, where the slope-floor
    # detector still underestimates the flat core; only the height is firm
    assert sups[-1] == pytest.approx(1.0 - np.exp(-3.0), abs=5e-3)
    assert 0.0 <= plateau_extent(grid, sol.history[-1].u) <= 0.26


def test_trivial_regime_collapses_to_dust():
    grid = RadialGrid.uniform(INTERVAL, 500)
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=0.5)
    sol = continuation_solve(spec, schedule_preset("default"), grid)
    assert float(np.max(np.abs(sol.u))) <= 1e-6
    assert plateau_extent(grid, sol.history[-1].u) == 1.0


def _rung_trace(sol):
    return [(h.state, h.iterations, h.stop_reason, h.residual_norm, float(np.max(np.abs(h.u))))
            for h in sol.history]


def test_batched_continuation_matches_single_solves():
    # one strength on the trivial branch, one converging, one that stalls at
    # rung 8 after max_iter iterations: each must come out of the batch
    # exactly as it comes out of its own solve
    dom = DomainSpec("ball", 1, 1.0)
    grid = RadialGrid.uniform(dom, 500)
    sched = schedule_preset("default")
    specs = [ProblemSpec(dom, gamma=1.0, source=lam) for lam in (0.5, 4.0, 6.0)]
    batch = continuation_solve(specs, sched, grid)
    assert len(batch) == 3
    for spec, got in zip(specs, batch):
        try:
            want = continuation_solve(spec, sched, grid)
        except NonConvergence as exc:
            assert spec.source == 6.0
            assert isinstance(got, NonConvergence) and got.rung == exc.rung == 8
            got, want = got.last, exc.last
            # the rungs climbed, then the stalled one
            assert len(got.history) == 9 and got.history[-1].stop_reason == "stalled"
        else:
            assert len(got.history) == len(sched.states)
        assert _rung_trace(got) == _rung_trace(want)
        for a, b in zip(got.history, want.history):
            assert np.array_equal(a.u, b.u) and np.array_equal(a.residual, b.residual)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.residual, want.residual)
        assert np.array_equal(got.z, want.z)
        assert (got.iterations, got.stop_reason, got.residual_norm) == (
            want.iterations, want.stop_reason, want.residual_norm)


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
    got = solver.solve_banded((1, 1), ab, b)
    assert got.tobytes() == want.tobytes()
    assert ab.tobytes() == kept.tobytes()  # the one-block-at-a-time fallback reuses ab

    # K = 3 stacked blocks with zero coupling: the stacked solve equals
    # scipy's and, block by block, each block's own solve
    blocks = np.concatenate([_tridiagonal(rng, m, pivoting) for _ in range(3)], axis=1)
    blocks[0, ::m] = 0.0  # super-diagonal entries that reach into the block above
    blocks[2, m - 1::m] = 0.0  # sub-diagonal entries that reach into the block below
    rhs = rng.standard_normal(3 * m)
    want = scipy_solve_banded((1, 1), blocks, rhs)
    got = solver.solve_banded((1, 1), blocks, rhs)
    assert got.tobytes() == want.tobytes()
    for j in range(3):
        one = solver.solve_banded((1, 1), blocks[:, j * m:(j + 1) * m], rhs[j * m:(j + 1) * m])
        assert one.tobytes() == got[j * m:(j + 1) * m].tobytes()


def test_solve_banded_rejects_singular_and_non_tridiagonal_systems():
    ab = np.ones((3, 8))
    ab[:, 3] = 0.0  # a zero column
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solver.solve_banded((1, 1), ab, np.ones(8))
    with pytest.raises(ValueError, match="tridiagonal"):
        solver.solve_banded((2, 1), np.ones((4, 8)), np.ones(8))


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_batched_newton_drops_a_broken_strength_alone(monkeypatch, failure):
    # the fake solve breaks the lam = 3 block at the zero start (right-hand
    # side -residual = lam there): it refuses any system holding that block,
    # or returns NaN in it; the stacked solve then falls back to one block
    # at a time and only that strength fails
    grid = RadialGrid.uniform(INTERVAL, 64)
    st = _state()
    specs = [ProblemSpec(INTERVAL, gamma=1.0, source=lam) for lam in (2.0, 3.0, 4.0)]
    real = solver.solve_banded

    def fake(lu, ab, b):
        bad = b.reshape(-1, 64)[:, 0] == 3.0
        if bad.any() and failure == "singular":
            raise np.linalg.LinAlgError("singular matrix")
        x = real(lu, ab, b).reshape(-1, 64)
        x[bad] = np.nan
        return x.ravel()

    monkeypatch.setattr(solver, "solve_banded", fake)
    batch = newton_solve(specs, st, grid, np.zeros((3, 65)))
    assert isinstance(batch.results[1], SingularJacobian)
    assert str(batch.results[1]) == {"singular": "singular matrix", "non-finite": "non-finite Newton step"}[failure]
    for k in (0, 2):
        want = newton_solve(specs[k], st, grid, np.zeros(65))
        assert np.array_equal(batch.results[k].u, want.u)
        assert batch.results[k].iterations == want.iterations
    assert batch.iterations == max(batch.results[k].iterations for k in (0, 2))
    with pytest.raises(SingularJacobian) as info:
        continuation_solve(specs[1], ContinuationSchedule((st,)), grid)
    assert info.value.rung == 0


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
    with pytest.raises(NonConvergence) as info:
        newton_solve(specs[1], st, grid, np.zeros(65), max_iter=3)
    assert isinstance(stalled, NonConvergence) and str(stalled) == str(info.value)
    assert done.converged and done.iterations == 0
    assert (stalled.last.iterations, stalled.last.stop_reason, stalled.last.converged) == (3, "stalled", False)
    for got, ref in ((done, want), (stalled.last, info.value.last)):
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


def test_solve_problem_front_door():
    spec = ProblemSpec(INTERVAL, gamma=1.0, source=4.0)
    sol = continuation_solve(spec, schedule_preset("fast"), RadialGrid.uniform(INTERVAL, 400))
    assert sol.converged and 0.9 < float(np.max(sol.u)) < 1.0


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
