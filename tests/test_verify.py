"""Clause-by-clause certificate checks, calibrated on closed-form candidates.

Sampling the explicit solutions gives candidates whose every defect is pure
discretization, so the numbers here are frozen tightly: the integrated flux
balance, the moving-region residual, and the energy gap are second order in
the spacing, while the headline residual is first order (one kink row).
"""

import importlib
import math

import numpy as np
import pytest
from pytest import approx

from onelap.geometry import DomainSpec
from onelap.solver import ProblemSpec, RadialGrid, RegularizationState
from onelap.verify import (
    GridMismatch,
    LogSubstitutionReport,
    Tolerances,
    energy_identity_check,
    level_set_decay_check,
    logsub_cheeger_check,
    pointwise_residual,
    sampled_explicit,
    sampled_trivial,
    verify,
)


def make_problem(dim: int, lam: float):
    dom = DomainSpec("interval" if dim == 1 else "ball", dim)
    return ProblemSpec(dom, gamma=1.0, source=float(lam)), dom


# measured at M = 8000; the kink row owns the headline residual, everything
# else sits at second order
FROZEN = {
    (1, 2): dict(eq=1.250104e-04, eqm=2.083542e-08, fb=2.604036e-08, en=1.370896e-08),
    (1, 4): dict(eq=5.000833e-04, eqm=1.666759e-07, fb=1.874896e-07, en=4.826537e-08),
    (2, 4): dict(eq=1.250208e-04, eqm=8.853497e-08, fb=3.550367e-08, en=2.227305e-08),
    (3, 5): dict(eq=8.681762e-05, eqm=1.041515e-07, fb=2.446231e-08, en=2.087092e-08),
}


@pytest.mark.parametrize("dim,lam", sorted(FROZEN))
def test_explicit_candidate_defects_frozen(dim, lam):
    spec, dom = make_problem(dim, lam)
    grid = RadialGrid.uniform(dom, 8000)
    rep = verify(sampled_explicit(grid, lam), spec, grid)
    want = FROZEN[(dim, lam)]
    assert rep.equation_residual == approx(want["eq"], rel=1e-3)
    assert rep.equation_residual_moving == approx(want["eqm"], rel=1e-3)
    assert rep.flux_balance_defect == approx(want["fb"], rel=1e-3)
    assert rep.energy_gap == approx(want["en"], rel=1e-3)
    assert rep.passed


@pytest.mark.parametrize("dim,lam", sorted(FROZEN))
def test_explicit_candidate_clause_values(dim, lam):
    spec, dom = make_problem(dim, lam)
    grid = RadialGrid.uniform(dom, 2000)
    rep = verify(sampled_explicit(grid, lam), spec, grid)
    # the certifying flux is -1 exactly wherever the state moves, and the
    # free boundary dim/lam lands on a grid node for every pair above, so
    # the pairing defect vanishes identically
    assert rep.field_bound_defect == 0.0
    assert rep.pairing_defect == 0.0
    assert rep.trace_value == 0.0
    assert rep.max_jump < 2.5 * lam * grid.spacing
    assert rep.plateau_radius_estimate == approx(dim / lam, abs=2 * grid.spacing)
    assert rep.verdicts["equation"] and rep.verdicts["energy"]
    assert rep.log_substitution is not None and rep.log_substitution.holds


def test_headline_residual_is_first_order():
    spec, dom = make_problem(1, 4)
    eq = {}
    for M in (2000, 4000):
        grid = RadialGrid.uniform(dom, M)
        eq[M] = verify(sampled_explicit(grid, 4.0), spec, grid).equation_residual
    assert eq[2000] / eq[4000] == approx(2.0, abs=0.2)


def test_interior_defects_are_second_order():
    spec, dom = make_problem(3, 5)
    reps = {}
    for M in (2000, 4000):
        grid = RadialGrid.uniform(dom, M)
        reps[M] = verify(sampled_explicit(grid, 5.0), spec, grid)
    for field in ("equation_residual_moving", "flux_balance_defect", "energy_gap"):
        ratio = getattr(reps[2000], field) / getattr(reps[4000], field)
        assert ratio == approx(4.0, abs=0.5), field


@pytest.mark.parametrize(
    "dim,lam,mesh", [(1, 0.7, 2000), (2, 2.0, 1000), (3, 0.0, 500)]
)
def test_trivial_candidate_certifies(dim, lam, mesh):
    spec, dom = make_problem(dim, lam)
    grid = RadialGrid.uniform(dom, mesh)
    rep = verify(sampled_trivial(grid, lam), spec, grid)
    assert rep.equation_residual <= 1e-12
    assert rep.flux_balance_defect <= 1e-12
    assert rep.field_bound_defect == 0.0
    assert rep.pairing_defect == 0.0
    assert rep.energy_gap == 0.0
    assert rep.passed


def test_zero_state_without_certifying_flux_fails():
    # dropping the linear flux leaves nothing to balance the source: every
    # row reads -lam and the verdict must say so
    spec, dom = make_problem(1, 4)
    grid = RadialGrid.uniform(dom, 100)
    u = np.zeros(grid.mesh_size + 1)
    z = np.zeros(grid.mesh_size)
    rep = verify((u, z), spec, grid)
    assert rep.equation_residual == 4.0
    assert rep.flux_balance_defect == approx(4.0 * (1.0 - grid.spacing / 2), rel=1e-12)
    assert not rep.verdicts["equation"]
    assert not rep.passed


def test_tolerances_govern_the_verdict():
    spec, dom = make_problem(1, 4)
    grid = RadialGrid.uniform(dom, 100)
    candidate = (np.zeros(grid.mesh_size + 1), np.zeros(grid.mesh_size))
    assert not verify(candidate, spec, grid).passed
    slack = Tolerances(equation=10.0)
    assert verify(candidate, spec, grid, tol=slack).passed


def test_solver_tolerances_relax_equation_and_energy():
    base = Tolerances()
    assert base.field_bound == 2e-3 and base.equation == 2e-3
    assert base.trace == 1e-12 and base.energy == 1e-3
    relaxed = Tolerances.for_solver()
    assert relaxed.equation == 1e-2 and relaxed.energy == 2e-2
    assert relaxed.field_bound == base.field_bound
    assert relaxed.trace == base.trace


def test_state_touching_one_is_rejected_not_crashed():
    spec, dom = make_problem(2, 4)
    grid = RadialGrid.uniform(dom, 50)
    u = np.full(grid.mesh_size + 1, 1.01)
    z = np.zeros(grid.mesh_size)
    rep = verify((u, z), spec, grid)
    assert math.isinf(rep.flux_balance_defect)
    assert rep.energy_gap is None and rep.log_substitution is None
    assert not rep.verdicts["equation"] and not rep.verdicts["trace"]
    assert not rep.passed


def test_domain_grid_mismatch_raises():
    spec, _ = make_problem(2, 4)
    other = RadialGrid.uniform(DomainSpec("ball", 3), 100)
    with pytest.raises(GridMismatch):
        verify(sampled_trivial(other, 1.0), spec, other)


def test_candidate_shape_mismatch_raises():
    spec, dom = make_problem(2, 4)
    grid = RadialGrid.uniform(dom, 100)
    u, z = sampled_explicit(grid, 4.0)
    with pytest.raises(GridMismatch):
        verify((u[:-1], z), spec, grid)
    with pytest.raises(GridMismatch):
        verify((u, z[:-1]), spec, grid)


def test_pointwise_residual_shape_and_trivial_value():
    spec, dom = make_problem(2, 1.5)
    grid = RadialGrid.uniform(dom, 300)
    res = pointwise_residual(sampled_trivial(grid, 1.5), spec, grid)
    assert res.shape == (grid.mesh_size,)
    assert np.max(np.abs(res)) <= 1e-12


def test_energy_identity_on_closed_form():
    spec, dom = make_problem(2, 4)
    grid = RadialGrid.uniform(dom, 2000)
    gap = energy_identity_check(sampled_explicit(grid, 4.0), spec, grid)
    assert gap <= 1e-5


def test_energy_identity_guards():
    dom = DomainSpec("ball", 2)
    grid = RadialGrid.uniform(dom, 50)
    candidate = sampled_trivial(grid, 1.0)
    with pytest.raises(ValueError, match="gamma = 1"):
        energy_identity_check(candidate, ProblemSpec(dom, gamma=2.0, source=1.0), grid)
    ramp = ProblemSpec(dom, gamma=1.0, source=lambda r: 1.0 + r)
    with pytest.raises(ValueError, match="constant source"):
        energy_identity_check(candidate, ramp, grid)
    hot = (np.ones(grid.mesh_size + 1), np.zeros(grid.mesh_size))
    with pytest.raises(ValueError, match="below 1"):
        energy_identity_check(hot, ProblemSpec(dom, gamma=1.0, source=1.0), grid)


def test_energy_identity_zero_floor():
    spec, dom = make_problem(2, 1.0)
    grid = RadialGrid.uniform(dom, 50)
    u = 1e-8 * np.sin(np.pi * grid.nodes) ** 2
    z = np.zeros(grid.mesh_size)
    assert energy_identity_check((u, z), spec, grid) == 0.0


def test_log_substitution_matches_hand_integrals():
    # dim 1, lam 4: v = -log(1-u) is 3 on the plateau and 4(1-r) outside,
    # so h int v = 2 * 1.875 and lam int u = 8 * 0.75
    spec, dom = make_problem(1, 4)
    grid = RadialGrid.uniform(dom, 2000)
    rep = logsub_cheeger_check(sampled_explicit(grid, 4.0), spec, grid)
    assert rep.lhs == approx(3.75, rel=1e-5)
    assert rep.rhs == approx(6.0, rel=1e-5)
    assert rep.holds and rep.pointwise_ok


def test_log_substitution_zero_floor():
    spec, dom = make_problem(2, 1.0)
    grid = RadialGrid.uniform(dom, 50)
    u = 1e-8 * np.sin(np.pi * grid.nodes) ** 2
    rep = logsub_cheeger_check((u, np.zeros(grid.mesh_size)), spec, grid)
    assert rep == LogSubstitutionReport(lhs=0.0, rhs=0.0, holds=True, pointwise_ok=True)


def test_level_set_decay_on_closed_form():
    spec, dom = make_problem(2, 4)
    grid = RadialGrid.uniform(dom, 1000)
    candidate = sampled_explicit(grid, 4.0)
    for p in (1.5, 1.1):
        state = RegularizationState(p=p, n=100, eps=1e-6)
        records = level_set_decay_check(candidate, state, spec, grid)
        assert len(records) == 9
        assert all(r.holds for r in records)
        levels = [r.level for r in records]
        assert levels == sorted(levels)
        tails = [r.tail_mass for r in records]
        assert tails == sorted(tails, reverse=True)
        measures = [r.superlevel_measure for r in records]
        assert measures == sorted(measures, reverse=True)


def test_level_set_decay_guards():
    spec1, dom1 = make_problem(1, 4)
    grid1 = RadialGrid.uniform(dom1, 200)
    state = RegularizationState(p=1.5, n=100, eps=1e-6)
    with pytest.raises(ValueError, match="dimension"):
        level_set_decay_check(sampled_explicit(grid1, 4.0), state, spec1, grid1)
    spec2, dom2 = make_problem(2, 4)
    grid2 = RadialGrid.uniform(dom2, 200)
    candidate = sampled_explicit(grid2, 4.0)
    for p in (2.0, 2.5):
        bad = RegularizationState(p=p, n=100, eps=1e-6)
        with pytest.raises(ValueError, match="1 < p < dim"):
            level_set_decay_check(candidate, bad, spec2, grid2)


def test_level_set_decay_dust_is_vacuous():
    # states below ten times the smoothing width stand for zero: the decay
    # coefficient collapses doubly exponentially as p drops while trivial
    # branch dust shrinks only linearly in eps
    spec, dom = make_problem(2, 1.0)
    grid = RadialGrid.uniform(dom, 200)
    state = RegularizationState(p=1.05, n=100, eps=1e-3)
    dust = 5e-4 * np.sin(np.pi * grid.nodes) ** 2
    z = np.zeros(grid.mesh_size)
    assert level_set_decay_check((dust, z), state, spec, grid) == ()
    live = 0.3 * np.sin(np.pi * grid.nodes) ** 2
    assert len(level_set_decay_check((live, z), state, spec, grid)) == 9


def test_sampled_candidates_need_the_unit_ball():
    wide = RadialGrid.uniform(DomainSpec("ball", 2, radius=2.0), 100)
    with pytest.raises(ValueError, match="unit ball"):
        sampled_explicit(wide, 4.0)
    with pytest.raises(ValueError, match="unit ball"):
        sampled_trivial(wide, 1.0)
    grid = RadialGrid.uniform(DomainSpec("ball", 2), 100)
    u, z = sampled_explicit(grid, 4.0)
    assert u.shape == (101,) and z.shape == (100,)


def test_import_of_the_verify_module_yields_the_module():
    # the package holds no re-exports, so the function `verify` cannot
    # shadow the submodule of the same name
    module = importlib.import_module("onelap.verify")
    import onelap.verify

    assert onelap.verify is module
    assert onelap.verify.Tolerances is Tolerances
