"""Closed-form reference solutions on the unit ball."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from onelap import cli, io
from onelap.oracle import (
    ExplicitSolution,
    flux,
    plateau_height,
    profile,
    trivial_flux,
)


def test_profile_reference_points():
    assert profile(1, 2.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    assert profile(2, 4.0, 0.0) == pytest.approx(1.0 - 2.0 * math.exp(-2.0), rel=1e-15)
    assert profile(2, 4.0, 1.0) == 0.0


def test_profile_regime_and_radius_validation():
    with pytest.raises(ValueError):
        profile(2, 2.0, 0.5)  # strength at the threshold is still trivial
    with pytest.raises(ValueError):
        profile(1, 4.0, -0.1)
    with pytest.raises(ValueError):
        profile(1, 4.0, 1.2)


def test_flux_reference_points():
    assert flux(2, 4.0, 0.0) == 0.0
    assert flux(2, 4.0, 0.5) == -1.0
    assert flux(1, 2.0, 0.25) == pytest.approx(-0.5, rel=1e-15)


def test_trivial_flux_reference_points():
    assert trivial_flux(2, 2.0, 1.0) == -1.0
    assert trivial_flux(3, 1.0, 0.6) == pytest.approx(-0.2, rel=1e-15)
    assert trivial_flux(1, 0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        trivial_flux(2, 3.0, 0.5)


@pytest.mark.parametrize("dim,lam", [(1, 2.0), (1, 8.0), (2, 4.0), (3, 5.0), (4, 9.5)])
def test_branches_meet_at_the_free_boundary(dim, lam):
    rstar = dim / lam
    core = 1.0 - (lam / dim) ** (dim - 1) * math.exp(dim - lam)
    outer = 1.0 - rstar ** (-(dim - 1)) * math.exp(lam * (rstar - 1.0))
    assert core == pytest.approx(outer, rel=1e-12)
    assert flux(dim, lam, rstar) == pytest.approx(-1.0, rel=1e-12)
    assert profile(dim, lam, rstar) == pytest.approx(core, rel=1e-15)


@pytest.mark.parametrize("dim,lam", [(1, 4.0), (2, 6.0), (3, 7.5)])
def test_profile_monotone_bounded_below_one(dim, lam):
    r = np.linspace(0.0, 1.0, 2001)
    u = profile(dim, lam, r)
    assert np.all(np.diff(u) <= 1e-15)
    gap = (lam / dim) ** (dim - 1) * math.exp(dim - lam)
    assert np.all(u <= 1.0 - gap + 1e-15)
    assert np.all(u >= 0.0)
    z = flux(dim, lam, r)
    assert np.all(np.abs(z) <= 1.0)


@pytest.mark.parametrize("dim,lam", [(1, 3.0), (2, 4.0), (3, 6.0)])
def test_moving_region_satisfies_the_equation(dim, lam):
    # on the moving region the saturated flux has radial divergence -(N-1)/r,
    # so the equation reads (N-1)/r + |u'|/(1-u) = lam; differentiate the
    # outer branch by complex step, which is exact to machine precision
    rstar = dim / lam
    rs = np.linspace(rstar + 0.01, 0.999, 57)
    h = 1e-30

    def outer(r):
        return 1.0 - r ** (-(dim - 1)) * np.exp(lam * (r - 1.0))

    du = outer(rs + 1j * h).imag / h
    u = profile(dim, lam, rs)
    lhs = (dim - 1) / rs + np.abs(du) / (1.0 - u)
    np.testing.assert_allclose(lhs, lam, rtol=1e-10)


def test_trivial_flux_divergence_is_constant():
    # radial divergence of -lam r / N is exactly -lam in every dimension
    for dim, lam in ((1, 0.5), (2, 1.5), (3, 3.0)):
        r = np.linspace(1e-3, 1.0, 100)
        h = 1e-30
        zc = -(lam * (r + 1j * h)) / dim
        div = ((dim - 1) / r) * (-(lam * r) / dim) + (zc.imag / h)
        np.testing.assert_allclose(div, -lam, rtol=1e-12)
        assert np.max(np.abs(trivial_flux(dim, lam, r))) <= lam / dim + 1e-15


@pytest.mark.parametrize("dim,lam", [(1, 4.0), (2, 4.0), (3, 5.0)])
def test_energy_identity_by_quadrature(dim, lam):
    # integral of |u'|/(1-u) balances lam * integral of u (radial weights)
    rstar = dim / lam

    def du_abs(r):
        if r <= rstar:
            return 0.0
        h = 1e-30
        return abs(
            (
                1.0
                - (r + 1j * h) ** (-(dim - 1)) * np.exp(lam * ((r + 1j * h) - 1.0))
            ).imag
            / h
        )

    lhs, _ = quad(
        lambda r: r ** (dim - 1) * du_abs(r) / (1.0 - profile(dim, lam, r)),
        0.0,
        1.0,
        points=[rstar],
        limit=200,
    )
    rhs, _ = quad(
        lambda r: r ** (dim - 1) * lam * profile(dim, lam, r),
        0.0,
        1.0,
        points=[rstar],
        limit=200,
    )
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_explicit_solution_record():
    sol = ExplicitSolution(2, 4.0)
    assert sol.plateau_radius == 0.5
    assert sol.plateau_value == pytest.approx(plateau_height(2, 4.0), rel=1e-15)
    assert sol.u(1.0) == 0.0
    assert sol.z(0.75) == -1.0
    with pytest.raises(ValueError):
        ExplicitSolution(3, 2.0)


def _oracle_sweep(tmp_path, lambdas, samples):
    """The exit code of a one-dimensional `sweep --mode oracle`, and its CSV
    as the x column and the (strengths, samples) curves when it wrote one."""
    base = tmp_path / "curves"
    rc = cli.main(["sweep", "--mode", "oracle", "--dim", "1", "--lambdas", lambdas,
                   "--samples", str(samples), "--output", str(base)])
    if rc != 0:
        assert list(tmp_path.glob("curves*")) == []
        return rc, None, None
    header, cols = io.read_csv(tmp_path / "curves.csv")
    assert header == ["x"] + [f"u_lam{lam:g}" for lam in cli._parse_lambdas(lambdas)]
    return rc, cols[0], np.stack(cols[1:])


def test_sweep_family_shape_and_exactness(tmp_path):
    rc, x, values = _oracle_sweep(tmp_path, "2,5,9", 401)
    assert rc == 0
    assert x.shape == (401,) and values.shape == (3, 401)
    assert x[0] == -1.0 and x[-1] == 1.0
    for lam, row in zip((2.0, 5.0, 9.0), values):
        assert row[0] == 0.0 and row[-1] == 0.0
        core = row[np.abs(x) <= 1.0 / lam]
        assert np.max(core) - np.min(core) == 0.0
        # even in x up to grid rounding (linspace is ulp-symmetric only)
        np.testing.assert_allclose(row, row[::-1], atol=1e-15, rtol=0)


def test_sweep_family_monotone_in_strength(tmp_path):
    rc, x, vals = _oracle_sweep(tmp_path, "2:20:1", 201)
    assert rc == 0 and vals.shape == (19, 201)
    interior = np.abs(x) < 1.0
    assert np.all(np.diff(vals[:, interior], axis=0) > 0.0)


def test_sweep_rejects_trivial_strengths(tmp_path):
    assert _oracle_sweep(tmp_path, "2,1", 11)[0] == 1
    assert _oracle_sweep(tmp_path, "3", 1)[0] == 1
