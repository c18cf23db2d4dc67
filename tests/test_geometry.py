"""Domain constants: measures, Cheeger data, sharp embedding constants."""

import math

import mpmath
import pytest

from onelap.geometry import (
    CheegerBounds,
    DomainSpec,
    cheeger_bounds,
    domain_measure,
    domain_perimeter,
    smallness_check,
    sobolev_constant,
    sobolev_constant_limit,
    sphere_area,
    unit_ball_volume,
)


def test_ball_volume_small_dimensions():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


def test_ball_volume_recursion():
    # omega_N = omega_{N-2} * 2 pi / N
    for dim in range(3, 12):
        assert unit_ball_volume(dim) == pytest.approx(
            unit_ball_volume(dim - 2) * 2.0 * math.pi / dim, rel=1e-13
        )


def test_sphere_area_is_n_omega_n():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_domain_measures():
    ball = DomainSpec("ball", 3, 2.0)
    assert domain_measure(ball) == pytest.approx(4.0 * math.pi / 3.0 * 8.0, rel=1e-14)
    assert domain_perimeter(ball) == pytest.approx(16.0 * math.pi, rel=1e-14)
    seg = DomainSpec("interval", 1, 1.5)
    assert domain_measure(seg) == pytest.approx(3.0, rel=1e-15)
    assert domain_perimeter(seg) == pytest.approx(2.0, rel=1e-15)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec("cube", 3, 1.0)
    with pytest.raises(ValueError):
        DomainSpec("interval", 2, 1.0)
    with pytest.raises(ValueError):
        DomainSpec("ball", 2, 0.0)
    with pytest.raises(ValueError, match="finite"):
        DomainSpec("ball", 2, math.inf)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
def test_cheeger_bounds_coincide_for_balls(dim, radius):
    kind = "interval" if dim == 1 else "ball"
    b = cheeger_bounds(DomainSpec(kind, dim, radius))
    exact = dim / radius
    assert b.exact == pytest.approx(exact, rel=1e-15)
    assert abs(b.lower - exact) <= 1e-12 * exact
    assert abs(b.upper - exact) <= 1e-12 * exact
    assert b.lower > 0.0 and math.isfinite(b.upper)


def test_cheeger_bounds_record_shape():
    b = cheeger_bounds(DomainSpec("ball", 3, 1.0))
    assert isinstance(b, CheegerBounds)
    assert b.exact == 3.0 and b.upper == 3.0
    assert b.lower == pytest.approx(3.0, abs=1e-12)


def _talenti_reference(dim, p):
    # independent high-precision evaluation of the Gamma-quotient formula
    with mpmath.workdps(40):
        n = mpmath.mpf(dim)
        pp = mpmath.mpf(p)
        ratio = (
            mpmath.gamma(1 + n / 2)
            * mpmath.gamma(n)
            / (mpmath.gamma(n / pp) * mpmath.gamma(1 + n - n / pp))
        )
        s = (
            mpmath.pi ** mpmath.mpf("-0.5")
            * n ** (-1 / pp)
            * ((pp - 1) / (n - pp)) ** (1 - 1 / pp)
            * ratio ** (1 / n)
        )
        return float(s)


def test_sobolev_constant_frozen_values():
    assert sobolev_constant(3, 2.0) == pytest.approx(0.42726054286252657, rel=1e-13)
    assert sobolev_constant(2, 1.5) == pytest.approx(0.3958539986661903, rel=1e-13)


@pytest.mark.parametrize("dim,p", [(3, 2.0), (2, 1.5), (4, 1.2), (3, 1.01), (5, 3.5)])
def test_sobolev_constant_matches_gamma_formula(dim, p):
    assert sobolev_constant(dim, p) == pytest.approx(
        _talenti_reference(dim, p), rel=1e-10
    )


def test_sobolev_constant_rejects_out_of_range():
    with pytest.raises(ValueError):
        sobolev_constant(2, 1.0)
    with pytest.raises(ValueError):
        sobolev_constant(2, 2.0)
    with pytest.raises(ValueError):
        sobolev_constant(1, 1.5)


def test_sobolev_limit_values():
    assert sobolev_constant_limit(1) == pytest.approx(0.5, rel=1e-14)
    assert sobolev_constant_limit(2) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-15
    )
    assert sobolev_constant_limit(3) == pytest.approx(
        1.0 / (3.0 * (4.0 * math.pi / 3.0) ** (1.0 / 3.0)), rel=1e-14
    )


def test_sobolev_constant_near_the_limit():
    assert sobolev_constant(2, 1.0001) == pytest.approx(
        sobolev_constant_limit(2), abs=1e-3
    )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sobolev_ladder_monotone_toward_limit(dim):
    limit = sobolev_constant_limit(dim)
    gaps = [abs(sobolev_constant(dim, p) - limit) for p in (1.1, 1.01, 1.001)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert sobolev_constant(dim, 1.5) < 1.0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_amplified_constant_collapses(dim):
    # S^(1/(p-1)) must die out as p -> 1 whenever the limit constant is < 1
    assert sobolev_constant_limit(dim) < 1.0
    powers = [
        math.log(sobolev_constant(dim, p)) / (p - 1.0) for p in (1.1, 1.01, 1.001)
    ]
    assert powers[0] > powers[1] > powers[2]
    assert math.exp(powers[1]) < 1e-10  # already negligible at p = 1.01


def test_smallness_condition():
    assert smallness_check(2, 1.0, 1.0) is True
    assert smallness_check(2, 4.0, 1.0) is False
    assert smallness_check(7, 1e-9, 1.0) is True
    with pytest.raises(ValueError):
        smallness_check(2, -1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        smallness_check(2, 0.0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        smallness_check(2, math.inf, 1.0)
