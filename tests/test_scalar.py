"""Scalar building blocks: truncations, the bounded absorption coefficient,
and the singular primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from onelap.scalar import (
    absorption_exact,
    absorption_primitive,
    absorption_truncated,
    absorption_truncated_prime,
    remainder,
    root_absorption_primitive,
    root_primitive_unbounded,
    truncate,
)


# ---------------------------------------------------------------- truncation

def test_truncate_clamps():
    assert truncate(2.0, 1.0) == 1.0
    assert truncate(0.0, 5.0) == 0.0
    assert truncate(-3.0, 2.0) == -2.0


def test_remainder_is_the_cut_part():
    assert remainder(2.0, 1.0) == 1.0
    assert remainder(0.5, 1.0) == 0.0
    assert remainder(-3.0, 2.0) == -1.0


def test_truncate_rejects_negative_height():
    with pytest.raises(ValueError):
        truncate(1.0, -0.5)


@given(
    s=st.floats(allow_nan=False, allow_infinity=False),
    k=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
def test_truncate_bounded_and_identity_inside_band(s, k):
    t = truncate(s, k)
    assert abs(t) <= k
    if abs(s) <= k:
        assert t == s


@given(st.data())
def test_split_reassembles_exactly_near_the_band(data):
    # For |s| <= 2k the subtraction s - k is exact (Sterbenz), so the split
    # reassembles bit for bit.  Far outside the band float cancellation can
    # cost an ulp; the lattice test below covers that territory.
    k = data.draw(st.floats(min_value=1e-300, max_value=1e300), label="k")
    s = data.draw(st.floats(min_value=-2.0 * k, max_value=2.0 * k), label="s")
    assert truncate(s, k) + remainder(s, k) == s


def test_split_reassembles_on_a_shared_lattice():
    # Values on the 2^-8 lattice subtract exactly at any distance from the
    # band, so the identity is bit-exact even where |s| >> k.
    rng = np.random.default_rng(7)
    s = rng.integers(-(2**40), 2**40, size=200_000) / 256.0
    for kk in (0.0, 1.0, 7.5, 1000.25, 2**20 / 256.0):
        assert np.all(truncate(s, kk) + remainder(s, kk) == s)
        for ss in (-kk - 1 / 256, -kk, kk, kk + 1 / 256):
            assert truncate(ss, kk) + remainder(ss, kk) == ss


def test_truncation_accepts_arrays():
    s = np.array([-3.0, 0.25, 2.0])
    np.testing.assert_array_equal(truncate(s, 1.0), [-1.0, 0.25, 1.0])
    np.testing.assert_array_equal(remainder(s, 1.0), [-2.0, 0.0, 1.0])
    assert isinstance(truncate(0.5, 1.0), float)


# ---------------------------------------------------- truncated absorption

def test_truncated_absorption_branch_values():
    assert absorption_truncated(-1.0, 10, 1.0) == 0.0
    assert absorption_truncated(1.5, 7, 2.0) == 7.0
    assert absorption_truncated(0.5, 4, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_truncated_absorption_range_and_monotonicity():
    s = np.linspace(-0.5, 1.5, 4001)
    for n in (1, 3, 10, 1000):
        h = absorption_truncated(s, n, 1.7)
        assert np.all(h >= 0.0) and np.all(h <= n)
        assert np.all(np.diff(h) >= -1e-15)
        assert np.all(h * s >= 0.0)


@pytest.mark.parametrize("n,gamma", [(2, 1.0), (10, 0.5), (50, 2.3)])
def test_truncated_absorption_continuous_at_the_kinks(n, gamma):
    # at each kink both branch formulas must give the function value
    def inv(s):
        return 1.0 / ((1.0 - s) ** gamma + 1.0 / n)

    at = absorption_truncated
    assert at(0.0, n, gamma) == 0.0
    kink = 1.0 / n
    assert at(kink, n, gamma) == pytest.approx(n * kink * inv(kink), rel=1e-12)
    assert at(kink, n, gamma) == pytest.approx(inv(kink), rel=1e-12)
    # the middle branch tends to n as s -> 1, matching the top branch;
    # the approach rate is (1-s)^gamma, so probe deep below the float floor
    assert at(1.0 - 1e-300, n, gamma) == pytest.approx(n, rel=1e-12)
    assert at(1.0, n, gamma) == n


def test_truncated_absorption_below_exact_and_converging():
    s = np.linspace(0.05, 0.95, 19)
    exact = absorption_exact(s, 1.4)
    prev = np.zeros_like(s)
    for n in (2, 8, 32, 128, 512, 2048, 2**15):
        h = absorption_truncated(s, n, 1.4)
        tail = s > 1.0 / n
        assert np.all(h[tail] <= exact[tail])
        assert np.all(h >= prev - 1e-15)
        prev = h
    assert np.max(np.abs(prev - exact)) <= np.max(exact) ** 2 / 2**15 + 1e-12


def test_truncated_absorption_rejects_bad_level():
    with pytest.raises(ValueError):
        absorption_truncated(0.5, 0, 1.0)
    with pytest.raises(ValueError):
        absorption_truncated(0.5, 2.5, 1.0)
    with pytest.raises(ValueError):
        absorption_truncated(0.5, 2, -1.0)


def test_truncated_absorption_prime_matches_differences():
    s = np.concatenate([np.linspace(0.002, 0.08, 9), np.linspace(0.2, 0.97, 9)])
    for n in (10, 200):
        d = absorption_truncated_prime(s, n, 1.3)
        step = 1e-7
        fd = (
            absorption_truncated(s + step, n, 1.3)
            - absorption_truncated(s - step, n, 1.3)
        ) / (2 * step)
        # stay away from the kinks at 0 and 1/n
        keep = np.abs(s - 1.0 / n) > 10 * step
        np.testing.assert_allclose(d[keep], fd[keep], rtol=1e-5)


def _nested_where(s, n, gamma):
    """Value and slope of the truncated absorption with every branch
    evaluated everywhere and selected by nested np.where: the reference
    that the masked evaluation must match bit for bit."""
    a = np.asarray(s, dtype=float)
    nf = float(n)
    base = 1.0 - np.minimum(a, 1.0)
    inv = 1.0 / (base**gamma + 1.0 / nf)
    pow_gm1 = np.where(base > 0.0, base ** (gamma - 1.0), 0.0)
    d_inv = gamma * pow_gm1 * inv * inv
    d_low = nf * inv + nf * a * d_inv
    value = np.where(a >= 1.0, nf, np.where(a >= 1.0 / nf, inv, np.where(a >= 0.0, nf * a * inv, 0.0)))
    slope = np.where(a >= 1.0, 0.0, np.where(a >= 1.0 / nf, d_inv, np.where(a >= 0.0, d_low, 0.0)))
    return value, slope


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 100, 10**6])
def test_truncated_absorption_matches_nested_where_bitwise(n, gamma):
    kinks = [0.0, -0.0, 1.0 / n, 1.0]
    around = [np.nextafter(k, side) for k in kinks for side in (-np.inf, np.inf)]
    outside = [-1e-300, -2.5, -np.inf, 1.5, 1e300, np.inf, np.nan]
    rng = np.random.default_rng(n)
    s = np.concatenate([kinks, around, outside, rng.uniform(-0.2, 1.2, 400), rng.uniform(0.0, 2.0 / n, 100)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, slope = _nested_where(s, n, gamma)
        assert absorption_truncated(s, n, gamma).tobytes() == value.tobytes()
        assert absorption_truncated_prime(s, n, gamma).tobytes() == slope.tobytes()
        # a strided 2-d view and scalar arguments select the same bits
        grid = s[:510].reshape(-1, 10)[:, ::3]
        assert absorption_truncated(grid, n, gamma).tobytes() == _nested_where(grid, n, gamma)[0].tobytes()
        assert absorption_truncated_prime(grid, n, gamma).tobytes() == _nested_where(grid, n, gamma)[1].tobytes()
        for k, x in enumerate(s[:19]):
            h = absorption_truncated(float(x), n, gamma)
            d = absorption_truncated_prime(float(x), n, gamma)
            assert isinstance(h, float) and isinstance(d, float)
            assert np.float64(h).tobytes() == value[k].tobytes()
            assert np.float64(d).tobytes() == slope[k].tobytes()


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_truncated_absorption_prime_is_silent_above_one(gamma):
    # for gamma < 1 the middle-branch power meets a zero base at s >= 1;
    # those entries are zero and no divide-by-zero warning may escape
    s = np.array([0.25, 0.5, 0.999, 1.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = absorption_truncated_prime(s, 100, gamma)
        scalars = [absorption_truncated_prime(float(x), 100, gamma) for x in s]
    assert slope[3] == 0.0 and slope[4] == 0.0
    with np.errstate(divide="ignore"):
        want = _nested_where(s, 100, gamma)[1]
    assert slope.tobytes() == want.tobytes()
    assert np.array(scalars).tobytes() == want.tobytes()


# ------------------------------------------------------------- exact branch

def test_exact_absorption_values():
    assert absorption_exact(0.0, 3.0) == 1.0
    assert absorption_exact(0.5, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert absorption_exact(0.9, 2.0) == pytest.approx(100.0, rel=1e-12)


def test_exact_absorption_domain():
    with pytest.raises(ValueError):
        absorption_exact(1.0, 1.0)
    with pytest.raises(ValueError):
        absorption_exact(-0.1, 1.0)
    with pytest.raises(ValueError):
        absorption_exact(np.array([0.2, 1.3]), 1.0)


# -------------------------------------------------------------- primitives

def test_primitive_closed_forms():
    assert absorption_primitive(0.0, 2.0) == 0.0
    assert absorption_primitive(1.0 - math.exp(-2.0), 1.0) == pytest.approx(2.0, rel=1e-14)
    assert absorption_primitive(0.5, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_root_primitive_closed_forms():
    assert root_absorption_primitive(0.0, 2.0, 1.5) == 0.0
    assert root_absorption_primitive(1.0 - math.exp(-3.0), 1.2, 1.2) == pytest.approx(
        3.0, rel=1e-14
    )
    assert root_absorption_primitive(0.75, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_primitive_domains():
    for bad in (-0.01, 1.0, 1.5):
        with pytest.raises(ValueError):
            absorption_primitive(bad, 1.0)
        with pytest.raises(ValueError):
            root_absorption_primitive(bad, 1.0, 1.5)
    with pytest.raises(ValueError):
        root_absorption_primitive(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        root_absorption_primitive(0.5, 1.0, 0.9)


@pytest.mark.parametrize(
    "s,gamma",
    [(0.3, 0.5), (0.7, 1.0), (0.9, 2.5), (0.5, 1.0 + 1e-13), (0.99, 1.0)],
)
def test_primitive_matches_quadrature(s, gamma):
    ref, err = quad(lambda t: (1.0 - t) ** (-gamma), 0.0, s, epsabs=1e-13, epsrel=1e-13)
    assert absorption_primitive(s, gamma) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize(
    "t,gamma,p",
    [(0.4, 1.0, 1.5), (0.8, 2.0, 1.3), (0.6, 1.2, 1.2), (0.9, 0.7, 1.1)],
)
def test_root_primitive_matches_quadrature(t, gamma, p):
    ref, err = quad(
        lambda s: (1.0 - s) ** (-gamma / p), 0.0, t, epsabs=1e-13, epsrel=1e-13
    )
    assert root_absorption_primitive(t, gamma, p) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("s,gamma", [(0.2, 0.7), (0.5, 1.0), (0.8, 2.0)])
def test_primitive_derivative_is_the_coefficient(s, gamma):
    step = 1e-6
    fd = (
        absorption_primitive(s + step, gamma) - absorption_primitive(s - step, gamma)
    ) / (2 * step)
    assert fd == pytest.approx(absorption_exact(s, gamma), rel=1e-4)


def test_primitive_increasing_and_zero_at_origin():
    s = np.linspace(0.0, 0.999, 500)
    for gamma in (0.5, 1.0, 3.0):
        vals = absorption_primitive(s, gamma)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0.0)


# --------------------------------------------------------- barrier decision

@pytest.mark.parametrize(
    "gamma,p,expected",
    [
        (2.0, 1.5, True),
        (1.0, 1.5, False),
        (1.5, 1.5, True),
        (0.5, 1.1, False),
        (3.0, 2.9, True),
    ],
)
def test_divergence_decision_table(gamma, p, expected):
    assert root_primitive_unbounded(gamma, p) is expected


def test_divergence_decision_rejects_bad_exponents():
    with pytest.raises(ValueError):
        root_primitive_unbounded(1.0, 1.0)
    with pytest.raises(ValueError):
        root_primitive_unbounded(-1.0, 1.5)
