"""Exact radial solutions for the constant-source problem on the unit ball.

For source strength lam > N (the Cheeger constant of B_1) the problem has an
explicit nontrivial solution: a flat core of height 1 - (lam/N)^(N-1) e^(N-lam)
on the ball of radius N/lam, matched to the moving profile
1 - r^(-(N-1)) e^(lam (r-1)) outside.  The certifying flux is linear in the
core (-lam r / N) and saturated (-1) outside.  For lam <= N only the zero
state exists and the flux -lam r / N certifies it.  These formulas are the
ground truth the solver and verifier are measured against.
"""

from __future__ import annotations

import math

import numpy as np

from .scalar import _as_array, _ret

__all__ = [
    "plateau_height",
    "profile",
    "flux",
    "trivial_flux",
]


def _check_regime(dim, lam) -> tuple[int, float]:
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    lf = float(lam)
    if not lf > dim:
        raise ValueError(
            f"nontrivial regime requires source strength > dim, got {lam!r} <= {dim}"
        )
    if not math.isfinite(lf):
        raise ValueError(f"source strength must be finite, got {lam!r}")
    return int(dim), lf


def _check_radius(r):
    a, scalar = _as_array(r)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError("radius must lie in [0, 1]")
    return a, scalar


def plateau_height(dim: int, lam: float) -> float:
    """Core value 1 - (lam/N)^(N-1) e^(N-lam), strictly inside (0, 1)."""
    n, lf = _check_regime(dim, lam)
    return 1.0 - (lf / n) ** (n - 1) * math.exp(n - lf)


def profile(dim, lam, r):
    """Exact state at radius r: the core constant for r <= N/lam, and
    1 - r^(-(N-1)) e^(lam (r-1)) beyond.  Continuous, nonincreasing in r,
    exactly 0 at r = 1."""
    n, lf = _check_regime(dim, lam)
    a, scalar = _check_radius(r)
    inside = a <= n / lf
    # keep the negative power off r = 0; the masked branch never uses it
    safe = np.where(inside, 1.0, a)
    outer = 1.0 - safe ** (-(n - 1)) * np.exp(lf * (safe - 1.0))
    return _ret(np.where(inside, plateau_height(n, lf), outer), scalar)


def flux(dim, lam, r):
    """Radial flux component certifying the nontrivial state: -lam r / N in
    the core, -1 on the moving region.  Both branches meet at -1 when
    r = N/lam, and the magnitude never exceeds 1."""
    n, lf = _check_regime(dim, lam)
    a, scalar = _check_radius(r)
    return _ret(np.where(a <= n / lf, -(lf * a) / n, -1.0), scalar)


def trivial_flux(dim, lam, r):
    """Radial flux -lam r / N certifying the zero state when lam <= N: its
    divergence is exactly -lam and its magnitude stays below lam/N <= 1."""
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    lf = float(lam)
    if not 0.0 <= lf <= dim:
        raise ValueError(
            f"trivial regime requires 0 <= source strength <= dim, got {lam!r}"
        )
    a, scalar = _check_radius(r)
    return _ret(-(lf * a) / dim, scalar)
