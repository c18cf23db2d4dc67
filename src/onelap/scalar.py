"""Scalar building blocks for the singular absorption problem.

The model equation couples a degenerate diffusion flux with an absorption
coefficient 1/(1-s)^gamma that blows up as the state approaches 1.  The
solver never evaluates that singular coefficient directly; it works with a
bounded, continuous surrogate (``absorption_truncated``) indexed by a level
n, which increases to the exact coefficient as n grows.  The primitives of
the exact coefficient (and of its p-th root) decide whether the singularity
acts as a barrier keeping states strictly below 1, so they get closed forms
here as well.

All functions accept floats or numpy arrays and return the matching kind.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "truncate",
    "remainder",
    "absorption_truncated",
    "absorption_truncated_prime",
    "absorption_exact",
    "absorption_primitive",
    "root_absorption_primitive",
    "root_primitive_unbounded",
]

# Relative window used to route gamma ~ 1 (resp. gamma ~ p) onto the
# logarithmic branch of the primitives instead of the power branch.
BRANCH_WINDOW = 1e-12


def _as_array(s):
    a = np.asarray(s, dtype=float)
    return a, (a.ndim == 0)


def _ret(a, scalar):
    return float(a) if scalar else a


def _check_level(n) -> float:
    if not (float(n) > 0) or float(n) != int(n):
        raise ValueError(f"truncation level must be a positive integer, got {n!r}")
    return float(n)


def _check_gamma(gamma) -> float:
    g = float(gamma)
    if not g > 0.0:
        raise ValueError(f"singularity exponent must be positive, got {gamma!r}")
    return g


def truncate(s, k):
    """Clip s to the interval [-k, k].

    k must be nonnegative.  Elementwise on arrays.
    """
    if not float(k) >= 0.0:
        raise ValueError(f"truncation height must be nonnegative, got {k!r}")
    a, scalar = _as_array(s)
    return _ret(np.clip(a, -float(k), float(k)), scalar)


def remainder(s, k):
    """Part of s cut away by truncation at height k, so that
    truncate(s, k) + remainder(s, k) reassembles s."""
    a, scalar = _as_array(s)
    return _ret(a - np.clip(a, -float(k), float(k)), scalar)


def _branch_inverse(a, nf: float, g: float):
    """base = 1 - min(s, 1) and inv = 1/(base^gamma + 1/n), the middle
    branch of the truncated absorption; base is clamped at 0 so that s > 1
    never produces a negative power argument."""
    base = np.minimum(a, 1.0)
    np.subtract(1.0, base, out=base)
    inv = base**g
    inv += 1.0 / nf
    np.divide(1.0, inv, out=inv)
    return base, inv


def absorption_truncated(s, n, gamma):
    """Bounded absorption coefficient at truncation level n.

    Piecewise definition:

        0                            for s < 0
        n s / ((1-s)^gamma + 1/n)    for 0 <= s < 1/n
        1 / ((1-s)^gamma + 1/n)      for 1/n <= s < 1
        n                            for s >= 1

    Continuous, nondecreasing, with values in [0, n]; for fixed s in [0, 1)
    it increases to 1/(1-s)^gamma as n grows.
    """
    nf = _check_level(n)
    g = _check_gamma(gamma)
    a, scalar = _as_array(s)
    shape = a.shape
    a = a.reshape(shape or (1,))  # the masked writes below need an array
    # the 1/n <= s < 1 branch everywhere, then the other branches written
    # over their entries; NaN lands on the zero branch
    out = _branch_inverse(a, nf, g)[1]
    low = a < 1.0 / nf
    out[low] = nf * a[low] * out[low]
    out[~(a >= 0.0)] = 0.0
    out[a >= 1.0] = nf
    return _ret(out.reshape(shape), scalar)


def absorption_truncated_prime(s, n, gamma):
    """Derivative of ``absorption_truncated`` in s (one-sided at the three
    kink points, taking the branch that contains s in the piecewise
    definition).  Used by the Newton linearization."""
    nf = _check_level(n)
    g = _check_gamma(gamma)
    a, scalar = _as_array(s)
    shape = a.shape
    a = a.reshape(shape or (1,))
    base, inv = _branch_inverse(a, nf, g)
    # d/ds of 1/((1-s)^g + 1/n) is g (1-s)^(g-1) inv^2, the 1/n <= s < 1
    # branch; where s >= 1 a zero base makes it inf or nan for g < 1, but
    # those entries are overwritten below
    out = base
    with np.errstate(divide="ignore"):
        out **= g - 1.0
    out *= g
    out *= inv
    out *= inv
    low = a < 1.0 / nf
    out[low] = nf * inv[low] + nf * a[low] * out[low]
    out[~((a >= 0.0) & (a < 1.0))] = 0.0
    return _ret(out.reshape(shape), scalar)


def absorption_exact(s, gamma):
    """Exact absorption coefficient 1/(1-s)^gamma for s in [0, 1)."""
    g = _check_gamma(gamma)
    a, scalar = _as_array(s)
    if np.any(a < 0.0) or np.any(a >= 1.0):
        raise ValueError("exact absorption requires 0 <= s < 1")
    return _ret((1.0 - a) ** (-g), scalar)


def absorption_primitive(s, gamma):
    """Integral of the exact absorption coefficient from 0 to s.

    Closed forms: -log(1-s) for gamma = 1, otherwise
    ((1-s)^(1-gamma) - 1)/(gamma - 1).  Finite for s in [0, 1); diverges as
    s -> 1 exactly when gamma >= 1.
    """
    g = _check_gamma(gamma)
    a, scalar = _as_array(s)
    if np.any(a < 0.0) or np.any(a >= 1.0):
        raise ValueError("primitive requires 0 <= s < 1")
    if abs(g - 1.0) <= BRANCH_WINDOW * max(1.0, g):
        out = -np.log1p(-a)
    else:
        # expm1/log1p keep the power branch accurate to near the window
        out = np.expm1((1.0 - g) * np.log1p(-a)) / (g - 1.0)
    return _ret(out, scalar)


def root_absorption_primitive(t, gamma, p):
    """Integral from 0 to t of the p-th root of the exact coefficient,
    i.e. of (1-s)^(-gamma/p).

    Logarithmic branch when gamma = p (within a relative window), power
    branch otherwise.  Unbounded on [0, 1) exactly when gamma >= p, which is
    the barrier condition keeping approximating states below 1.
    """
    g = _check_gamma(gamma)
    pf = float(p)
    if not pf > 1.0:
        raise ValueError(f"root exponent must exceed 1, got {p!r}")
    a, scalar = _as_array(t)
    if np.any(a < 0.0) or np.any(a >= 1.0):
        raise ValueError("primitive requires 0 <= t < 1")
    ratio = g / pf
    if abs(ratio - 1.0) <= BRANCH_WINDOW:
        out = -np.log1p(-a)
    else:
        out = np.expm1((1.0 - ratio) * np.log1p(-a)) / (ratio - 1.0)
    return _ret(out, scalar)


def root_primitive_unbounded(gamma, p) -> bool:
    """True when ``root_absorption_primitive`` diverges as t -> 1."""
    g = _check_gamma(gamma)
    pf = float(p)
    if not pf > 1.0:
        raise ValueError(f"root exponent must exceed 1, got {p!r}")
    return g >= pf
