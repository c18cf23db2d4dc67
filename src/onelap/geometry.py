"""Domain geometry and the constants controlling existence thresholds.

Two families of constants matter for the absorption problem on a radially
symmetric domain.  The Cheeger constant h(Omega) = inf P(E)/|E| separates
trivial from nontrivial regimes of the source strength; balls realize the
generic isoperimetric lower bound N omega_N^(1/N) |Omega|^(-1/N) and the
perimeter upper bound P(Omega)/|Omega| simultaneously.  The sharp Sobolev
embedding constant S(N, p) (gradient in L^p controlling the critical
Lebesgue norm) enters smallness conditions; its p -> 1 limit is
1/(N omega_N^(1/N)), the isoperimetric constant again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DomainSpec",
    "CheegerBounds",
    "unit_ball_volume",
    "sphere_area",
    "domain_measure",
    "domain_perimeter",
    "cheeger_bounds",
    "sobolev_constant",
    "sobolev_constant_limit",
    "smallness_check",
]

_KINDS = ("ball", "interval")


@dataclass(frozen=True)
class DomainSpec:
    """A centered ball of given radius, or the 1-d interval (-radius, radius)."""

    kind: str
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"domain kind must be one of {_KINDS}, got {self.kind!r}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        if self.kind == "interval" and self.dim != 1:
            raise ValueError("interval domains are one dimensional")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius!r}")


@dataclass(frozen=True)
class CheegerBounds:
    lower: float
    upper: float
    exact: float


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball, pi^(N/2)/Gamma(N/2 + 1)."""
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    try:
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:
        raise OverflowError(f"dim {dim} is out of range: the unit ball's volume overflows float") from None


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere, N omega_N (equals 2 for dim 1)."""
    return dim * unit_ball_volume(dim)


def domain_measure(domain: DomainSpec) -> float:
    return unit_ball_volume(domain.dim) * domain.radius**domain.dim


def domain_perimeter(domain: DomainSpec) -> float:
    return sphere_area(domain.dim) * domain.radius ** (domain.dim - 1)


def cheeger_bounds(domain: DomainSpec) -> CheegerBounds:
    """Isoperimetric lower bound, perimeter upper bound, and the exact
    Cheeger constant N/radius.  Balls (and the interval, which is the 1-d
    ball) saturate both bounds, so all three coincide here."""
    n = domain.dim
    omega = unit_ball_volume(n)
    try:
        measure = domain_measure(domain)
        lower = n * omega ** (1.0 / n) * measure ** (-1.0 / n)
        upper = domain_perimeter(domain) / measure
    except OverflowError:
        raise OverflowError(f"radius {domain.radius!r} is out of range in dim {n}: "
                            "the Cheeger bounds overflow float") from None
    return CheegerBounds(lower=lower, upper=upper, exact=n / domain.radius)


def sobolev_constant(dim: int, p: float) -> float:
    """Sharp constant in || u ||_{p*} <= S || grad u ||_p on R^N, 1 < p < N.

    S = pi^(-1/2) N^(-1/p) ((p-1)/(N-p))^(1-1/p)
        * ( Gamma(1+N/2) Gamma(N) / (Gamma(N/p) Gamma(1+N-N/p)) )^(1/N)
    """
    if int(dim) != dim or dim < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")
    pf = float(p)
    if not 1.0 < pf < dim:
        raise ValueError(f"exponent must satisfy 1 < p < dim, got p={p!r}, dim={dim}")
    n = float(dim)
    # work in logs: the Gamma ratio overflows float arithmetic long before
    # the constant itself does
    log_ratio = (
        math.lgamma(1.0 + n / 2.0)
        + math.lgamma(n)
        - math.lgamma(n / pf)
        - math.lgamma(1.0 + n - n / pf)
    )
    log_s = (
        -0.5 * math.log(math.pi)
        - math.log(n) / pf
        + (1.0 - 1.0 / pf) * math.log((pf - 1.0) / (n - pf))
        + log_ratio / n
    )
    return math.exp(log_s)


def sobolev_constant_limit(dim: int) -> float:
    """p -> 1 limit of the Sobolev constant: 1/(N omega_N^(1/N))."""
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return 1.0 / (dim * unit_ball_volume(dim) ** (1.0 / dim))


def smallness_check(dim: int, lam: float, f_norm: float) -> bool:
    """Strict smallness condition lam * S(N,1) * ||f||_N < 1 guaranteeing
    states bounded away from 1 for sources lam * f."""
    if not lam >= 0.0:
        raise ValueError(f"source strength must be nonnegative, got {lam!r}")
    if not f_norm >= 0.0:
        raise ValueError(f"norm must be nonnegative, got {f_norm!r}")
    if not math.isfinite(lam) or not math.isfinite(f_norm):
        raise ValueError(f"source strength and norm must be finite, got {lam!r} and {f_norm!r}")
    return lam * sobolev_constant_limit(dim) * f_norm < 1.0
