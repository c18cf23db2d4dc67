"""Radial finite-difference solver for the regularized absorption problem.

The continuous target is the singular limit problem; what is actually solved
on each rung is the p-Laplacian surrogate with truncated absorption,

    -div(|Du|^(p-2) Du) + h_n(u) |Du|^p = T_n(g),   u = 0 on the boundary,

on a uniform radial grid over [0, R], with the gradient norm smoothed through
eps: phi(s) = (s^2 + eps^2)^((p-2)/2) s.  One fixed ladder of rungs,
`LADDER`, drives p -> 1, n -> infinity, eps -> 0, warm-starting each rung
from the core flux of the last.  Fluxes live on cell midpoints; the
divergence is the finite-volume balance over the cell
[r_{i-1/2}, r_{i+1/2}] with exact cell averages of r^(N-1), so a
linear-in-r flux field has exactly constant discrete divergence.  The
absorption reads |Du| at the nodes through the centred slope
(`_centered_slopes`), smoothed as hypot(s, eps): the verifier reads it
through the same function, so a rung's p -> 1 limit is the discrete
equation that `verify` checks.  Each rung is solved by a damped Newton
iteration on the exact tridiagonal Jacobian.

Deep rungs sit at the edge of what float64 can represent: the flux slope
d(phi)/d(slope) reaches 1/eps on the plateau, so moving a nodal value by one
ulp moves plateau residual rows by roughly ulp(u)/(eps dr^2).  The iteration
therefore stops either on a small residual or on a Newton step below float
resolution, and reports which; the eps floor below is chosen so that the
unavoidable plateau residual stays well under the verifier's tolerances.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .geometry import DomainSpec, sphere_area, unit_ball_volume
from .scalar import absorption_truncated, absorption_truncated_prime, truncate

__all__ = [
    "ProblemSpec",
    "RegularizationState",
    "RadialGrid",
    "DiscreteSolution",
    "AprioriReport",
    "BatchSolution",
    "regularized_flux",
    "regularized_flux_prime",
    "assemble_residual",
    "assemble_system",
    "newton_solve",
    "continuation_solve",
    "plateau_extent",
    "gradient_mass",
    "apriori_bounds_report",
    "LADDER",
]

SourceTerm = Union[float, Callable[[np.ndarray], np.ndarray]]


# the stop reasons on which a strength fails its rung, with what its
# `DiscreteSolution.failure` says of each: Newton ran out of iterations or
# line search ("stalled"), or its banded solve was singular or gave a
# non-finite step
_FAILED = {
    "stalled": "Newton stalled",
    "singular": "singular Jacobian",
    "non_finite": "non-finite Newton step",
}


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data: domain, singular exponent, source.

    `source` is either a constant strength (the lam of the explicit
    solutions) or a callable returning nodal values of a radial profile g(r).
    """

    domain: DomainSpec
    gamma: float
    source: SourceTerm

    def __post_init__(self):
        if not float(self.gamma) > 0.0:
            raise ValueError(f"singular exponent must be positive, got {self.gamma!r}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"singular exponent must be finite, got {self.gamma!r}")
        if isinstance(self.source, (int, float)):
            if not float(self.source) >= 0.0:
                raise ValueError("source must be nonnegative")
            if not math.isfinite(self.source):
                raise ValueError(f"source must be finite, got {self.source!r}")

    @property
    def constant_source(self) -> float | None:
        return float(self.source) if isinstance(self.source, (int, float)) else None

    def source_values(self, r: np.ndarray) -> np.ndarray:
        if isinstance(self.source, (int, float)):
            return np.full_like(np.asarray(r, dtype=float), float(self.source))
        g = np.asarray(self.source(np.asarray(r, dtype=float)), dtype=float)
        if g.shape != np.shape(r):
            raise ValueError("source profile must return one value per node")
        if np.any(g < 0.0):
            raise ValueError("source must be nonnegative")
        return g


@dataclass(frozen=True)
class RegularizationState:
    """One rung of the approximation ladder."""

    p: float
    n: int
    eps: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got {self.p!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"truncation level must be a positive integer, got {self.n!r}")
        if not self.eps > 0.0:
            raise ValueError(f"smoothing eps must be positive, got {self.eps!r}")
        if not (math.isfinite(self.p) and math.isfinite(self.eps)):
            raise ValueError(f"p and eps must be finite, got p={self.p!r}, eps={self.eps!r}")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh on [0, R] with exact finite-volume weights.

    node_weights[i] = (r_{i+1/2}^N - r_{i-1/2}^N) / (N dr), the cell average
    of r^(N-1), with r_{-1/2} taken as 0 so the origin row needs no special
    case beyond a vanishing inner flux.
    """

    dim: int
    radius: float
    mesh_size: int
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False)
    midpoints: np.ndarray = field(init=False)
    node_weights: np.ndarray = field(init=False)
    midpoint_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius!r}")
        m = self.mesh_size
        if int(m) != m or m < 8:
            raise ValueError(f"mesh size must be an integer >= 8, got {m!r}")
        n = int(self.dim)
        dr = self.radius / m
        nodes = np.linspace(0.0, self.radius, m + 1)
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        faces = np.concatenate(([0.0], mids))  # inner faces of cells 0..M-1
        outer = np.concatenate((mids, [self.radius]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cell_w = (outer**n - faces**n) / (n * dr)
            mid_w = mids ** (n - 1)
            volumes = cell_w * dr
            # row i of a rung's Jacobian sums to at most twice its midpoint
            # weights times the peak phi' over W_i dr^2; that sum, W_i dr or a
            # midpoint weight at 0 or inf would make the Newton step NaN
            reach = 2.0 * _PEAK_SENSITIVITY * (np.append(0.0, mid_w[:-1]) + mid_w) / (volumes[:m] * dr)
        if not all(np.isfinite(w).all() and w.all() for w in (volumes, reach, mid_w)):
            raise ValueError(f"dim {n} on a mesh of {m} cells of radius {self.radius!r} "
                             "puts the finite-volume weights out of float range")
        object.__setattr__(self, "spacing", dr)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "midpoints", mids)
        object.__setattr__(self, "node_weights", cell_w)  # one per node 0..M
        object.__setattr__(self, "midpoint_weights", mid_w)

    @classmethod
    def uniform(cls, domain: DomainSpec, mesh_size: int) -> "RadialGrid":
        return cls(dim=domain.dim, radius=domain.radius, mesh_size=mesh_size)

    def cell_volumes(self) -> np.ndarray:
        """Radial cell measures (r_{i+1/2}^N - r_{i-1/2}^N)/N, one per node;
        they telescope exactly to R^N / N."""
        return self.node_weights * self.spacing


@dataclass(frozen=True)
class DiscreteSolution:
    """Nodal state, midpoint flux, and nodal residual for one rung.  A rung
    that failed is a solution too: its stop_reason says why, and it holds
    the last iterate."""

    u: np.ndarray
    z: np.ndarray
    residual: np.ndarray
    state: RegularizationState
    iterations: int
    residual_norm: float
    residual_evals: int  # kernel evaluations of this strength in the rung
    stop_reason: str = "residual"
    history: tuple = ()  # after a continuation: each rung's solution, this one's last

    @property
    def converged(self) -> bool:
        return self.stop_reason not in _FAILED

    @property
    def failure(self) -> str | None:
        """Why the rung failed, at what residual and with which rung
        parameters; None when it converged."""
        st = self.state
        return None if self.converged else (
            f"{_FAILED[self.stop_reason]} at residual {self.residual_norm:.3e} (p={st.p}, n={st.n}, eps={st.eps})")


def regularized_flux(s, p: float, eps: float):
    """Smoothed p-flux phi(s) = (s^2 + eps^2)^((p-2)/2) s."""
    s = np.asarray(s, dtype=float)
    out = s * s
    out += eps * eps
    out **= (p - 2.0) / 2.0
    out *= s
    return out


def regularized_flux_prime(s, p: float, eps: float):
    """phi'(s) = (s^2 + eps^2)^((p-4)/2) ((p-1) s^2 + eps^2), positive."""
    s = np.asarray(s, dtype=float)
    out = s * s
    out += eps * eps
    out **= (p - 4.0) / 2.0
    w = (p - 1.0) * s
    w *= s
    w += eps * eps
    out *= w
    return out


def _strengths(spec) -> tuple:
    """The problems of a batch: one ProblemSpec, or a sequence of them that
    share the singular exponent (the absorption is evaluated once for all
    rows)."""
    if isinstance(spec, ProblemSpec):
        return (spec,)
    specs = tuple(spec)
    if not specs:
        raise ValueError("a batch needs at least one problem")
    if any(s.gamma != specs[0].gamma for s in specs):
        raise ValueError("a batch must share the singular exponent")
    return specs


def _check_iterate(grid: RadialGrid, u: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Validate one state vector, or `rows` of them stacked as a (rows, M+1)
    array."""
    u = np.asarray(u, dtype=float)
    shape = (grid.mesh_size + 1,) if rows is None else (rows, grid.mesh_size + 1)
    if u.shape != shape:
        raise ValueError(f"state must have shape {shape}, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("state vector must be finite")
    if np.count_nonzero(u[..., -1]):
        raise ValueError("boundary node must be exactly zero")
    return u


def _fv_divergence(F: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Finite-volume divergence of the midpoint fluxes F (weighted by
    r^(N-1), one row of M per strength) over the cells of nodes 0..M-1:
    (F_{i+1/2} - F_{i-1/2}) / (W_i dr), with F_{-1/2} = 0 by symmetry.
    `volumes` holds the cell volumes W_i dr (`RadialGrid.cell_volumes`)."""
    div = np.empty(F.shape)
    div[..., 0] = F[..., 0] / volumes[0]
    inner = div[..., 1:]
    np.subtract(F[..., 1:], F[..., :-1], out=inner)
    inner /= volumes[1 : F.shape[-1]]
    return div


def _centered_slopes(D: np.ndarray) -> np.ndarray:
    """Nodal slopes at nodes 0..M-1 from the midpoint slopes D (one row of M
    per strength): s_i = (D_{i-1/2} + D_{i+1/2}) / 2, and s_0 = 0 by
    symmetry.  The solver's absorption and the verifier's read |Du| here."""
    s = np.empty(D.shape)
    s[..., 0] = 0.0
    inner = s[..., 1:]
    np.add(D[..., :-1], D[..., 1:], out=inner)
    inner *= 0.5
    return s


class _Rung:
    """What stays fixed while one rung is solved for a batch of strengths:
    the rung's parameters, the grid's finite-volume weights and the
    truncated source rows, one per strength."""

    def __init__(self, specs: tuple, state: RegularizationState, grid: RadialGrid):
        m = grid.mesh_size
        dr = grid.spacing
        self.m, self.dr = m, dr
        self.p, self.eps, self.n = state.p, state.eps, state.n
        self.gamma = specs[0].gamma
        self.mw = grid.midpoint_weights
        self.volumes = grid.cell_volumes()[:m]  # W_i dr
        self.wd = self.volumes[1:] * dr  # W_i dr^2 of rows 1..M-1
        g = np.concatenate([s.source_values(grid.nodes)[:m] for s in specs]).reshape(len(specs), m)
        self.source = truncate(g, float(state.n))


class _Pieces:
    """The row set of a batch of strengths on one rung: for each row, the
    index of its strength in the batch (`rows`), its truncated source row,
    its state u and one evaluation of the rung equations at u, that is the
    residual and what the Jacobian there is built from (slopes D, gradient
    scale q, q^p and absorption h).

    `newton_solve` holds the strengths still iterating in one row set and
    its line-search trials in others: `accept` moves accepted trial rows in,
    states and pieces together, so no accepted residual is computed twice,
    and `take` is the only way rows leave.  What `evaluate` fills is named
    once, in `arrays`, which both of them move."""

    arrays = ("u", "residual", "D", "q", "qp", "h")
    __slots__ = ("rung", "rows", "source") + arrays

    def __init__(self, rung: _Rung, rows: np.ndarray, source: np.ndarray):
        self.rung = rung
        self.rows = rows
        self.source = source

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Fill the pieces at the states u, shape (rows, M+1), which the row
        set keeps; return the residual
        -(F_{i+1/2} - F_{i-1/2}) / (W_i dr) + h_n(u_i) q_i^p - g_n(r_i)."""
        r = self.rung
        D = np.diff(u)
        D /= r.dr
        F = regularized_flux(D, r.p, r.eps)
        F *= r.mw
        div = _fv_divergence(F, r.volumes)
        q = np.hypot(_centered_slopes(D), r.eps)
        h = absorption_truncated(u[:, :r.m], r.n, r.gamma)
        qp = q**r.p
        residual = h * qp
        residual -= div
        residual -= self.source
        self.u, self.residual, self.D, self.q, self.qp, self.h = u, residual, D, q, qp, h
        return residual

    def accept(self, trial: "_Pieces", at: np.ndarray, ok: np.ndarray) -> None:
        """Take the states and pieces of the trial rows `ok` as those of
        rows `at`."""
        if ok.all() and at.size == len(self.residual):
            for name in self.arrays:
                setattr(self, name, getattr(trial, name))
            return
        for name in self.arrays:
            getattr(self, name)[at[ok]] = getattr(trial, name)[ok]

    def take(self, keep: np.ndarray) -> "_Pieces":
        """The row set of the rows `keep` only."""
        out = _Pieces(self.rung, self.rows[keep], self.source[keep])
        for name in self.arrays:
            setattr(out, name, getattr(self, name)[keep])
        return out

    def jacobian(self) -> np.ndarray:
        """The exact tridiagonal Jacobian at the states the pieces were
        evaluated at, in banded storage (rows: super, diagonal, sub) over
        u_0..u_{M-1}; the K blocks are stacked into one (3, K*M) matrix
        whose entries coupling adjacent blocks are 0."""
        r = self.rung
        D, q, qp = self.D, self.q, self.qp
        dr = r.dr
        p = r.p
        # flux sensitivities scaled into each row, written straight into the
        # banded rows: ab[0, ..., j] couples row j-1 to u_j, ab[2, ..., j] row j+1
        c = regularized_flux_prime(D, p, r.eps)  # one per midpoint
        c *= r.mw
        dhq = absorption_truncated_prime(self.u[:, :r.m], r.n, r.gamma)
        dhq *= qp
        # the absorption's dependence on u_{i-1} and u_{i+1}, through the
        # centred slope s_i = (u_{i+1} - u_{i-1}) / (2 dr): p h_i q_i^(p-2) s_i
        # / (2 dr); q_i does not depend on u_i, and q_0 = eps on no unknown
        hs = q[:, 1:] ** (p - 2.0)
        hs *= self.h[:, 1:] * p
        hs *= _centered_slopes(D)[:, 1:]
        hs *= 0.5 / dr
        ab = np.empty((3,) + D.shape)
        ab[0, :, 0] = 0.0
        ab[2, :, -1] = 0.0
        # origin row: only the right midpoint enters
        c0 = c[:, 0] / (r.volumes[0] * dr)
        ab[1, :, 0] = c0 + dhq[:, 0]
        ab[0, :, 1] = -c0
        diag = ab[1, :, 1:]
        np.add(c[:, 1:], c[:, :-1], out=diag)
        diag /= r.wd
        diag += dhq[:, 1:]
        sub = ab[2, :, :-1]
        np.negative(c[:, :-1], out=sub)
        sub /= r.wd
        sub -= hs
        sup = ab[0, :, 2:]
        np.negative(c[:, 1:-1], out=sup)
        sup /= r.wd[:-1]
        sup += hs[:, :-1]
        return ab.reshape(3, -1)


def _entry(spec, state: RegularizationState, grid: RadialGrid, u: np.ndarray) -> _Pieces:
    """The row set of a public call, evaluated at its validated states: one
    ProblemSpec with u of shape (M+1,), or K of them with u of shape
    (K, M+1).  It holds a copy of u, which `newton_solve` iterates in place."""
    specs = _strengths(spec)
    rung = _Rung(specs, state, grid)
    u = _check_iterate(grid, u, None if isinstance(spec, ProblemSpec) else len(specs))
    pieces = _Pieces(rung, np.arange(len(specs)), rung.source)
    pieces.evaluate(u.reshape(len(specs), -1).copy())
    return pieces


def assemble_residual(spec, state: RegularizationState, grid: RadialGrid, u: np.ndarray, pieces=None) -> np.ndarray:
    """Nodal residual of the discrete rung equations at nodes 0..M-1:

    residual_i = -(F_{i+1/2} - F_{i-1/2}) / (W_i dr) + h_n(u_i) q_i^p - g_n(r_i)

    with F the midpoint-weighted smoothed flux, F_{-1/2} = 0 (symmetry) and
    q_i = hypot(s_i, eps) of the centred slope s_i (`_centered_slopes`).
    Shapes as in `assemble_system`, which returns the same residual bits.

    `pieces` is internal to `newton_solve`: an unfilled `_Pieces` of its
    rung for these strengths, filled here at u of shape (K, M+1)."""
    if pieces is not None:
        return pieces.evaluate(u)
    return _entry(spec, state, grid, u).residual.reshape(np.shape(u)[:-1] + (-1,))


def assemble_system(spec, state: RegularizationState, grid: RadialGrid, u: np.ndarray, pieces=None):
    """Residual plus its exact tridiagonal Jacobian in banded storage (rows:
    super, diagonal, sub) over the unknowns u_0..u_{M-1}.

    For one ProblemSpec and u of shape (M+1,): a residual of shape (M,) and
    a (3, M) banded matrix.  For K specs and u of shape (K, M+1): residuals
    of shape (K, M) and the K Jacobians stacked block-diagonally as (3, K*M),
    with the entries coupling adjacent blocks 0, so one banded solve serves
    every strength.

    `pieces` is internal to `newton_solve`: the row set already evaluated
    at u of shape (K, M+1), from which the Jacobian is built without
    computing the residual again."""
    if pieces is None:
        pieces = _entry(spec, state, grid, u)
    return pieces.residual.reshape(np.shape(u)[:-1] + (-1,)), pieces.jacobian()


def _row_allowance(ab: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest residual each row can express: moving one unknown by an ulp
    changes row i by up to rowsum|J_i| ulp(u).  On plateau rows the flux
    slope is phi'(0) ~ eps^(p-2), so this floor dwarfs any fixed tolerance;
    on moving rows it stays near machine precision.  `ab` holds the stacked
    Jacobians of the K states in u (shape (K, M+1)); their zero coupling
    entries add nothing across blocks."""
    rowsum = np.abs(ab[1])
    rowsum[:-1] += np.abs(ab[0][1:])
    rowsum[1:] += np.abs(ab[2][:-1])
    scale = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(u).max(axis=1))
    return scale[:, None] * rowsum.reshape(u.shape[0], -1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed by numpy rather than by a BLAS dot
    product: above 10 000 elements that wakes BLAS worker threads, which
    then spin without helping."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper, the extension module behind
    scipy.linalg.lapack, loaded from its file once per process.  Finding the
    scipy package runs none of its code, so neither scipy/__init__.py nor
    scipy/linalg/__init__.py is imported."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("the banded solve needs scipy", name="scipy")
    path = os.path.join(scipy.submodule_search_locations[0], "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    # CPython files the module in sys.modules under this name; one inside
    # scipy.linalg would stand for a package that was never imported
    loader = importlib.machinery.ExtensionFileLoader("onelap._flapack", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in banded form ab (shape (3, M),
    ab[1 + i - j, j] = a[i, j]) for the float64 right-hand side b.

    This is scipy.linalg.solve_banded((1, 1), ab, b) without its input
    validation: the same LAPACK routine dgtsv, from the same compiled
    wrapper, on the same diagonals, so the solution agrees bit for bit.  The
    wrapper is loaded at the first call, so no command imports scipy.linalg.
    A zero pivot raises LinAlgError("singular matrix").
    """
    # dgtsv works on copies, so ab stays intact for _newton_steps' fallback;
    # letting it overwrite b as well saves a copy, but on the solve-fine
    # benchmark workload that raised peak memory by about 3 MB
    *_, x, info = _flapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgtsv")
    return x


def _newton_steps(ab: np.ndarray, residual: np.ndarray):
    """Solve the K stacked tridiagonal systems for the (K, M) right-hand
    sides -residual in one banded solve.

    With the coupling entries 0, LAPACK's gtsv never pivots across a block
    boundary and eliminates with a zero multiplier there, so each block gets
    exactly its own solution.  A singular block stops that sweep, and a block
    whose elimination overflows leaks NaN into the next one (0 * inf), so in
    either case the blocks are solved one at a time and only the bad ones
    fail.  Returns the steps and a {row: "singular" or "non_finite"} map."""
    k, m = residual.shape
    try:
        step = solve_banded(ab, -residual.ravel()).reshape(k, m)
        if np.isfinite(step).all():
            return step, {}
    except np.linalg.LinAlgError:
        pass
    blocks = ab.reshape(3, k, m)
    step = np.zeros((k, m))
    failed = {}
    for j in range(k):
        try:
            step[j] = solve_banded(blocks[:, j], -residual[j])
        except np.linalg.LinAlgError:
            failed[j] = "singular"
            continue
        if not np.isfinite(step[j]).all():
            failed[j] = "non_finite"
    return step, failed


@dataclass(frozen=True)
class BatchSolution:
    """One rung solved for K strengths at once.  `results` holds, in input
    order, each strength's DiscreteSolution, converged or not;
    `iterations` is the largest per-strength iteration count, the number of
    batched iterations."""

    results: tuple
    iterations: int


# Newton's stopping rule (see `newton_solve`) and a ladder rung's budget of
# iterations and line-search trials; a nested attempt gets _NESTED_MAX_ITER.
_NEWTON_TOL = 1e-9
_STEP_TOL = 1e-12
_MAX_ITER = 200
_MAX_TRIALS = 50


def newton_solve(
    spec,
    state: RegularizationState,
    grid: RadialGrid,
    u0: np.ndarray,
    max_iter: int = _MAX_ITER,
    max_trials: int = _MAX_TRIALS,
):
    """Damped Newton on the rung equations from the iterate u0.

    Convergence is row-wise: every residual entry must drop below
    _NEWTON_TOL or below that row's float-resolution allowance, whichever
    is larger (stop_reason "residual" vs "float_floor").  A proposed step
    below _STEP_TOL relative to the iterate also stops the loop
    ("stagnation").  Line search is Armijo backtracking with strict
    decrease on the allowance-weighted residual 2-norm; the weighting keeps
    plateau quantization noise at O(1) per row so progress on the few
    genuinely unconverged rows stays visible.  Each search halves alpha
    from its start for at most max_trials trials, and a dead end stalls the
    strength.  The start is not always 1: a strength remembers the alpha
    it last accepted in this call, and its next search starts at
    min(1, 2 alpha), so a strength crawling at alpha ~ 2^-15 does not pay
    15 rejected trials per step (damping-factor prediction, Deuflhard 2004,
    sec. 3.1).  The memory starts at 1 on every call, that is on every
    rung.  `residual_evals` counts the strength's first evaluation plus
    every trial it took part in.

    A strength fails its rung when it runs out of its max_iter iterations or
    meets a line search dead end ("stalled"), or when its banded solve is
    singular ("singular") or gives a non-finite step ("non_finite").  Its
    DiscreteSolution then holds its last iterate, with that stop reason.

    Given K specs and u0 of shape (K, M+1), the K strengths iterate
    together: each iteration assembles and solves the strengths still
    iterating in one call each, while every strength keeps its own stop
    test, damping and backtracking.  A strength that converges waits; one
    that fails drops out alone.  The result is a BatchSolution.  One spec is
    the K=1 case, on the same path: its DiscreteSolution is returned.

    The strengths still iterating are one row set (`_Pieces`): a row holds
    its strength's index, state, residual and Jacobian pieces, the line
    search moves accepted trials into it, and every exit ends its strengths
    through `leave`, which picks every stop reason and keeps the other rows
    with one `_Pieces.take`.
    """
    specs = _strengths(spec)
    m = grid.mesh_size
    results = [None] * len(specs)
    # per strength: the alpha its last line search accepted, and its kernel
    # evaluations so far
    last_alpha = np.ones(len(specs))
    evals = np.ones(len(specs), dtype=int)

    def leave(gone, its, cause):
        """End the strengths in the rows `gone` of the row set after `its`
        iterations.  A row stops on "residual" when its max |residual| is at
        most _NEWTON_TOL, otherwise on the cause its exit names (one stop
        reason for all rows, or one per row).  Rows at the stagnation (or
        singular) and dead-end exits failed the done test, whose allowance
        is at least _NEWTON_TOL, so they keep their cause.  Returns the row
        set of the rows that stay."""
        for j in np.flatnonzero(gone):
            i = pieces.rows[j]
            norm = float(np.abs(pieces.residual[j]).max())
            why = "residual" if norm <= _NEWTON_TOL else (cause if isinstance(cause, str) else cause[j])
            results[i] = DiscreteSolution(
                u=pieces.u[j].copy(),
                z=regularized_flux(pieces.D[j], state.p, state.eps),
                residual=pieces.residual[j].copy(),
                state=state,
                iterations=its,
                residual_norm=norm,
                residual_evals=int(evals[i]),
                stop_reason=why,
            )
        return pieces.take(~gone)

    pieces = _entry(spec, state, grid, u0)
    _, ab = assemble_system(specs, state, grid, pieces.u, pieces=pieces)
    its = 0
    for its in range(1, max_iter + 1):
        allow = np.maximum(_NEWTON_TOL, _row_allowance(ab, pieces.u))
        done = (np.abs(pieces.residual) <= allow).all(axis=1)
        if any(done):
            pieces = leave(done, its - 1, "float_floor")
            if not pieces.rows.size:
                break
            ab = ab.reshape(3, done.size, m)[:, ~done].reshape(3, -1)
            allow = allow[~done]
        step, failed = _newton_steps(ab, pieces.residual)
        stop = np.abs(step).max(axis=1) <= _STEP_TOL * (1.0 + np.abs(pieces.u).max(axis=1))
        stop[list(failed)] = True
        if any(stop):
            pieces = leave(stop, its - 1, [failed.get(j, "stagnation") for j in range(stop.size)])
            if not pieces.rows.size:
                break
            allow, step = allow[~stop], step[~stop]
        rnorm = _row_norms(pieces.residual / allow)
        # rows still trying are held at pos of the row set, each with its own alpha
        alpha = np.minimum(1.0, 2.0 * last_alpha[pieces.rows])
        accepted = np.zeros(pieces.rows.size, dtype=bool)
        pos = np.arange(pieces.rows.size)
        for _ in range(max_trials):
            trial = pieces.u[pos]
            trial[:, :m] += alpha[:, None] * step
            tried = _Pieces(pieces.rung, pieces.rows[pos], pieces.source[pos])
            tres = assemble_residual(tuple(specs[i] for i in tried.rows), state, grid, trial, pieces=tried)
            evals[tried.rows] += 1
            tnorm = _row_norms(tres / allow)
            ok = (tnorm < rnorm) & (tnorm <= (1.0 - 1e-4 * alpha) * rnorm)
            if any(ok):
                accepted[pos[ok]] = True
                last_alpha[tried.rows[ok]] = alpha[ok]
                pieces.accept(tried, pos, ok)
                if all(ok):
                    break
                pos, step, allow, rnorm, alpha = pos[~ok], step[~ok], allow[~ok], rnorm[~ok], alpha[~ok]
            alpha *= 0.5
        if not all(accepted):
            # a line-search dead end ends the strength on its last iterate
            pieces = leave(~accepted, its, "stalled")
            if not pieces.rows.size:
                break
        _, ab = assemble_system(tuple(specs[i] for i in pieces.rows), state, grid, pieces.u, pieces=pieces)
    else:
        leave(np.ones(pieces.rows.size, dtype=bool), its, "stalled")
    if isinstance(spec, ProblemSpec):
        return results[0]
    return BatchSolution(results=tuple(results), iterations=max(r.iterations for r in results))


# a midpoint slope of at most this magnitude is flat: the plateau ends at the
# first steeper one, and `verify` checks the pairing z . Du = |Du| on those
SLOPE_FLOOR = 1e-6


def plateau_extent(grid: RadialGrid, u: np.ndarray) -> float:
    """Radius of the flat core: the last node before the first midpoint whose
    slope magnitude exceeds SLOPE_FLOOR, the full radius if none does."""
    D = np.diff(u) / grid.spacing
    steep = np.nonzero(np.abs(D) > SLOPE_FLOOR)[0]
    if steep.size == 0:
        return grid.radius
    return float(grid.nodes[steep[0]])


def gradient_mass(grid: RadialGrid, u: np.ndarray, p: float) -> float:
    """Discrete integral of |Du|^p over the domain (midpoint rule with the
    full sphere factor)."""
    D = np.diff(u) / grid.spacing
    return float(
        sphere_area(grid.dim)
        * grid.spacing
        * np.sum(grid.midpoint_weights * np.abs(D) ** p)
    )


# Grid sequencing (nested iteration; Brandt 1977, Knoll & Keyes 2004): only
# the deep rungs, p <= _DEEP_P, carry boundary layers that need the full
# mesh.  A mesh of M >= _SEQUENCE_FACTOR * _SEQUENCE_FLOOR cells climbs the
# whole ladder on the coarsest of M, M // 4, M // 16, ... that keeps at least
# _SEQUENCE_FLOOR cells.  Each finer mesh solves only the last rung from the
# coarser end states, in at most _NESTED_MAX_ITER Newton iterations, and a
# strength that fails this climbs the deep tail from the same start.
# The attempt's line searches take at most _NESTED_MAX_TRIALS trials, so a
# start far outside Newton's basin stalls at its first iteration instead of
# crawling through _NESTED_MAX_ITER of them (a damping-factor floor,
# Deuflhard 2004, sec. 3.1).  Measured on 2 vCPUs, on the unit-ball
# envelope slices (dims 1-3 batched):
# - sequenced, the M = 4000 slice certifies 32 points against 22 on M alone;
#   factor 2 with a one-rung tail sent 8 strengths there back to the full
#   climb (5.4 s against 4.3 s for the slice);
# - a floor of 300 instead of 1000 sequences every M >= 1200 and climbs
#   M = 2000 and 8000 on 500 cells, M = 20000 on 312; those slices certify
#   36, 38 and 36 points instead of 29, 31 and 32, in 1.1, 2.4 and 6.8 s
#   of CPU instead of 2.4, 8.1 and 10.8 s.  A floor of 250 would sequence
#   M = 1000 and 4000 on 250 cells, where 5 of the 7 strengths of the
#   sweep-coarse benchmark's dim 1 sweep that converge fail the 1000-cell
#   attempt (that solve slows from 218 to 296 ms), and M = 4000 loses
#   dim 1 at lam = 8 and 10;
# - of the 258 attempts of the slices at M = 2000, 4000, 8000 and 20000,
#   154 succeed with 50 trials, 153 with 8, 151 with 6 and 148 with 4; the
#   certified points are the same 142 with each, and the four slices take
#   13.8 s with 8 trials against 17.4 s with 50.  With 50, every attempt
#   that succeeds accepts alpha >= 1/8 at its first step, and 8 of the 104
#   that fail take 9-12 trials there (interval lam = 4 at M = 20000 does
#   on 5000 cells, then spends all 20 iterations at max residual 12.3);
# - the last rung took 7-8 iterations on the finest meshes of the
#   solve-fine benchmark, where the tail takes about 50.  Without the cap
#   of 20 iterations, about 30 % of the envelope attempts at M = 8000 and
#   20000 ran to _MAX_ITER (200).
# These figures predate the core-flux warm start of `_climb`.  With it, M =
# 2000 and 4000 climbed on M alone certify 35 of their 39 points against 36
# sequenced, and M = 8000 and 20000 from coarse meshes of 2000 and 1250
# cells 37 and 38 against 38 and 38.  With the centred slope of
# `_centered_slopes` in the absorption as well, those read 38 and 37, and 38
# and 39, against all 39 sequenced on each.
_SEQUENCE_FACTOR = 4
_SEQUENCE_FLOOR = 300
_DEEP_P = 1.0001
_NESTED_MAX_ITER = 20
_NESTED_MAX_TRIALS = 8


def _meshes(m: int) -> tuple:
    """The mesh sizes a continuation on m cells climbs, coarsest first."""
    meshes = [m]
    while meshes[-1] // _SEQUENCE_FACTOR >= _SEQUENCE_FLOOR:
        meshes.append(meshes[-1] // _SEQUENCE_FACTOR)
    return tuple(reversed(meshes))


# The flat core of a rung, as p -> 1, keeps its flux z (|z| < 1) while its
# slopes shrink like eps^(2-p), so each rung's warm start carries the core
# flux, not the slopes, across (see `_carry_core_flux`).  The core runs from
# the origin up to the first cell with |z| >= _SATURATED.  Measured on the
# 117-point unit-ball envelope grid (dims 1-3, lam in {0.5, 0.9, 1.1}N and
# N+1 ... N+10, M in {1000, 2000, 4000}, dims batched), points certified and
# batched Newton iterations: 0.99 gave 107 in 2709, 0.999 gave 108 in 1640,
# 0.9999 gave 108 in 1680, and 1.0 (every cell whose flux is below one) 104
# in 5749; the previous rung's u as it stood gave 100 in 4668.  The core must
# be contiguous: a plain mask |z| < C also picks saturated cells where |D| < 1
# puts |z| = |D|^(p-1) just below 1, and with C = 0.9995 and 0.9999 dim 1 at
# lam = 8 and 6 then stalled on 1000 cells (rungs 9 and 10).
_SATURATED = 0.999


def _slope_of_flux(z: np.ndarray, p: float, eps: float) -> np.ndarray:
    """The slopes s with regularized_flux(s, p, eps) = z, for z != 0.

    With s = eps t and y = |z| / eps^(p-1) this is t (1 + t^2)^((p-2)/2) = y,
    solved for ln t by 8 Newton steps.  In ln t the left side is increasing
    and concave, so Newton climbs to the root from below; both starts, ln y
    and, where y >= 1, ln y / (p-1) (the t >> 1 asymptote), lie below it."""
    ln_y = np.log(np.abs(z)) - (p - 1.0) * math.log(eps)
    w = np.where(ln_y >= 0.0, ln_y / (p - 1.0), ln_y)
    for _ in range(8):
        t2 = np.exp(2.0 * w)
        f = 0.5 * (p - 2.0) * np.log1p(t2) + w - ln_y
        w -= f / (1.0 + (p - 2.0) * t2 / (1.0 + t2))
    return np.copysign(eps * np.exp(w), z)


def _carry_core_flux(u: np.ndarray, z: np.ndarray, state: RegularizationState, dr: float) -> np.ndarray:
    """The start of the rung `state` from the converged states u (shape
    (K, M+1)) of the previous rung, whose midpoint fluxes are z (K, M): in
    each row's core, the cells from the origin up to its first cell with
    |z| >= _SATURATED, the slopes become those that give the same flux under
    the new rung's law, and the state is rebuilt from them inward from the
    core edge.  Every node outside the core keeps its bits.  A state on the
    trivial branch is all core.  Row by row, so a batch equals its single
    solves."""
    core = np.logical_and.accumulate(np.abs(z) < _SATURATED, axis=-1)
    moving = core & (z != 0.0)
    s = np.zeros(z.shape)
    s[moving] = _slope_of_flux(z[moving], state.p, state.eps)
    s *= dr
    drop = np.cumsum(s[:, ::-1], axis=-1)[:, ::-1]  # drop[i] = dr * sum of s_j for j >= i
    edge = u[np.arange(len(u)), core.sum(axis=-1)]  # the first node outside the core
    start = u.copy()
    start[:, :-1] = np.where(core, edge[:, None] - drop, u[:, :-1])
    return start


def _climb(specs: tuple, rungs: tuple, grid: RadialGrid, u: np.ndarray,
           max_iter: int = _MAX_ITER, max_trials: int = _MAX_TRIALS) -> list:
    """Climb the rungs, a tuple of RegularizationStates, in order on one
    grid from the states u, shape (K, M+1), warm-starting each rung: one
    batched `newton_solve` per rung, of at most max_iter iterations whose
    line searches take at most max_trials trials.  The first rung starts
    from u, which is never written; every later one from the solution of
    the rung before, whose core flux each climbing row carries into the new
    rung's slopes (`_carry_core_flux`).  Returns, in input order, each
    strength's final solution, whose `history` holds its rungs of this
    climb; for a strength that failed, that history runs through the failed
    rung, its last entry."""
    histories = [[] for _ in specs]
    results = [None] * len(specs)
    rows = list(range(len(specs)))  # strengths still climbing
    for k, st in enumerate(rungs):
        start = u
        if k:
            # the previous rung's core slopes are 10-30 times too steep for
            # this (p, eps), and from them Newton crawls on short steps
            last = [histories[i][-1] for i in rows]
            start = _carry_core_flux(np.array([s.u for s in last]), np.array([s.z for s in last]), st, grid.spacing)
        batch = newton_solve(tuple(specs[i] for i in rows), st, grid, start, max_iter, max_trials)
        climbing = []
        for i, sol in zip(rows, batch.results):
            if not sol.converged:
                results[i] = replace(sol, history=(*histories[i], sol))
                continue
            histories[i].append(sol)
            climbing.append(i)
        rows = climbing
        if not rows:
            break
    for i in rows:
        results[i] = replace(histories[i][-1], history=tuple(histories[i]))
    return results


def continuation_solve(spec, grid: RadialGrid):
    """Climb LADDER in order, warm-starting each rung, and return the final
    rung's solution, whose `history` holds every rung's solution in the
    order they were solved.  A strength that fails a rung returns that
    rung's solution, whose `converged` is false; its history ends with the
    failed rung, so that rung is `len(history) - 1` of LADDER.

    On a grid of 1200 cells or more the ladder is grid-sequenced (see
    `_meshes`): the coarsest mesh climbs the whole ladder, and each finer
    one, up to the grid's own, starts from the coarser end states, linearly
    interpolated onto its nodes, and solves only the last rung, with at
    most _NESTED_MAX_ITER (20) Newton iterations and line searches of at
    most _NESTED_MAX_TRIALS (8) trials (nested iteration), where a rung of
    a climb gets _MAX_ITER (200) and _MAX_TRIALS (50).  A strength that
    fails this attempt climbs the deep tail, the rungs with p <= 1.0001, on
    that mesh from the same start.  `history` then lists the coarse ladder,
    then each finer mesh's last rung or tail, the last entry on the grid; a
    rung's mesh is `u.size - 1`.  A failed attempt leaves no rung, so its
    iterations are in no `history` entry.  A strength that fails a tail
    climbs the whole ladder again on the grid from zero, so a failure, its
    rung and its history are those of a climb on the grid alone.

    Given a sequence of K specs sharing the singular exponent, the strengths
    climb each mesh together, one batched `newton_solve` per rung, and the
    result is a list in input order holding each strength's final solution,
    converged or not; a strength that fails drops out and the others carry
    on.  One spec is the K=1 case: its solution is returned.
    """
    specs = _strengths(spec)
    meshes = _meshes(grid.mesh_size)
    results = [None] * len(specs)
    if len(meshes) > 1:
        rows = list(range(len(specs)))  # strengths still sequenced
        earlier = [() for _ in specs]  # their rungs on the coarser meshes
        u = np.zeros((len(specs), meshes[0] + 1))
        coarse = None
        for m in meshes:
            if not rows:
                break
            fine = grid if m == grid.mesh_size else RadialGrid(grid.dim, grid.radius, m)
            if coarse is None:
                out = _climb(tuple(specs[i] for i in rows), LADDER, fine, u)
            else:
                u = np.array([np.interp(fine.nodes, coarse.nodes, v) for v in u])
                u[:, -1] = 0.0  # the boundary node, exactly
                out = _climb(tuple(specs[i] for i in rows), LADDER[-1:], fine, u, _NESTED_MAX_ITER, _NESTED_MAX_TRIALS)
                retry = [j for j, sol in enumerate(out) if not sol.converged]
                if retry:
                    for j, sol in zip(retry, _climb(tuple(specs[rows[j]] for j in retry), _TAIL, fine, u[retry])):
                        out[j] = sol
            kept = [j for j, sol in enumerate(out) if sol.converged]
            for j in kept:
                earlier[rows[j]] += out[j].history
            u = np.array([out[j].u for j in kept])
            rows = [rows[j] for j in kept]
            coarse = fine
        for i in rows:
            results[i] = replace(earlier[i][-1], history=earlier[i])
    again = [i for i, sol in enumerate(results) if sol is None]
    if again:
        u = np.zeros((len(again), grid.mesh_size + 1))
        for i, sol in zip(again, _climb(tuple(specs[i] for i in again), LADDER, grid, u)):
            results[i] = sol
    return results[0] if isinstance(spec, ProblemSpec) else results


@dataclass(frozen=True)
class AprioriReport:
    """Discrete analogues of the energy bounds: the p-gradient mass and the
    absorption mass are both controlled by the source mass."""

    gradient_mass: float
    absorption_mass: float
    source_mass: float
    gradient_bound_ok: bool
    absorption_bound_ok: bool


_APRIORI_SLACK = 0.05


def apriori_bounds_report(spec: ProblemSpec, state: RegularizationState, grid: RadialGrid, u: np.ndarray) -> AprioriReport:
    pieces = _entry(spec, state, grid, u)  # the solver's own h_n(u) and q^p
    area = sphere_area(grid.dim)
    grad = gradient_mass(grid, pieces.u[0], state.p)
    vols = grid.cell_volumes()
    absorb = float(area * np.sum(pieces.h[0] * pieces.qp[0] * vols[:grid.mesh_size]))
    lam = spec.constant_source
    if lam is not None:
        # exact mass lam * omega_N * R^N for a constant source
        source = lam * unit_ball_volume(grid.dim) * grid.radius**grid.dim
    else:
        source = float(area * np.sum(spec.source_values(grid.nodes) * vols))
    budget = source * (1.0 + _APRIORI_SLACK)
    return AprioriReport(
        gradient_mass=grad,
        absorption_mass=absorb,
        source_mass=source,
        gradient_bound_ok=grad <= budget,
        absorption_bound_ok=absorb <= budget,
    )


# The continuation ladder: p falls to 1.000001 over 13 rungs, n grows by
# decades from 100 up to 1e8, and eps follows (p-1)^2 clamped into
# [1e-8, 1e-3].  The truncation h_n shifts 1 - u by 1/n: capped at 1e6, that
# shift was a 2 % absorption error where the core sits 5e-5 below 1 (dim 1
# at lam = 11), and the verifier's flux balance failed there.  The deep tail
# is what collapses boundary layers of width (p-1) below mesh resolution,
# which the rigidity and plateau tests rely on; the eps floor keeps plateau
# slopes two decades under SLOPE_FLOOR, which detects the plateau, while
# staying coarse enough that float64 can still resolve the plateau flux
# profile.  `continuation_solve` climbs this ladder and no other.
LADDER = tuple(
    RegularizationState(
        p=p,
        n=min(100 * 10**k, 100_000_000),
        eps=min(max((p - 1.0) ** 2, 1e-8), 1e-3),
    )
    for k, p in enumerate(
        (1.5, 1.3, 1.1, 1.05, 1.01, 1.003, 1.001, 1.0003, 1.0001, 1.00003, 1.00001, 1.000003, 1.000001)
    )
)
# the deep tail, which a strength climbs on a finer mesh when its nested
# attempt at the last rung fails
_TAIL = tuple(st for st in LADDER if st.p <= _DEEP_P)
# the largest flux sensitivity of any rung, phi'(0) = eps^(p-2) (1e8 on the last)
_PEAK_SENSITIVITY = max(st.eps ** (st.p - 2.0) for st in LADDER)
