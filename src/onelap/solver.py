"""Radial finite-difference solver for the regularized absorption problem.

The continuous target is the singular limit problem; what is actually solved
on each rung is the p-Laplacian surrogate with truncated absorption,

    -div(|Du|^(p-2) Du) + h_n(u) |Du|^p = T_n(g),   u = 0 on the boundary,

on a uniform radial grid over [0, R], with the gradient norm smoothed through
eps: phi(s) = (s^2 + eps^2)^((p-2)/2) s.  A continuation schedule drives
p -> 1, n -> infinity, eps -> 0, warm-starting each rung from the last.
Fluxes live on cell midpoints; the divergence is the finite-volume balance
over the cell [r_{i-1/2}, r_{i+1/2}] with exact cell averages of r^(N-1), so
a linear-in-r flux field has exactly constant discrete divergence.  Each rung
is solved by a damped Newton iteration on the exact tridiagonal Jacobian.

Deep rungs sit at the edge of what float64 can represent: the flux slope
d(phi)/d(slope) reaches 1/eps on the plateau, so moving a nodal value by one
ulp moves plateau residual rows by roughly ulp(u)/(eps dr^2).  The iteration
therefore stops either on a small residual or on a Newton step below float
resolution, and reports which; the eps floor below is chosen so that the
unavoidable plateau residual stays well under the verifier's tolerances.
"""

from __future__ import annotations

import math
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
    "ContinuationSchedule",
    "AprioriReport",
    "NonConvergence",
    "SingularJacobian",
    "BatchSolution",
    "regularized_flux",
    "regularized_flux_prime",
    "assemble_residual",
    "assemble_system",
    "newton_solve",
    "continuation_solve",
    "reconstruct_flux",
    "plateau_extent",
    "gradient_mass",
    "apriori_bounds_report",
    "schedule_preset",
]

SourceTerm = Union[float, Callable[[np.ndarray], np.ndarray]]


class NonConvergence(RuntimeError):
    """Newton failed a rung; carries the last iterate so callers can still
    write a report."""

    def __init__(self, message, last=None, rung=None):
        super().__init__(message)
        self.last = last
        self.rung = rung


class SingularJacobian(RuntimeError):
    """The tridiagonal system lost rank, typically eps too small for the
    current p on an exact plateau."""

    def __init__(self, message, rung=None):
        super().__init__(message)
        self.rung = rung


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
        if isinstance(self.source, (int, float)):
            if not float(self.source) >= 0.0:
                raise ValueError("source must be nonnegative")

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
        m = self.mesh_size
        if int(m) != m or m < 8:
            raise ValueError(f"mesh size must be an integer >= 8, got {m!r}")
        n = int(self.dim)
        dr = self.radius / m
        nodes = np.linspace(0.0, self.radius, m + 1)
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        faces = np.concatenate(([0.0], mids))  # inner faces of cells 0..M-1
        outer = np.concatenate((mids, [self.radius]))
        cell_w = (outer**n - faces**n) / (n * dr)
        object.__setattr__(self, "spacing", dr)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "midpoints", mids)
        object.__setattr__(self, "node_weights", cell_w)  # one per node 0..M
        object.__setattr__(self, "midpoint_weights", mids ** (n - 1))

    @classmethod
    def uniform(cls, domain: DomainSpec, mesh_size: int) -> "RadialGrid":
        return cls(dim=domain.dim, radius=domain.radius, mesh_size=mesh_size)

    def cell_volumes(self) -> np.ndarray:
        """Radial cell measures (r_{i+1/2}^N - r_{i-1/2}^N)/N, one per node;
        they telescope exactly to R^N / N."""
        return self.node_weights * self.spacing


@dataclass(frozen=True)
class DiscreteSolution:
    """Nodal state, midpoint flux, and nodal residual for one rung."""

    u: np.ndarray
    z: np.ndarray
    residual: np.ndarray
    state: RegularizationState
    converged: bool
    iterations: int
    residual_norm: float
    stop_reason: str = "residual"
    history: tuple = ()  # after a continuation: each rung's solution, this one's last


@dataclass(frozen=True)
class ContinuationSchedule:
    states: tuple
    newton_tol: float = 1e-9
    step_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("schedule needs at least one rung")
        object.__setattr__(self, "states", states)
        for a, b in zip(states, states[1:]):
            if not b.p < a.p:
                raise ValueError("schedule must decrease p strictly")
            if b.n < a.n:
                raise ValueError("schedule must not decrease n")
            if b.eps > a.eps:
                raise ValueError("schedule must not increase eps")


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


def _nodal_gradient_scale(D: np.ndarray, eps: float) -> np.ndarray:
    """q_i = sqrt of the mean of the two adjacent squared slopes plus eps^2,
    one row per strength; at the origin the reflected ghost slope makes the
    mean a plain square."""
    q = np.empty(D.shape)
    for row, d in zip(q.reshape(-1, D.shape[-1]), D.reshape(-1, D.shape[-1])):
        row[0] = math.hypot(d[0], eps)
    sq = D * D
    inner = q[..., 1:]
    np.add(sq[..., :-1], sq[..., 1:], out=inner)
    inner *= 0.5
    inner += eps * eps
    np.sqrt(inner, out=inner)
    return q


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
    """One evaluation of the rung equations for a batch of strengths, one
    row each: the residual and what the Jacobian at the same state is built
    from (slopes D, gradient scale q, q^p and absorption h).

    `source` holds the truncated source rows of these strengths.  The
    Newton iteration keeps the pieces of its current iterate and of its
    line-search trials, so that no accepted residual is computed twice."""

    __slots__ = ("rung", "source", "residual", "D", "q", "qp", "h")
    arrays = ("residual", "D", "q", "qp", "h")

    def __init__(self, rung: _Rung, source: np.ndarray):
        self.rung = rung
        self.source = source

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Fill the pieces at the states u, shape (rows, M+1); return the
        residual -(F_{i+1/2} - F_{i-1/2}) / (W_i dr) + h_n(u_i) q_i^p - g_n(r_i)."""
        r = self.rung
        D = np.diff(u)
        D /= r.dr
        F = regularized_flux(D, r.p, r.eps)
        F *= r.mw
        div = _fv_divergence(F, r.volumes)
        q = _nodal_gradient_scale(D, r.eps)
        h = absorption_truncated(u[:, :r.m], r.n, r.gamma)
        qp = q**r.p
        residual = h * qp
        residual -= div
        residual -= self.source
        self.residual, self.D, self.q, self.qp, self.h = residual, D, q, qp, h
        return residual

    def accept(self, trial: "_Pieces", at: np.ndarray, ok: np.ndarray) -> None:
        """Take the pieces of the trial rows `ok` as those of rows `at`."""
        if ok.all() and at.size == len(self.residual):
            for name in self.arrays:
                setattr(self, name, getattr(trial, name))
            return
        for name in self.arrays:
            getattr(self, name)[at[ok]] = getattr(trial, name)[ok]

    def take(self, keep: np.ndarray) -> "_Pieces":
        """The pieces of the rows `keep` only."""
        out = _Pieces(self.rung, self.source[keep])
        for name in self.arrays:
            setattr(out, name, getattr(self, name)[keep])
        return out

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """The exact tridiagonal Jacobian at the states u the pieces were
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
        dhq = absorption_truncated_prime(u[:, :r.m], r.n, r.gamma)
        dhq *= qp
        hq = q ** (p - 2.0)
        hq *= self.h * p
        ab = np.empty((3,) + D.shape)
        ab[0, :, 0] = 0.0
        ab[2, :, -1] = 0.0
        # origin row: only the right midpoint enters, and q_0 = hypot(D_0, eps)
        c0 = c[:, 0] / (r.volumes[0] * dr)
        slope0 = hq[:, 0] * D[:, 0] / dr
        ab[1, :, 0] = c0 + dhq[:, 0] - slope0
        ab[0, :, 1] = -c0 + slope0
        half = 0.5 / dr
        hq = hq[:, 1:]
        tmp = np.empty(hq.shape)
        diag = ab[1, :, 1:]
        np.add(c[:, 1:], c[:, :-1], out=diag)
        diag /= r.wd
        diag += dhq[:, 1:]
        np.subtract(D[:, :-1], D[:, 1:], out=tmp)
        tmp *= hq
        tmp *= half
        diag += tmp
        sub = ab[2, :, :-1]
        np.negative(c[:, :-1], out=sub)
        sub /= r.wd
        np.multiply(hq, D[:, :-1], out=tmp)
        tmp *= half
        sub -= tmp
        sup = ab[0, :, 2:]
        np.negative(c[:, 1:-1], out=sup)
        sup /= r.wd[:-1]
        tmp = tmp[:, 1:]
        np.multiply(hq[:, :-1], D[:, 1:-1], out=tmp)
        tmp *= half
        sup += tmp
        return ab.reshape(3, -1)


def _entry(spec, state: RegularizationState, grid: RadialGrid, u: np.ndarray):
    """Validated pieces and states for a public call: one ProblemSpec with u
    of shape (M+1,), or K of them with u of shape (K, M+1)."""
    specs = _strengths(spec)
    rung = _Rung(specs, state, grid)
    u = _check_iterate(grid, u, None if isinstance(spec, ProblemSpec) else len(specs))
    return _Pieces(rung, rung.source), u.reshape(len(specs), -1)


def assemble_residual(spec, state: RegularizationState, grid: RadialGrid, u: np.ndarray, pieces=None) -> np.ndarray:
    """Nodal residual of the discrete rung equations at nodes 0..M-1:

    residual_i = -(F_{i+1/2} - F_{i-1/2}) / (W_i dr) + h_n(u_i) q_i^p - g_n(r_i)

    with F the midpoint-weighted smoothed flux and F_{-1/2} = 0 (symmetry).
    Shapes as in `assemble_system`, which returns the same residual bits.

    `pieces` is internal to `newton_solve`: an unfilled `_Pieces` of its
    rung for these strengths, filled here at u of shape (K, M+1)."""
    if pieces is not None:
        return pieces.evaluate(u)
    pieces, rows = _entry(spec, state, grid, u)
    return pieces.evaluate(rows).reshape(np.shape(u)[:-1] + (-1,))


def assemble_system(spec, state: RegularizationState, grid: RadialGrid, u: np.ndarray, pieces=None):
    """Residual plus its exact tridiagonal Jacobian in banded storage (rows:
    super, diagonal, sub) over the unknowns u_0..u_{M-1}.

    For one ProblemSpec and u of shape (M+1,): a residual of shape (M,) and
    a (3, M) banded matrix.  For K specs and u of shape (K, M+1): residuals
    of shape (K, M) and the K Jacobians stacked block-diagonally as (3, K*M),
    with the entries coupling adjacent blocks 0, so one banded solve serves
    every strength.

    `pieces` is internal to `newton_solve`: the `_Pieces` already evaluated
    at u of shape (K, M+1), from which the Jacobian is built without
    computing the residual again."""
    if pieces is not None:
        return pieces.residual, pieces.jacobian(u)
    pieces, rows = _entry(spec, state, grid, u)
    residual = pieces.evaluate(rows).reshape(np.shape(u)[:-1] + (-1,))
    return residual, pieces.jacobian(rows)


def reconstruct_flux(state: RegularizationState, grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Midpoint flux z_{i+1/2} = phi(D_{i+1/2}), the discrete stand-in for
    |Du|^(p-2) Du whose p -> 1 limit is the certifying field."""
    u = _check_iterate(grid, u)
    return regularized_flux(np.diff(u) / grid.spacing, state.p, state.eps)


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


def solve_banded(l_and_u, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in banded form ab (shape (3, M),
    ab[1 + i - j, j] = a[i, j]) for the float64 right-hand side b.

    This is scipy.linalg.solve_banded((1, 1), ab, b) without its input
    validation: the same LAPACK routine dgtsv on the same diagonals, so the
    solution agrees bit for bit.  scipy is imported here, at the first call,
    so the commands that never solve start without it.  A zero pivot raises
    LinAlgError("singular matrix").
    """
    from scipy.linalg.lapack import dgtsv

    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only tridiagonal systems, (l, u) = (1, 1), are supported, got {l_and_u!r}")
    # dgtsv works on copies, so ab stays intact for _newton_steps' fallback;
    # letting it overwrite b as well saves a copy, but on the solve-fine
    # benchmark workload that raised peak memory by about 3 MB
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
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
    fail.  Returns the steps and a {row: SingularJacobian} map."""
    k, m = residual.shape
    try:
        step = solve_banded((1, 1), ab, -residual.ravel()).reshape(k, m)
        if np.isfinite(step).all():
            return step, {}
    except np.linalg.LinAlgError:
        pass
    blocks = ab.reshape(3, k, m)
    step = np.zeros((k, m))
    failed = {}
    for j in range(k):
        try:
            step[j] = solve_banded((1, 1), blocks[:, j], -residual[j])
        except np.linalg.LinAlgError as exc:
            failed[j] = SingularJacobian(str(exc))
            continue
        if not np.isfinite(step[j]).all():
            failed[j] = SingularJacobian("non-finite Newton step")
    return step, failed


def _one(result):
    """The K=1 case of a batched result: the solution, or its exception
    raised."""
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class BatchSolution:
    """One rung solved for K strengths at once.  `results` holds, in input
    order, each strength's DiscreteSolution or the exception that ended it
    alone (NonConvergence or SingularJacobian); `iterations` is the largest
    per-strength iteration count, the number of batched iterations."""

    results: tuple
    iterations: int


def newton_solve(
    spec,
    state: RegularizationState,
    grid: RadialGrid,
    u0: np.ndarray,
    tol: float = 1e-9,
    step_tol: float = 1e-12,
    max_iter: int = 200,
):
    """Damped Newton on the rung equations from the iterate u0.

    Convergence is row-wise: every residual entry must drop below tol or
    below that row's float-resolution allowance, whichever is larger
    (stop_reason "residual" vs "float_floor").  A proposed step below
    step_tol relative to the iterate also stops the loop ("stagnation").
    Line search is Armijo backtracking with strict decrease on the
    allowance-weighted residual 2-norm; the weighting keeps plateau
    quantization noise at O(1) per row so progress on the few genuinely
    unconverged rows stays visible.  A dead end raises NonConvergence.

    Given K specs and u0 of shape (K, M+1), the K strengths iterate
    together: each iteration assembles and solves the strengths still
    iterating in one call each, while every strength keeps its own stop
    test, damping and backtracking.  A strength that converges waits; one
    that stalls or meets a singular Jacobian drops out alone.  The result is
    a BatchSolution.  One spec is the K=1 case: its DiscreteSolution is
    returned and its exception raised.
    """
    specs = _strengths(spec)
    single = isinstance(spec, ProblemSpec)
    m = grid.mesh_size
    results = [None] * len(specs)
    counts = [0] * len(specs)

    def leave(gone, its, reason):
        """End the strengths in the rows `gone` after `its` iterations.  A
        row's reason is a stop reason (one for all rows, or one per row) or
        the exception that ended it; "stalled" ends it in NonConvergence.
        Returns the mask of the rows that stay."""
        for j in np.flatnonzero(gone):
            why = reason if isinstance(reason, str) else reason[j]
            counts[rows[j]] = its
            if isinstance(why, Exception):
                results[rows[j]] = why
                continue
            sol = DiscreteSolution(
                u=u[j].copy(),
                z=reconstruct_flux(state, grid, u[j]),
                residual=residual[j].copy(),
                state=state,
                converged=why != "stalled",
                iterations=its,
                residual_norm=float(rmax[j]),
                stop_reason=str(why),
            )
            if why == "stalled":
                sol = NonConvergence(
                    f"Newton stalled at residual {rmax[j]:.3e} (p={state.p}, n={state.n}, eps={state.eps})",
                    last=sol,
                )
            results[rows[j]] = sol
        return ~gone

    # rows[j] is the strength held in row j of u, residual, ab and rmax;
    # rows leave these arrays as their strengths finish.  `pieces` holds the
    # kernel's evaluation at u: the line search writes the accepted trials'
    # pieces into it, and the next Jacobian is built from them.
    rows = np.arange(len(specs))
    u = _check_iterate(grid, u0, None if single else len(specs)).reshape(len(specs), -1).copy()
    rung = _Rung(specs, state, grid)
    pieces = _Pieces(rung, rung.source)
    pieces.evaluate(u)
    residual, ab = assemble_system(specs, state, grid, u, pieces=pieces)
    rmax = np.abs(residual).max(axis=1)
    its = 0
    for its in range(1, max_iter + 1):
        allow = np.maximum(tol, _row_allowance(ab, u))
        done = (np.abs(residual) <= allow).all(axis=1)
        if any(done):
            go = leave(done, its - 1, np.where(rmax <= tol, "residual", "float_floor"))
            if not any(go):
                break
            ab = ab.reshape(3, go.size, m)[:, go].reshape(3, -1)
            rows, u, rmax, allow, pieces = rows[go], u[go], rmax[go], allow[go], pieces.take(go)
            residual = pieces.residual
        step, failed = _newton_steps(ab, residual)
        stop = np.abs(step).max(axis=1) <= step_tol * (1.0 + np.abs(u).max(axis=1))
        stop[list(failed)] = True
        if any(stop):
            go = leave(stop, its - 1, [failed.get(j, "stagnation") for j in range(rows.size)])
            if not any(go):
                break
            rows, u, rmax, allow, step, pieces = rows[go], u[go], rmax[go], allow[go], step[go], pieces.take(go)
            residual = pieces.residual
        rnorm = _row_norms(residual / allow)
        # rows still trying (held at pos of u) have all failed the same
        # number of halvings, so they share alpha
        alpha = 1.0
        accepted = np.zeros(rows.size, dtype=bool)
        pos = np.arange(rows.size)
        source = pieces.source
        for _ in range(50):
            trial = u[pos]
            trial[:, :m] += alpha * step
            tried = _Pieces(rung, source)
            tres = assemble_residual(tuple(specs[i] for i in rows[pos]), state, grid, trial, pieces=tried)
            tnorm = _row_norms(tres / allow)
            ok = (tnorm < rnorm) & (tnorm <= (1.0 - 1e-4 * alpha) * rnorm)
            if any(ok):
                u[pos[ok]] = trial[ok]
                accepted[pos[ok]] = True
                pieces.accept(tried, pos, ok)
                if all(ok):
                    break
                pos, step, allow, rnorm, source = pos[~ok], step[~ok], allow[~ok], rnorm[~ok], source[~ok]
            alpha *= 0.5
        if not all(accepted):
            # a line-search dead end ends the strength on its last iterate;
            # its rows failed the done test, so their residual is above tol
            if not any(leave(~accepted, its, "stalled")):
                break
            rows, u, pieces = rows[accepted], u[accepted], pieces.take(accepted)
        residual, ab = assemble_system(tuple(specs[i] for i in rows), state, grid, u, pieces=pieces)
        rmax = np.abs(residual).max(axis=1)
    else:
        leave(np.ones(rows.size, dtype=bool), its, np.where(rmax <= tol, "residual", "stalled"))
    if single:
        return _one(results[0])
    return BatchSolution(results=tuple(results), iterations=max(counts))


def plateau_extent(grid: RadialGrid, u: np.ndarray, slope_floor: float = 1e-6) -> float:
    """Radius of the flat core: the last node before the first midpoint whose
    slope magnitude exceeds the floor, the full radius if none does."""
    D = np.diff(u) / grid.spacing
    steep = np.nonzero(np.abs(D) > slope_floor)[0]
    if steep.size == 0:
        return grid.radius
    if steep[0] == 0:
        return 0.0
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


def continuation_solve(spec, schedule: ContinuationSchedule, grid: RadialGrid):
    """Solve the schedule in order, warm-starting each rung, and return the
    final rung's solution, whose `history` holds every rung's solution (that
    of a stall's NonConvergence.last ends with the stalled rung).

    Given a sequence of K specs sharing the singular exponent, the strengths
    climb the ladder together, one batched `newton_solve` per rung, and the
    result is a list in input order holding each strength's final solution
    or the NonConvergence / SingularJacobian, with its `rung` set, that
    stopped it; the others carry on.  One spec is the K=1 case: its solution
    is returned and its exception raised.
    """
    specs = _strengths(spec)
    u = np.zeros((len(specs), grid.mesh_size + 1))
    histories = [[] for _ in specs]
    results = [None] * len(specs)
    rows = list(range(len(specs)))  # strengths still climbing
    prev_eps = None
    for k, st in enumerate(schedule.states):
        # A sub-threshold state is regularization dust: on the trivial branch
        # the profile scales linearly with eps, so rescale the warm start when
        # eps drops.  Otherwise the stale slopes sit far above the new eps,
        # the flux saturates, and Newton overshoots toward a spurious bump.
        if prev_eps is not None and st.eps < prev_eps:
            for i in rows:
                if float(np.max(np.abs(u[i]))) <= 1e-4:
                    u[i] = u[i] * (st.eps / prev_eps)
        prev_eps = st.eps
        batch = newton_solve(
            tuple(specs[i] for i in rows),
            st,
            grid,
            u[rows],
            tol=schedule.newton_tol,
            step_tol=schedule.step_tol,
            max_iter=schedule.max_iter,
        )
        climbing = []
        for i, sol in zip(rows, batch.results):
            if isinstance(sol, Exception):
                sol.rung = k
                if isinstance(sol, NonConvergence):
                    sol.last = replace(sol.last, history=(*histories[i], sol.last))
                results[i] = sol
                continue
            u[i] = sol.u
            histories[i].append(sol)
            climbing.append(i)
        rows = climbing
        if not rows:
            break
    for i in rows:
        results[i] = replace(histories[i][-1], history=tuple(histories[i]))
    if isinstance(spec, ProblemSpec):
        return _one(results[0])
    return results


@dataclass(frozen=True)
class AprioriReport:
    """Discrete analogues of the energy bounds: the p-gradient mass and the
    absorption mass are both controlled by the source mass."""

    gradient_mass: float
    absorption_mass: float
    source_mass: float
    slack: float
    gradient_bound_ok: bool
    absorption_bound_ok: bool


def apriori_bounds_report(
    spec: ProblemSpec,
    state: RegularizationState,
    grid: RadialGrid,
    u: np.ndarray,
    slack: float = 0.05,
) -> AprioriReport:
    u = _check_iterate(grid, u)
    m = grid.mesh_size
    dr = grid.spacing
    area = sphere_area(grid.dim)
    grad = gradient_mass(grid, u, state.p)
    D = np.diff(u) / dr
    q = _nodal_gradient_scale(D, state.eps)
    h = absorption_truncated(u[:m], state.n, spec.gamma)
    vols = grid.cell_volumes()
    absorb = float(area * np.sum(h * q**state.p * vols[:m]))
    lam = spec.constant_source
    if lam is not None:
        # exact mass lam * omega_N * R^N for a constant source
        source = lam * unit_ball_volume(grid.dim) * grid.radius**grid.dim
    else:
        source = float(area * np.sum(spec.source_values(grid.nodes) * vols))
    budget = source * (1.0 + slack)
    return AprioriReport(
        gradient_mass=grad,
        absorption_mass=absorb,
        source_mass=source,
        slack=slack,
        gradient_bound_ok=grad <= budget,
        absorption_bound_ok=absorb <= budget,
    )


_PRESET_P = {
    "fast": (1.5, 1.2, 1.05, 1.01, 1.003, 1.001),
    "default": (
        1.5,
        1.3,
        1.1,
        1.05,
        1.01,
        1.003,
        1.001,
        1.0003,
        1.0001,
        1.00003,
        1.00001,
        1.000003,
        1.000001,
    ),
    "tight": (
        1.5,
        1.3,
        1.1,
        1.05,
        1.01,
        1.003,
        1.001,
        1.0003,
        1.0001,
        1.00003,
        1.00001,
        1.000003,
        1.000001,
        1.0000003,
        1.0000001,
    ),
}


def schedule_preset(name: str) -> ContinuationSchedule:
    """Named continuation ladders.  n grows by decades from 100 up to 1e6;
    eps follows (p-1)^2 clamped into [1e-8, 1e-3].  The deep tail of the
    default ladder is what collapses boundary layers of width (p-1) below
    mesh resolution, which the rigidity and plateau tests rely on; the eps
    floor keeps plateau slopes two decades under the slope floor used for
    plateau detection while staying coarse enough that float64 can still
    resolve the plateau flux profile."""
    try:
        ps = _PRESET_P[name]
    except KeyError:
        raise ValueError(f"unknown schedule preset {name!r}") from None
    states = tuple(
        RegularizationState(
            p=p,
            n=min(100 * 10**k, 1_000_000),
            eps=min(max((p - 1.0) ** 2, 1e-8), 1e-3),
        )
        for k, p in enumerate(ps)
    )
    return ContinuationSchedule(states=states)

