"""Independent correctness checks for the outputs the benchmark certifies.

Nothing here imports `onelap`: the reference is the closed form of the
radial problem on the unit ball, written out again from its formula, and
the files are parsed with a reader of our own.  Every check returns a list
of problems; an empty list means the output passed.

Closed form for a constant source lam on the unit ball of R^N:

    lam > N:   u = 1 - (lam/N)^(N-1) e^(N-lam)     for r <= N/lam,
               u = 1 - r^(1-N) e^(lam (r-1))       beyond;
               z = -lam r / N inside, -1 outside.
    lam <= N:  u = 0,  z = -lam r / N.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

ULP = np.finfo(float).eps

# Oracle bundles sample the closed form directly, so they must match it to
# a few units in the last place of max(1, |value|).
ORACLE_ULPS = 4

# Solver end states carry discretization and regularization error.  The
# state budgets sit about three times above the largest error measured on
# the benchmark's cases at each mesh (3.5e-3, 7.0e-5 and 7.6e-6).
STATE_BUDGET = {1000: 1e-2, 8000: 5e-4, 20000: 1e-4}
# Flux budgets: the nontrivial flux is within 2.2e-4 of -lam r/N | -1; the
# zero state's flux, set by regularization dust, within 6.8e-3 of -lam r/N.
FLUX_BUDGET_NONTRIVIAL = 1e-3
FLUX_BUDGET_ZERO = 2e-2
# |z| <= 1 holds for the limit problem; the p > 1 end state exceeds it by
# at most 2.1e-6 on these cases.
FIELD_SLACK = 1e-5
# sup |u| of a state that stands for the zero solution.
ZERO_STATE_SUP = 1e-6


def closed_form(dim: int, lam: float, r) -> tuple:
    """State u and flux z of the radial solution at radii r in [0, 1]."""
    r = np.asarray(r, dtype=float)
    n, lam = int(dim), float(lam)
    if lam <= n:
        return np.zeros_like(r), -(lam * r) / n
    rstar = n / lam
    height = 1.0 - (lam / n) ** (n - 1) * math.exp(n - lam)
    inside = r <= rstar
    rr = np.where(inside, 1.0, r)  # the core branch never evaluates r^(1-N) at 0
    u = np.where(inside, height, 1.0 - rr ** (1 - n) * np.exp(lam * (rr - 1.0)))
    z = np.where(inside, -(lam * r) / n, -1.0)
    return u, z


def read_table(path) -> tuple:
    """Header and one float column per header field of a CSV file."""
    text = Path(path).read_text(encoding="ascii")
    head, _, body = text.partition("\n")
    header = head.split(",")
    values = np.array(body.replace(",", " ").split(), dtype=float)
    if values.size % len(header):
        raise ValueError(f"{path}: ragged table")
    table = values.reshape(-1, len(header))
    return header, [table[:, j] for j in range(len(header))]


def read_bundle(base) -> dict:
    """Arrays of a solution bundle <base>.csv + <base>_flux.csv."""
    base = Path(base)
    header, cols = read_table(base.parent / f"{base.name}.csv")
    fheader, fcols = read_table(base.parent / f"{base.name}_flux.csv")
    if header != ["r", "u", "z", "residual"] or fheader != ["r", "z"]:
        raise ValueError(f"{base}: unexpected bundle headers {header} {fheader}")
    return {"r": cols[0], "u": cols[1], "z": cols[2], "flux_r": fcols[0], "flux_z": fcols[1]}


def _ulp_mismatch(got, want, ulps: int) -> float:
    """Largest |got - want| measured in ulps of max(1, |want|)."""
    scale = ULP * np.maximum(1.0, np.abs(want))
    return float(np.max(np.abs(got - want) / scale))


def _grid_problems(b: dict, mesh: int) -> list:
    nodes = np.linspace(0.0, 1.0, mesh + 1)
    if b["u"].shape != (mesh + 1,) or b["flux_z"].shape != (mesh,):
        return [f"bundle shape {b['u'].shape}/{b['flux_z'].shape} does not fit mesh {mesh}"]
    out = []
    if _ulp_mismatch(b["r"], nodes, 1) > 1:
        out.append("node radii are not the uniform grid")
    if _ulp_mismatch(b["flux_r"], 0.5 * (nodes[1:] + nodes[:-1]), 1) > 1:
        out.append("midpoint radii are not the uniform grid")
    return out


def check_oracle_bundle(b: dict, dim: int, lam: float, mesh: int) -> list:
    """A closed-form bundle: u and the midpoint flux equal the closed form
    to a few ulps; the nodal z column averages adjacent midpoint values."""
    out = _grid_problems(b, mesh)
    if out:
        return out
    u_ref, _ = closed_form(dim, lam, b["r"])
    _, z_ref = closed_form(dim, lam, b["flux_r"])
    if b["u"][-1] != 0.0:
        out.append(f"u(1) = {b['u'][-1]!r}, not 0")
    if (e := _ulp_mismatch(b["u"], u_ref, ORACLE_ULPS)) > ORACLE_ULPS:
        out.append(f"u differs from the closed form by {e:.3g} ulps")
    if (e := _ulp_mismatch(b["flux_z"], z_ref, ORACLE_ULPS)) > ORACLE_ULPS:
        out.append(f"midpoint z differs from the closed form by {e:.3g} ulps")
    z_nodal = np.concatenate(([0.0], 0.5 * (z_ref[:-1] + z_ref[1:]), [1.5 * z_ref[-1] - 0.5 * z_ref[-2]]))
    if (e := _ulp_mismatch(b["z"], z_nodal, ORACLE_ULPS)) > ORACLE_ULPS:
        out.append(f"nodal z differs from the averaged closed form by {e:.3g} ulps")
    return out


def check_solver_bundle(b: dict, dim: int, lam: float, mesh: int) -> list:
    """A continuation end state: within the mesh's budget of the closed
    form, zero trace, |z| <= 1, and the zero state below the threshold."""
    out = _grid_problems(b, mesh)
    if out:
        return out
    u, z = b["u"], b["flux_z"]
    u_ref, _ = closed_form(dim, lam, b["r"])
    _, z_ref = closed_form(dim, lam, b["flux_r"])
    if u[-1] != 0.0:
        out.append(f"u(1) = {u[-1]!r}, not 0")
    if (zmax := float(np.max(np.abs(z)))) > 1.0 + FIELD_SLACK:
        out.append(f"max |z| = {zmax:.6g} exceeds 1")
    zero_state = lam <= dim
    if zero_state and (sup := float(np.max(np.abs(u)))) > ZERO_STATE_SUP:
        out.append(f"sub-threshold state has sup |u| = {sup:.3g}")
    if (err := float(np.max(np.abs(u - u_ref)))) > STATE_BUDGET[mesh]:
        out.append(f"max |u - u_exact| = {err:.3g} over the budget {STATE_BUDGET[mesh]:g}")
    zbudget = FLUX_BUDGET_ZERO if zero_state else FLUX_BUDGET_NONTRIVIAL
    if (err := float(np.max(np.abs(z - z_ref)))) > zbudget:
        out.append(f"max |z - z_exact| = {err:.3g} over the budget {zbudget:g}")
    return out


def check_sweep_curve(x, u, dim: int, lam: float, mesh: int) -> list:
    """One solver curve of a sweep, sampled on [-1, 1]: even, zero at both
    ends, and within the mesh's budget of the closed form."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    out = []
    if u[0] != 0.0 or u[-1] != 0.0:
        out.append(f"curve ends are {u[0]!r}, {u[-1]!r}, not 0")
    # x and -x of a linspace may differ in the last bit, so allow a little
    if float(np.max(np.abs(u - u[::-1]))) > 1e-12:
        out.append("curve is not even in x")
    u_ref, _ = closed_form(dim, lam, np.abs(x))
    if (err := float(np.max(np.abs(u - u_ref)))) > STATE_BUDGET[mesh]:
        out.append(f"max |u - u_exact| = {err:.3g} over the budget {STATE_BUDGET[mesh]:g}")
    return out


def verdict_problems(payload: dict) -> list:
    """The program's own verdicts, from a .meta.json, .verify.json or one
    entry of a sweep's _reports.json."""
    failed = sorted(k for k, v in payload.get("verdicts", {}).items() if v is not True)
    out = [f"verdict {k} failed" for k in failed]
    if payload.get("passed") is not True:
        out.append("passed is not true")
    return out
