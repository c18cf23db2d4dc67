"""Bit-stable CSV and JSON serialization for solutions, sweeps, and reports.

Every float is printed with 17 significant digits, which is enough for the
text to determine the double uniquely: reading a file back reproduces the
array bit for bit.  Writers fix the newline, the field order, and the key
order, so identical inputs give byte-identical files on a platform.

A solution travels as a three-file bundle sharing a base path:

    <base>.csv        nodal table "r,u,z,residual", M+1 rows
    <base>_flux.csv   midpoint table "r,z", M rows (the flux as computed;
                      the nodal z column above is interpolated for plotting)
    <base>.meta.json  problem description, schedule, defects, verdicts

The boundary node carries no equation row, so its residual entry is 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .solver import RadialGrid

__all__ = [
    "format_float",
    "write_csv",
    "read_csv",
    "json_text",
    "write_json",
    "read_json",
    "nodal_flux",
    "solution_paths",
    "write_solution",
    "read_solution",
    "SolutionRecord",
    "default_output_dir",
]


def format_float(x: float) -> str:
    """Shortest text that pins the double exactly (17 significant digits)."""
    return f"{float(x):.17g}"


def default_output_dir() -> Path:
    """Output directory for relative paths: $ONELAP_OUT_DIR if set, else cwd."""
    return Path(os.environ.get("ONELAP_OUT_DIR", "."))


# rows formatted per string operation: enough to amortize the formatting
# call, few enough that the text of one block stays small next to the table
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> Path:
    """Header line, then one row per index with every value written by
    `format_float`."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(header) != len(cols):
        raise ValueError("one header entry per column")
    if len({c.size for c in cols}) != 1:
        raise ValueError("columns must share a length")
    # "%.17g" % x is the same text as format_float(x) for every double,
    # including -0, subnormals, inf and nan
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    table = np.stack(cols, axis=1)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    return path


def read_csv(path) -> tuple:
    """Header names and one float column per header entry."""
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {len(header)} header fields, {data.shape[1]} columns")
    return header, [data[:, j].copy() for j in range(data.shape[1])]


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(payload) -> str:
    """The JSON text of `payload`: sorted keys, two-space indent, no final
    newline."""
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True)


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json_text(payload)  # before opening: a failure leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def nodal_flux(z_mid: np.ndarray) -> np.ndarray:
    """Midpoint flux moved to the nodes for the main table: zero at the
    origin by radial symmetry, adjacent-midpoint averages inside, linear
    extrapolation at the outer boundary."""
    z_mid = np.asarray(z_mid, dtype=float)
    if z_mid.size < 2:
        raise ValueError("need at least two midpoints")
    out = np.empty(z_mid.size + 1)
    out[0] = 0.0
    out[1:-1] = 0.5 * (z_mid[:-1] + z_mid[1:])
    out[-1] = 1.5 * z_mid[-1] - 0.5 * z_mid[-2]
    return out


def solution_paths(base) -> tuple:
    """The three bundle paths for a base path (a trailing .csv is ignored)."""
    base = Path(base)
    if base.suffix == ".csv":
        base = base.with_suffix("")
    return (
        base.parent / f"{base.name}.csv",
        base.parent / f"{base.name}_flux.csv",
        base.parent / f"{base.name}.meta.json",
    )


@dataclasses.dataclass(frozen=True)
class SolutionRecord:
    """A solution bundle read back from disk."""

    r: np.ndarray
    u: np.ndarray
    z: np.ndarray
    residual: np.ndarray
    flux_r: np.ndarray
    flux_z: np.ndarray
    meta: dict


def write_solution(base, grid: RadialGrid, u, z_mid, residual, meta: Mapping) -> tuple:
    """Write the bundle; returns the three paths.  `residual` holds the rows
    0..M-1 of whatever residual the generator reports (the boundary row is
    padded with zero)."""
    u = np.asarray(u, dtype=float)
    z_mid = np.asarray(z_mid, dtype=float)
    residual = np.asarray(residual, dtype=float)
    m = grid.mesh_size
    if u.shape != (m + 1,) or z_mid.shape != (m,) or residual.shape != (m,):
        raise ValueError("arrays do not match the grid")
    main, flux, metapath = solution_paths(base)
    write_csv(
        main,
        ["r", "u", "z", "residual"],
        [grid.nodes, u, nodal_flux(z_mid), np.append(residual, 0.0)],
    )
    write_csv(flux, ["r", "z"], [grid.midpoints, z_mid])
    write_json(metapath, dict(meta))
    return main, flux, metapath


def read_solution(base) -> SolutionRecord:
    main, flux, metapath = solution_paths(base)
    header, cols = read_csv(main)
    if header != ["r", "u", "z", "residual"]:
        raise ValueError(f"{main}: unexpected header {header}")
    fheader, fcols = read_csv(flux)
    if fheader != ["r", "z"]:
        raise ValueError(f"{flux}: unexpected header {fheader}")
    return SolutionRecord(
        r=cols[0],
        u=cols[1],
        z=cols[2],
        residual=cols[3],
        flux_r=fcols[0],
        flux_z=fcols[1],
        meta=read_json(metapath),
    )
