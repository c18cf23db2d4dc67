"""Bit-stable CSV and JSON serialization for solutions, sweeps, and reports.

CSV tables print every float as `format_float` does, with 17 significant
digits; JSON files print floats with Python's shortest round-trip `repr`.
Both determine the double uniquely: reading a file back reproduces the array
bit for bit.  Writers fix the newline, the field order, and the key order,
so identical inputs give byte-identical files on a platform.

A solution travels as a three-file bundle sharing a base path:

    <base>.csv        nodal table "r,u,z,residual", M+1 rows
    <base>_flux.csv   midpoint table "r,z", M rows (the flux as computed;
                      the nodal z column above is interpolated for plotting)
    <base>.meta.json  problem description, schedule, defects, verdicts

The boundary node carries no equation row, so its residual entry is 0.
"""

from __future__ import annotations

import dataclasses
import functools
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
    """The "%.17g" text of x: 17 significant digits, which pin every double
    but are not the shortest such text (0.1 prints as 0.10000000000000001)."""
    return f"{float(x):.17g}"


def default_output_dir() -> Path:
    """Output directory for relative paths: $ONELAP_OUT_DIR if set, else cwd."""
    return Path(os.environ.get("ONELAP_OUT_DIR", "."))


# `_csv_text` gives exactly `format_float`'s text for a block of doubles.  A
# value v with 1e-270 <= |v| <= 1e270 is scaled to y = |v| * 10^(16 - k),
# k = floor(log10 |v|), as a double-double hi + lo: a Dekker product of |v|
# with 10^(16 - k) = P_hi + P_lo, plus |v| * P_lo.  Its error is below 1e-14,
# so N = round(y) is the 17-digit significand unless y lies within 1e-6 of a
# half-integer; that includes every exact tie, which "%.17g" rounds
# half-even.  Such values, non-finite ones and those outside the range are
# written by `format_float` one by one.  Zero has a template of its own.

_K_MAX = 272  # |k| for 10^-270 <= |v| <= 10^270, with room for one off
_SPLITTER = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


def _split(a):
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten():
    """P_hi, its two halves and P_lo at k + _K_MAX, with P_hi and P_lo
    correctly rounded and P_hi + P_lo = 10^(16 - k) to about 2^-106.  Built
    at the first call rather than at import, which it would slow by a
    millisecond or two."""
    hi, lo = [], []
    for s in range(16 + _K_MAX, 15 - _K_MAX, -1):
        p = 10 ** abs(s)
        h = float(p) if s >= 0 else 1 / p
        num, den = h.as_integer_ratio()
        # 10^s - P_hi as a ratio of integers, which `/` rounds correctly
        lo.append((p * den - num) / den if s >= 0 else (den - num * p) / (den * p))
        hi.append(h)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


# the four decimal digits of each of 0..9999, as values 0-9
_DIGITS_OF = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T

# _LAST_DIGIT[j][g]: the index among the 17 digits of the last non-zero one
# in g, the j-th group of four after the leading digit; 0 when g is 0
_LAST_IN_GROUP = ((_DIGITS_OF > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)  # 1-4; 0 for 0
_LAST_DIGIT = np.where(_LAST_IN_GROUP > 0, 4 * np.arange(4, dtype=np.uint8)[:, None] + _LAST_IN_GROUP, 0)

# One row of 48 bytes per value has a column for each character its text can
# use: 0 sign, 1-5 "0.000" (fixed notation below 1), 6-38 the 17 digits with
# a '.' slot after each of the first 16, 39 'e', 40 exponent sign, 41-43
# three exponent digits, 44 the ',' or newline that ends the field, 45-47
# unused.  A template is the row "%.17g" makes for one notation, exponent
# sign, k and index t of the last non-zero digit, with NUL in the columns it
# drops and '0' where a digit goes.  Digits are OR-ed in as values 0-9; those
# past t are zeros, so their columns stay NUL and are dropped with the rest.
# Read as six little-endian 8-byte words, the row takes the leading digit in
# word 0, each group of four digits in one of words 1-4, and the exponent's
# digits in word 5.
_ROW = np.frombuffer(b"\0" + b"0.000" + b"0." * 16 + b"0" + b"e+000," + b"\0" * 3, dtype=np.uint8)
_DIGITS = slice(6, 39, 2)
_SEP = 44
_FIXED, _SCI, _ZERO = 0, 21 * 17, 25 * 17  # first template of each; + t - 1


def _words(byte_rows, at):
    """Little-endian 8-byte words with the given bytes at offsets `at`."""
    out = np.zeros((len(byte_rows), 8), dtype=np.uint8)
    out[:, at] = byte_rows
    return out.view("<u8").ravel()


# the digits of each group g at bytes 0, 2, 4 and 6 of one word; a leading
# digit d is the group 000d, so it lands at byte 6 of word 0
_GROUP_WORDS = _words(_DIGITS_OF, [0, 2, 4, 6])


def _templates():
    """The templates as rows of bytes, at _FIXED, _SCI or _ZERO + t - 1."""
    keep = np.zeros((_ZERO + 1, _ROW.size), dtype=bool)
    keep[:, _SEP] = True
    t = np.arange(1, 18)[:, None]  # one template row per t
    digit = np.arange(1, 18)  # the digit columns, and the '.' slot after each
    # fixed notation for -4 <= k <= 16: "0." and -k-1 zeros below 1, every
    # integer digit, and the point and fraction only up to digit t
    fixed = keep[_FIXED:_SCI].reshape(21, 17, -1)
    k = np.arange(-4, 17)[:, None, None]
    fixed[..., _DIGITS] = (digit <= t) | (digit <= k + 1)
    fixed[..., 1:6] = (k < 0) & (np.arange(1, 6) <= 1 - k)
    fixed[..., 7:39:2] = (digit[:16] == k + 1) & (t > k + 1)
    # scientific notation, by the sign of k and by two or three exponent
    # digits
    sci = keep[_SCI:_ZERO].reshape(2, 2, 17, -1)
    sci[..., _DIGITS] = digit <= t
    sci[..., 7] = t[:, 0] > 1
    sci[..., 39:41] = True
    sci[:, 1, :, 41] = True
    sci[..., 42:44] = True
    keep[_ZERO, 1] = True
    text = np.where(keep, _ROW, 0).astype(np.uint8)
    text[_SCI + 34 : _ZERO, 40] = ord("-")
    return text


_TEMPLATES = _templates()

# per k, at k + _K_MAX: the first template for k, and the exponent's digits
# as word 5 (zero in fixed notation)
_K = np.arange(-_K_MAX, _K_MAX + 1)
_FIXED_K = (_K >= -4) & (_K <= 16)
_TEMPLATE_OF_K = np.where(_FIXED_K, _FIXED + 17 * (_K + 4), _SCI + 34 * (_K < 0) + 17 * (np.abs(_K) >= 100))
_EXPONENT_WORDS = _words(_DIGITS_OF[np.where(_FIXED_K, 0, np.abs(_K)), 1:], [1, 2, 3])


def _scaled(a, k):
    """hi + lo = a * 10^(16 - k) to about 1e-14 absolute, for hi near 1e16;
    k comes plus _K_MAX."""
    p_hi, p_hi_hi, p_hi_lo, p_lo = (column[k] for column in _powers_of_ten())
    a_hi, a_lo = _split(a)
    hi = a * p_hi
    lo = ((a_hi * p_hi_hi - hi) + a_hi * p_hi_lo + a_lo * p_hi_hi) + a_lo * p_hi_lo
    return hi, lo + a * p_lo


def _significands(values):
    """Each |value|'s 17 significant digits as an integer in [1e16, 1e17),
    its decimal exponent k plus _K_MAX (the index into the per-k tables), and
    whether `format_float` must write the value instead; zero gives
    (1e16, _K_MAX, False)."""
    mag = np.abs(values)
    exact = (mag >= 1e-270) & (mag <= 1e270)
    mag = np.where(exact, mag, 1.0)
    k = np.floor(np.log10(mag)).astype(np.int64) + _K_MAX
    hi, lo = _scaled(mag, k)
    # log10 can be one off next to a power of ten.  y = hi + lo is out of
    # [1e16, 1e17) by the sign of lo when hi is on the edge; hi + lo rounded
    # would misjudge the neighbours of 10^k
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        h, l = hi[edge], lo[edge]
        low = (h < 1e16) | ((h == 1e16) & (l < 0))
        high = (h > 1e17) | ((h == 1e17) & (l >= 0))
        k[edge] += high.astype(np.int64) - low
        hi[edge], lo[edge] = _scaled(mag[edge], k[edge])
    rounded = np.rint(lo)
    special = (exact != (values != 0)) | (np.abs(lo - rounded) >= 0.5 - 1e-6)
    sig = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = sig == 10**17
    sig[carry] = 10**16
    return sig, k + carry, special


def _csv_text(values, seps):
    """The bytes of `values` (float64, flat) written as by `format_float`,
    value i followed by the byte seps[i]."""
    sig, k, special = _significands(values)
    zero = values == 0
    sig[zero] = 0
    upper, lower = sig % 10**16 // 10**8, sig % 10**8
    groups = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    template = _TEMPLATE_OF_K[k] + np.maximum.reduce([_LAST_DIGIT[j][g] for j, g in enumerate(groups)])
    template[zero] = _ZERO

    n = values.size
    text = bytearray(n * _ROW.size)  # `rows` writes into it
    rows = np.frombuffer(text, dtype=np.uint8).reshape(n, _ROW.size)
    np.take(_TEMPLATES, template, axis=0, out=rows, mode="clip")  # unbuffered
    words = rows.view("<u8")
    words[:, 0] |= _GROUP_WORDS[sig // 10**16]
    for j, group in enumerate(groups):
        words[:, j + 1] |= _GROUP_WORDS[group]
    words[:, 5] |= _EXPONENT_WORDS[k]
    rows[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    rows[:, _SEP] = seps
    for i in np.flatnonzero(special):
        one = np.frombuffer(format_float(values[i]).encode("ascii"), dtype=np.uint8)
        rows[i, :_SEP] = 0
        rows[i, : one.size] = one
    return text.translate(None, b"\0")


# values turned into text per `_csv_text` call: enough to amortize its fixed
# cost of about 90 numpy calls, few enough to keep its temporaries (about
# 110 bytes a value) near 100 KB
_CSV_BLOCK_VALUES = 1024


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> Path:
    """Header line, then one row per index with every value written as
    `format_float` writes it."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(header) != len(cols):
        raise ValueError("one header entry per column")
    if len({c.size for c in cols}) != 1:
        raise ValueError("columns must share a length")
    table = np.stack(cols, axis=1)
    block_rows = max(1, _CSV_BLOCK_VALUES // len(cols))
    seps = np.tile(np.frombuffer(b"," * (len(cols) - 1) + b"\n", dtype=np.uint8), block_rows)
    head = (",".join(header) + "\n").encode("ascii")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, len(table), block_rows):
            block = table[start : start + block_rows].ravel()
            fh.write(_csv_text(block, seps[: block.size]))
    return path


def read_csv(path) -> tuple:
    """Header names and one float column per header entry; a file with no
    rows gives zero-length columns."""
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        # stops at the first row; np.loadtxt would warn on a file without one
        if not any(line.strip() for line in fh):
            return header, [np.empty(0) for _ in header]
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
