"""Command-line surface: solve, oracle, verify, sweep, cheeger, smallness.

Exit status contract
    0   success; for solve/oracle/verify, additionally all verdicts true
    1   invalid flags, domain or bundle, or a verdict failed
    2   continuation did not converge: Newton stalled, or its banded solve
        was singular or gave a non-finite step; solve still writes the last
        converged rung, with the stop reason and the failed rung

CSV tables and the numbers in printed summaries use the 17-digit text of
`io.format_float`, and JSON, written or printed, uses Python's shortest
round-trip `repr`; both read back bit for bit, so repeated runs with
identical flags produce byte-identical files.  Relative output
paths land in $ONELAP_OUT_DIR when that is set, the working directory
otherwise.  Every subcommand accepts `--config <path>`, a JSON file whose
keys mirror the long flags (values already typed); explicit flags override
the file, and a key that names no flag or a value its flag cannot take (of
the wrong type, or outside the flag's choices) exits 1, as does a
non-finite number from a flag or the file, or a finite one whose
arithmetic overflows.  Required flags (`--lambda`,
`--lambdas`, `--input`, `--fnorm`) cannot come from the file: it is read
after a first parse, which rejects a missing required flag.

`sweep --mode solver` solves all its strengths together, on one thread: each
Newton iteration assembles and solves every strength still iterating in one
batched call, and a strength that fails drops out alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io, oracle
from .verify import (GridMismatch, Tolerances, VerificationReport,
                     pointwise_residual, sampled_explicit, verify)
from .geometry import DomainSpec, cheeger_bounds, smallness_check, sobolev_constant_limit
from .solver import (
    LADDER,
    NonConvergence,
    ProblemSpec,
    RadialGrid,
    continuation_solve,
    plateau_extent,
)

__all__ = ["main", "entry"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for non-convergence here
    def error(self, message):
        raise _CliError(message)


def _add_common(sub):
    sub.add_argument("--config", type=Path, default=None, help="JSON file mirroring the flags; flags override it")
    sub.add_argument("--output", type=Path, default=None, help="output path (base path for solution bundles)")


def _build_parser():
    ap = _Parser(prog="onelap", description="radial 1-Laplacian solver with singular absorption")
    subs = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = subs.add_parser("solve", help="run the continuation ladder and certify the end state")
    solve.add_argument("--domain", choices=("ball", "interval"), default="ball")
    solve.add_argument("--dim", type=int, default=1)
    solve.add_argument("--radius", type=float, default=1.0)
    solve.add_argument("--gamma", type=float, default=1.0)
    solve.add_argument("--lambda", dest="lam", type=float, required=True, help="constant source strength")
    solve.add_argument("--mesh", type=int, default=1000)
    _add_common(solve)

    orc = subs.add_parser("oracle", help="sample a closed-form solution on a grid")
    orc.add_argument("--dim", type=int, default=1)
    orc.add_argument("--lambda", dest="lam", type=float, required=True)
    orc.add_argument("--mesh", type=int, default=1000)
    _add_common(orc)

    ver = subs.add_parser("verify", help="re-certify a solution bundle from disk")
    ver.add_argument("--input", type=Path, required=True, help="base path of the bundle")
    _add_common(ver)

    sweep = subs.add_parser("sweep", help="one curve per source strength, on a diameter section")
    sweep.add_argument("--mode", choices=("oracle", "solver"), default="oracle")
    sweep.add_argument("--dim", type=int, default=1)
    sweep.add_argument("--gamma", type=float, default=1.0)
    sweep.add_argument("--lambdas", required=True, help="comma list or start:stop:step, e.g. 2:20:1")
    sweep.add_argument("--samples", type=int, default=401, help="points on the diameter [-1, 1], at least 2")
    sweep.add_argument("--mesh", type=int, default=2000)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(sweep)

    che = subs.add_parser("cheeger", help="Cheeger constant bounds for a domain")
    che.add_argument("--domain", choices=("ball", "interval"), default="ball")
    che.add_argument("--dim", type=int, default=1)
    che.add_argument("--radius", type=float, default=1.0)
    che.add_argument("--format", choices=("csv", "json"), default="json")
    _add_common(che)

    sm = subs.add_parser("smallness", help="strict smallness condition for the existence regime")
    sm.add_argument("--dim", type=int, default=1)
    sm.add_argument("--lambda", dest="lam", type=float, required=True)
    sm.add_argument("--fnorm", type=float, required=True, help="L^N norm of the source profile")
    sm.add_argument("--format", choices=("csv", "json"), default="json")
    _add_common(sm)

    return ap, {"solve": solve, "oracle": orc, "verify": ver, "sweep": sweep, "cheeger": che, "smallness": sm}


def _resolve(path, default_name: str) -> Path:
    if path is None:
        path = Path(default_name)
    path = Path(path)
    return path if path.is_absolute() else io.default_output_dir() / path


def _strip_ext(base: Path) -> Path:
    if base.suffix in (".csv", ".json"):
        return base.with_suffix("")
    return base


def _parse_lambdas(text: str) -> list:
    """Either "2,3,5.5" or an inclusive "start:stop:step" range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _CliError(f"range must be start:stop:step, got {text!r}")
        a, b, st = (float(p) for p in parts)
        # a range must hold finitely many strengths: 0:1e300:1e-300 does not
        if not np.isfinite([a, b, st]).all() or st <= 0 or b < a or not np.isfinite((b - a) / st):
            raise _CliError(f"bad range {text!r}")
        k = int(round((b - a) / st))
        vals = [a + i * st for i in range(k + 1)]
        return [v for v in vals if v <= b + 1e-12 * max(1.0, abs(b))]
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _CliError(f"cannot parse lambda list {text!r}") from None


def _typed(what: str, value, kind):
    """`value` as `kind`; a mistyped value from a file is bad input, not a
    crash, and so is a float that `int` would truncate (2.5 is not an int)."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and isinstance(value, float) and out != value):
        raise _CliError(f"{what} is not a {kind.__name__}: {value!r}")
    return out


def _report_payload(rep: VerificationReport) -> dict:
    return {
        "defects": {
            "field_bound_defect": rep.field_bound_defect,
            "pairing_defect": rep.pairing_defect,
            "equation_residual": rep.equation_residual,
            "equation_residual_moving": rep.equation_residual_moving,
            "flux_balance_defect": rep.flux_balance_defect,
            "trace_value": rep.trace_value,
            "max_jump": rep.max_jump,
            "energy_gap": rep.energy_gap,
        },
        "plateau_radius_estimate": rep.plateau_radius_estimate,
        "log_substitution": rep.log_substitution,
        "verdicts": dict(rep.verdicts),
        "passed": rep.passed,
    }


def _print_verdicts(rep: VerificationReport) -> None:
    line = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in rep.verdicts.items())
    print(f"verdicts: {line}")


# a bundle's problem record: the metadata fields `verify` rebuilds the
# problem from, with their types
_PROBLEM = (("kind", str), ("dim", int), ("radius", float), ("gamma", float), ("lam", float), ("mesh", int))


def _problem(kind, dim, radius, gamma, lam, mesh):
    """The problem spec and grid that a problem record names."""
    domain = DomainSpec(kind=kind, dim=dim, radius=radius)
    return ProblemSpec(domain=domain, gamma=gamma, source=lam), RadialGrid.uniform(domain, mesh)


def _tolerances(meta: dict) -> Tolerances:
    return Tolerances.for_solver() if meta.get("generator") == "solver" else Tolerances()


def _write_bundle(base, problem: dict, spec, grid, u, z, residual, meta: dict) -> VerificationReport:
    """Certify (u, z) and write the bundle; its metadata is `meta`, the
    problem record and the verification report."""
    rep = verify((u, z), spec, grid, _tolerances(meta))
    main_path, _, _ = io.write_solution(base, grid, u, z, residual, {**meta, **problem, **_report_payload(rep)})
    print(f"wrote {main_path} (+ _flux.csv, .meta.json)")
    return rep


def cmd_solve(args) -> int:
    problem = {"kind": args.domain, "dim": args.dim, "radius": args.radius, "gamma": args.gamma,
               "lam": args.lam, "mesh": args.mesh}
    spec, grid = _problem(**problem)
    base = _resolve(args.output, f"solve_{args.domain}{args.dim}_lam{args.lam:g}_M{args.mesh}")
    failed_rung = None
    try:
        sol = continuation_solve(spec, grid)
    except NonConvergence as exc:
        print(f"continuation {exc.last.stop_reason} at rung {exc.rung}: {exc}", file=sys.stderr)
        sol, failed_rung = exc.last, exc.rung
    # a failed run writes its last converged rung; one that failed at rung 0
    # has none, and writes the failed iterate
    end = sol.history[failed_rung - 1] if failed_rung else sol
    # a grid-sequenced solve climbs its first rungs on coarser meshes
    grids = {m: RadialGrid.uniform(spec.domain, m) for m in {r.u.size - 1 for r in sol.history}}
    meta = {
        "generator": "solver",
        "schedule": {"preset": "default", "rungs": [[s.p, s.n, s.eps] for s in LADDER]},
        "converged": sol.converged,
        "stop_reason": sol.stop_reason,
        "residual_norm": end.residual_norm,
        "rungs": [
            {
                "p": r.state.p,
                "n": r.state.n,
                "eps": r.state.eps,
                "iterations": r.iterations,
                "residual_evals": r.residual_evals,
                "residual_norm": r.residual_norm,
                "stop_reason": r.stop_reason,
                "sup_norm": float(np.max(np.abs(r.u))),
                "plateau_radius": plateau_extent(grids[r.u.size - 1], r.u),
                "mesh": r.u.size - 1,
            }
            for r in sol.history
        ],
    }
    if failed_rung is not None:
        meta["failed_rung"] = failed_rung
    rep = _write_bundle(base, problem, spec, grid, end.u, end.z, end.residual, meta)
    print(
        f"sup norm {io.format_float(float(np.max(np.abs(end.u))))}, "
        f"plateau radius {io.format_float(rep.plateau_radius_estimate)}"
    )
    _print_verdicts(rep)
    if failed_rung is not None:
        return 2
    return 0 if rep.passed else 1


def cmd_oracle(args) -> int:
    problem = {"kind": "ball", "dim": args.dim, "radius": 1.0, "gamma": 1.0, "lam": args.lam, "mesh": args.mesh}
    spec, grid = _problem(**problem)
    u, z = sampled_explicit(grid, args.lam)  # rejects lam <= dim
    residual = pointwise_residual((u, z), spec, grid)
    base = _resolve(args.output, f"oracle_{args.dim}d_lam{args.lam:g}_M{args.mesh}")
    meta = {"generator": "oracle", "schedule": None, "plateau_radius_exact": args.dim / args.lam}
    rep = _write_bundle(base, problem, spec, grid, u, z, residual, meta)
    _print_verdicts(rep)
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    rec = io.read_solution(args.input)
    meta = rec.meta
    problem = {}
    for key, kind in _PROBLEM:
        # a missing or mistyped field is bad input, not a crash
        if not isinstance(meta, dict) or key not in meta:
            raise _CliError(f"bundle metadata has no {key!r}")
        problem[key] = _typed(f"bundle metadata {key!r}", meta[key], kind)
    spec, grid = _problem(**problem)
    if not np.array_equal(rec.r, grid.nodes) or not np.array_equal(rec.flux_r, grid.midpoints):
        raise GridMismatch("stored abscissae do not match the grid in the metadata")
    tol = _tolerances(meta)
    rep = verify((rec.u, rec.flux_z), spec, grid, tol)
    payload = {"input": str(args.input), "tolerances": tol, **_report_payload(rep)}
    if args.output is None:
        main_path, _, _ = io.solution_paths(args.input)
        out = main_path.parent / f"{main_path.stem}.verify.json"
    else:
        out = _resolve(args.output, "")
    io.write_json(out, payload)
    print(f"wrote {out}")
    _print_verdicts(rep)
    return 0 if rep.passed else 1


def cmd_sweep(args) -> int:
    lams = _parse_lambdas(args.lambdas)
    if not lams:
        raise _CliError("empty lambda list")
    # curves and reports are keyed by f"{lam:g}", six significant digits
    named = {}
    for lam in lams:
        key = f"{lam:g}"
        if key in named:
            raise _CliError(f"source strengths {named[key]!r} and {lam!r} share the column name u_lam{key}")
        named[key] = lam
    if args.samples < 2:
        raise _CliError(f"need at least 2 samples, got --samples {args.samples}")
    domain = DomainSpec(kind="ball", dim=args.dim, radius=1.0)
    h = cheeger_bounds(domain).exact
    bad = [lam for lam in lams if lam <= h]
    if bad:
        raise _CliError(
            f"source strengths {bad} do not exceed the Cheeger constant {h:g}; only the zero state exists there"
        )
    x = np.linspace(-1.0, 1.0, args.samples)
    base = _strip_ext(_resolve(args.output, f"sweep_{args.mode}_{args.dim}d"))
    header = ["x"]
    cols = [x]
    r_abs = np.abs(x)
    reports = None
    if args.mode == "oracle":
        if args.gamma != 1.0:
            # the closed forms are the gamma = 1 solutions
            raise _CliError(f"sweep --mode oracle knows only gamma = 1, got --gamma {args.gamma:g}")
        for lam in lams:
            header.append(f"u_lam{lam:g}")
            cols.append(oracle.profile(args.dim, lam, r_abs))
    else:
        grid = RadialGrid.uniform(domain, args.mesh)
        specs = [ProblemSpec(domain=domain, gamma=args.gamma, source=lam) for lam in lams]
        results = continuation_solve(specs, grid)
        failed = [(lam, sol) for lam, sol in zip(lams, results) if isinstance(sol, NonConvergence)]
        for lam, sol in failed:
            print(f"lambda={lam:g} {sol.last.stop_reason} at rung {sol.rung}", file=sys.stderr)
        if failed:
            return 2
        reports = {}
        for lam, spec, sol in zip(lams, specs, results):
            rep = verify(sol, spec, grid, Tolerances.for_solver())
            header += [f"u_lam{lam:g}", f"res_lam{lam:g}"]
            cols.append(np.interp(r_abs, grid.nodes, sol.u))
            cols.append(np.interp(r_abs, grid.nodes, np.append(sol.residual, 0.0)))
            reports[f"{lam:g}"] = _report_payload(rep)
    if args.format == "csv":
        path = io.write_csv(base.parent / f"{base.name}.csv", header, cols)
    else:
        payload = {"x": x, "columns": dict(zip(header[1:], cols[1:]))}
        path = io.write_json(base.parent / f"{base.name}.json", payload)
    if reports is None:
        print(f"wrote {path}")
        return 0
    rep_path = io.write_json(base.parent / f"{base.name}_reports.json", reports)
    print(f"wrote {path} and {rep_path}")
    return 0


def cmd_cheeger(args) -> int:
    domain = DomainSpec(kind=args.domain, dim=args.dim, radius=args.radius)
    b = cheeger_bounds(domain)
    payload = {
        "domain": {"kind": domain.kind, "dim": domain.dim, "radius": domain.radius},
        "lower": b.lower,
        "upper": b.upper,
        "exact": b.exact,
    }
    return _emit_record(args, payload, ["lower", "upper", "exact"], "cheeger")


def cmd_smallness(args) -> int:
    holds = smallness_check(args.dim, args.lam, args.fnorm)
    s1 = sobolev_constant_limit(args.dim)
    payload = {
        "dim": args.dim,
        "lam": args.lam,
        "fnorm": args.fnorm,
        "limit_constant": s1,
        "product": args.lam * s1 * args.fnorm,
        "holds": holds,
    }
    return _emit_record(args, payload, ["lam", "fnorm", "limit_constant", "product"], "smallness")


def _emit_record(args, payload: dict, csv_fields, default_name: str) -> int:
    """JSON to stdout (and optionally a file); CSV writes one row."""
    if args.format == "json":
        print(io.json_text(payload))
        if args.output is not None:
            io.write_json(_resolve(args.output, ""), payload)
    else:
        out = _resolve(args.output, f"{default_name}.csv")
        io.write_csv(out, list(csv_fields), [np.array([float(payload[k])]) for k in csv_fields])
        print(f"wrote {out}")
    return 0


# typed config values a flag of each argparse type can take; a string is
# parsed by argparse like the flag's own text
_CONFIG_KINDS = {int: (int,), float: (int, float)}


def _check_config(sub, cfg: dict, path) -> None:
    """Reject a config key that names no flag of the subcommand and a value
    that its flag cannot take, before either reaches the code behind the
    flag."""
    keys = {action.dest for action in sub._actions if action.dest != "help"}
    for key in cfg:
        if key not in keys:
            raise _CliError(f"{path}: unknown config key {key!r}")
    for action in sub._actions:
        if action.dest not in cfg:
            continue
        value = cfg[action.dest]
        if action.choices is not None and value not in action.choices:
            raise _CliError(f"{path}: config {action.dest!r} must be one of {list(action.choices)}, got {value!r}")
        if isinstance(value, str) or (value is None and action.default is None):
            continue
        if isinstance(value, bool) or not isinstance(value, _CONFIG_KINDS.get(action.type, ())):
            raise _CliError(f"{path}: config {action.dest!r} cannot take {value!r}")


_DISPATCH = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "cheeger": cmd_cheeger,
    "smallness": cmd_smallness,
}


def main(argv=None) -> int:
    ap, subs = _build_parser()
    try:
        args = ap.parse_args(argv)
        if getattr(args, "config", None):
            cfg = io.read_json(args.config)
            if not isinstance(cfg, dict):
                raise _CliError(f"{args.config}: config must be a JSON object")
            _check_config(subs[args.command], cfg, args.config)
            subs[args.command].set_defaults(**cfg)
            args = ap.parse_args(argv)  # explicit flags still win
        return _DISPATCH[args.command](args)
    except (_CliError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
