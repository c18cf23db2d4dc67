"""Command-line surface: solve, oracle, verify, sweep, cheeger, smallness.

Exit status contract
    0   success; for solve/oracle/verify, additionally all verdicts true
    1   invalid flags, domain or bundle, or a verdict failed
    2   continuation did not converge: Newton stalled (solve still writes
        the partial result) or met a singular Jacobian

All numeric output goes through the 17-digit formatter in `io`, so repeated
runs with identical flags produce byte-identical files.  Relative output
paths land in $ONELAP_OUT_DIR when that is set, the working directory
otherwise.  Every subcommand accepts `--config <path>`, a JSON file whose
keys mirror the long flags (values already typed); explicit flags override
the file, and a key that names no flag or a value its flag cannot take
exits 1.  Required flags (`--lambda`, `--lambdas`, `--input`, `--fnorm`)
cannot come from the file: it is read after a first parse, which rejects a
missing required flag.

`sweep --mode solver` solves all its strengths together, on one thread: each
Newton iteration assembles and solves every strength still iterating in one
batched call, and a strength that fails drops out alone.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io, oracle
from .verify import (GridMismatch, Tolerances, VerificationReport,
                     pointwise_residual, sampled_explicit, verify)
from .geometry import DomainSpec, cheeger_bounds, smallness_check, sobolev_constant_limit
from .solver import (
    ContinuationSchedule,
    NonConvergence,
    ProblemSpec,
    RadialGrid,
    RegularizationState,
    SingularJacobian,
    continuation_solve,
    plateau_extent,
    schedule_preset,
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
    solve.add_argument("--schedule", default="default", help="preset name: fast, default, tight")
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
    sweep.add_argument("--schedule", default="default")
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
        if st <= 0 or b < a:
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
    crash."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise _CliError(f"{what} is not a {kind.__name__}: {value!r}") from None


# schedule knobs that `solve` and `sweep` take from a config file only
_KNOBS = (("newton_tol", float), ("step_tol", float), ("max_iter", int))


def _schedule_for(args) -> ContinuationSchedule:
    rungs = getattr(args, "rungs", None)
    knobs = {
        k: _typed(f"config {k!r}", getattr(args, k), t)
        for k, t in _KNOBS
        if getattr(args, k, None) is not None
    }
    if rungs:
        try:
            triples = [(float(p), int(n), float(e)) for p, n, e in rungs]
        except (TypeError, ValueError):
            raise _CliError(f"config 'rungs' must be a list of [p, n, eps] triples, got {rungs!r}") from None
        states = tuple(RegularizationState(p=p, n=n, eps=e) for p, n, e in triples)
        return ContinuationSchedule(states, **knobs)
    return replace(schedule_preset(args.schedule), **knobs)


def _report_payload(rep: VerificationReport) -> dict:
    out = {
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
    return out


def _print_verdicts(rep: VerificationReport) -> None:
    line = ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in rep.verdicts.items())
    print(f"verdicts: {line}")


def _meta_schedule(schedule: ContinuationSchedule, name: str) -> dict:
    return {
        "preset": name,
        "rungs": [[s.p, s.n, s.eps] for s in schedule.states],
    }


def _write_bundle(base, grid, spec, sol, schedule_info, generator: str, extra=None) -> VerificationReport:
    rep = verify(sol, spec, grid, Tolerances.for_solver())
    meta = {
        "generator": generator,
        "kind": spec.domain.kind,
        "dim": spec.domain.dim,
        "radius": spec.domain.radius,
        "gamma": spec.gamma,
        "lam": spec.constant_source,
        "mesh": grid.mesh_size,
        "schedule": schedule_info,
        "converged": sol.converged,
        "stop_reason": sol.stop_reason,
        "residual_norm": sol.residual_norm,
        "rungs": [
            {
                "p": r.state.p,
                "n": r.state.n,
                "eps": r.state.eps,
                "iterations": r.iterations,
                "residual_norm": r.residual_norm,
                "stop_reason": r.stop_reason,
                "sup_norm": float(np.max(np.abs(r.u))),
                "plateau_radius": plateau_extent(grid, r.u),
            }
            for r in sol.history
        ],
    }
    meta.update(_report_payload(rep))
    if extra:
        meta.update(extra)
    main_path, _, _ = io.write_solution(base, grid, sol.u, sol.z, sol.residual, meta)
    print(f"wrote {main_path} (+ _flux.csv, .meta.json)")
    print(
        f"sup norm {io.format_float(float(np.max(np.abs(sol.u))))}, "
        f"plateau radius {io.format_float(rep.plateau_radius_estimate)}"
    )
    _print_verdicts(rep)
    return rep


def cmd_solve(args) -> int:
    domain = DomainSpec(kind=args.domain, dim=args.dim, radius=args.radius)
    spec = ProblemSpec(domain=domain, gamma=args.gamma, source=args.lam)
    grid = RadialGrid.uniform(domain, args.mesh)
    schedule = _schedule_for(args)
    base = _resolve(args.output, f"solve_{domain.kind}{domain.dim}_lam{args.lam:g}_M{args.mesh}")
    preset_name = "custom" if getattr(args, "rungs", None) else args.schedule
    info = _meta_schedule(schedule, preset_name)
    try:
        sol = continuation_solve(spec, schedule, grid)
    except NonConvergence as exc:
        print(f"continuation stalled at rung {exc.rung}: {exc}", file=sys.stderr)
        _write_bundle(base, grid, spec, exc.last, info, "solver", {"failed_rung": exc.rung})
        return 2
    except SingularJacobian as exc:
        print(f"continuation failed at rung {exc.rung}: singular Jacobian ({exc})", file=sys.stderr)
        return 2
    rep = _write_bundle(base, grid, spec, sol, info, "solver")
    return 0 if rep.passed else 1


def cmd_oracle(args) -> int:
    domain = DomainSpec(kind="ball", dim=args.dim, radius=1.0)
    spec = ProblemSpec(domain=domain, gamma=1.0, source=args.lam)
    grid = RadialGrid.uniform(domain, args.mesh)
    u, z = sampled_explicit(grid, args.lam)  # rejects lam <= dim
    residual = pointwise_residual((u, z), spec, grid)
    rep = verify((u, z), spec, grid)
    meta = {
        "generator": "oracle",
        "kind": domain.kind,
        "dim": domain.dim,
        "radius": domain.radius,
        "gamma": 1.0,
        "lam": args.lam,
        "mesh": args.mesh,
        "schedule": None,
        "plateau_radius_exact": oracle.ExplicitSolution(args.dim, args.lam).plateau_radius,
    }
    meta.update(_report_payload(rep))
    base = _resolve(args.output, f"oracle_{args.dim}d_lam{args.lam:g}_M{args.mesh}")
    main_path, _, _ = io.write_solution(base, grid, u, z, residual, meta)
    print(f"wrote {main_path} (+ _flux.csv, .meta.json)")
    _print_verdicts(rep)
    return 0 if rep.passed else 1


def _meta_field(meta, key: str, kind):
    """One typed field of a bundle's metadata; a missing or mistyped field
    is bad input, not a crash."""
    if not isinstance(meta, dict) or key not in meta:
        raise _CliError(f"bundle metadata has no {key!r}")
    return _typed(f"bundle metadata {key!r}", meta[key], kind)


def cmd_verify(args) -> int:
    rec = io.read_solution(args.input)
    meta = rec.meta
    domain = DomainSpec(
        kind=_meta_field(meta, "kind", str),
        dim=_meta_field(meta, "dim", int),
        radius=_meta_field(meta, "radius", float),
    )
    spec = ProblemSpec(domain=domain, gamma=_meta_field(meta, "gamma", float), source=_meta_field(meta, "lam", float))
    grid = RadialGrid.uniform(domain, _meta_field(meta, "mesh", int))
    if not np.array_equal(rec.r, grid.nodes) or not np.array_equal(rec.flux_r, grid.midpoints):
        raise GridMismatch("stored abscissae do not match the grid in the metadata")
    tol = Tolerances.for_solver() if meta.get("generator") == "solver" else Tolerances()
    rep = verify((rec.u, rec.flux_z), spec, grid, tol)
    payload = {"input": str(args.input), "tolerances": tol}
    payload.update(_report_payload(rep))
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
    if args.mode == "oracle":
        if args.gamma != 1.0:
            # the closed forms are the gamma = 1 solutions
            raise _CliError(f"sweep --mode oracle knows only gamma = 1, got --gamma {args.gamma:g}")
        curves = [oracle.profile(args.dim, lam, np.abs(x)) for lam in lams]
        header = ["x"] + [f"u_lam{lam:g}" for lam in lams]
        if args.format == "csv":
            path = io.write_csv(base.parent / f"{base.name}.csv", header, [x] + curves)
        else:
            payload = {"x": x, "curves": {f"{lam:g}": c for lam, c in zip(lams, curves)}}
            path = io.write_json(base.parent / f"{base.name}.json", payload)
        print(f"wrote {path}")
        return 0

    grid = RadialGrid.uniform(domain, args.mesh)
    schedule = _schedule_for(args)

    specs = [ProblemSpec(domain=domain, gamma=args.gamma, source=lam) for lam in lams]
    results = continuation_solve(specs, schedule, grid)
    for lam, sol in zip(lams, results):
        if isinstance(sol, NonConvergence):
            print(f"lambda={lam:g} stalled at rung {sol.rung}", file=sys.stderr)
        elif isinstance(sol, SingularJacobian):
            print(f"lambda={lam:g} failed at rung {sol.rung}: singular Jacobian ({sol})", file=sys.stderr)
    if any(isinstance(sol, Exception) for sol in results):
        return 2

    header = ["x"]
    cols = [x]
    reports = {}
    r_abs = np.abs(x)
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
    """Reject a config key that names no flag of the subcommand (nor a
    schedule knob, for the subcommands that take a schedule) and a value
    that its flag cannot take, before either reaches the code behind the
    flag."""
    keys = {action.dest for action in sub._actions if action.dest != "help"}
    if "schedule" in keys:
        keys.update(["rungs"] + [k for k, _ in _KNOBS])
    for key in cfg:
        if key not in keys:
            raise _CliError(f"{path}: unknown config key {key!r}")
    for action in sub._actions:
        if action.dest not in cfg:
            continue
        value = cfg[action.dest]
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
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
