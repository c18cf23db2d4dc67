"""The benchmark's workloads: fixed lists of CLI calls and how each output
is certified.

An operation is one output that gets certified: one lambda-curve of a
sweep, or one solution or oracle bundle.  A task is the CLI calls that make
some operations (a sweep makes one per strength; solve then verify makes
one).  Each operation ends in one of three states:

    certified  the program's verdicts hold and the independent checks pass
    failed     the program reported a failure: an exit code other than 0,
               a verdict that is false, or an exception out of `main`
    wrong      the program reported success but an independent check, or
               the byte-identity of outputs across passes, says otherwise
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import checks

CERTIFIED, FAILED, WRONG = "certified", "failed", "wrong"


@dataclass(frozen=True)
class Outcome:
    op: str
    status: str
    problems: tuple = ()


def _status(program: list, independent: list) -> str:
    if program:
        return FAILED
    return WRONG if independent else CERTIFIED


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _bundle_files(base: Path) -> list:
    return [base.parent / f"{base.name}{sfx}" for sfx in (".csv", "_flux.csv", ".meta.json")]


def _exit_problems(rcs) -> list:
    return [f"exit code {rc!r} from call {i}" for i, rc in enumerate(rcs) if rc != 0]


@dataclass(frozen=True)
class SweepTask:
    """`onelap sweep --mode solver` on the unit ball: one curve per strength."""

    dim: int
    lams: tuple
    mesh: int

    @property
    def name(self) -> str:
        return f"sweep_{self.dim}d_M{self.mesh}"

    def calls(self, out_dir: Path) -> list:
        lams = ",".join(f"{lam:g}" for lam in self.lams)
        return [["sweep", "--mode", "solver", "--dim", str(self.dim), "--lambdas", lams,
                 "--mesh", str(self.mesh), "--output", self.name]]

    def outputs(self, out_dir: Path) -> list:
        return [out_dir / f"{self.name}.csv", out_dir / f"{self.name}_reports.json"]

    def certify(self, out_dir: Path, rcs) -> list:
        ops = [f"sweep dim={self.dim} lam={lam:g} M={self.mesh}" for lam in self.lams]
        if problems := _exit_problems(rcs):
            return [Outcome(op, FAILED, tuple(problems)) for op in ops]
        reports = _read_json(out_dir / f"{self.name}_reports.json")
        header, cols = checks.read_table(out_dir / f"{self.name}.csv")
        table = dict(zip(header, cols))
        out = []
        for op, lam in zip(ops, self.lams):
            key = f"{lam:g}"
            program = checks.verdict_problems(reports[key]) if key in reports else ["no report"]
            if f"u_lam{key}" in table:
                independent = checks.check_sweep_curve(table["x"], table[f"u_lam{key}"], self.dim, lam, self.mesh)
            else:
                independent = [f"no column u_lam{key}"]
            out.append(Outcome(op, _status(program, independent), tuple(program + independent)))
        return out


@dataclass(frozen=True)
class SolveTask:
    """`onelap solve`, optionally followed by `onelap verify` on its bundle."""

    kind: str
    dim: int
    lam: float
    mesh: int
    reverify: bool

    @property
    def name(self) -> str:
        return f"solve_{self.kind}{self.dim}_lam{self.lam:g}_M{self.mesh}"

    def calls(self, out_dir: Path) -> list:
        out = [["solve", "--domain", self.kind, "--dim", str(self.dim), "--lambda", f"{self.lam:g}",
                "--mesh", str(self.mesh), "--output", self.name]]
        if self.reverify:
            out.append(["verify", "--input", str(out_dir / self.name)])
        return out

    def outputs(self, out_dir: Path) -> list:
        base = out_dir / self.name
        extra = [out_dir / f"{self.name}.verify.json"] if self.reverify else []
        return _bundle_files(base) + extra

    def certify(self, out_dir: Path, rcs) -> list:
        op = f"solve {self.kind} dim={self.dim} lam={self.lam:g} M={self.mesh}"
        base = out_dir / self.name
        program = _exit_problems(rcs)
        if not program:
            program += checks.verdict_problems(_read_json(base.parent / f"{base.name}.meta.json"))
            if self.reverify:
                program += checks.verdict_problems(_read_json(out_dir / f"{self.name}.verify.json"))
        independent = [] if program else checks.check_solver_bundle(
            checks.read_bundle(base), self.dim, self.lam, self.mesh)
        return [Outcome(op, _status(program, independent), tuple(program + independent))]


@dataclass(frozen=True)
class OracleTask:
    """`onelap oracle` followed by `onelap verify` on the written bundle."""

    dim: int
    lam: float
    mesh: int

    @property
    def name(self) -> str:
        return f"oracle_{self.dim}d_lam{self.lam:g}_M{self.mesh}"

    def calls(self, out_dir: Path) -> list:
        return [["oracle", "--dim", str(self.dim), "--lambda", f"{self.lam:g}", "--mesh", str(self.mesh),
                 "--output", self.name],
                ["verify", "--input", str(out_dir / self.name)]]

    def outputs(self, out_dir: Path) -> list:
        return _bundle_files(out_dir / self.name) + [out_dir / f"{self.name}.verify.json"]

    def certify(self, out_dir: Path, rcs) -> list:
        op = f"oracle dim={self.dim} lam={self.lam:g} M={self.mesh}"
        base = out_dir / self.name
        program = _exit_problems(rcs)
        if not program:
            program += checks.verdict_problems(_read_json(base.parent / f"{base.name}.meta.json"))
            program += checks.verdict_problems(_read_json(out_dir / f"{self.name}.verify.json"))
        independent = [] if program else checks.check_oracle_bundle(
            checks.read_bundle(base), self.dim, self.lam, self.mesh)
        return [Outcome(op, _status(program, independent), tuple(program + independent))]


def digest(paths) -> dict:
    """sha256 of each output file, to hold passes of one run byte-identical."""
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths if Path(p).exists()}


@dataclass(frozen=True)
class Workload:
    tasks: tuple
    warmup: tuple  # one small call of each operation kind, run untimed in set-up


# Strengths are written out, not computed, so that each one prints as the
# same short text in argv, in the CLI's column names and in the checks.
WORKLOADS = {
    # M=1000: fixed per-call cost and the sweep's thread pool dominate; io and
    # verify do little.  Dim 1 at lam=3 fails the `equation` verdict (flux
    # balance 1.96e-2 against 1e-2) on every run; it stays in as a failed op.
    "sweep-coarse": Workload(
        tasks=(
            SweepTask(1, (1.5, 2, 3, 4, 5, 6, 7, 8), 1000),
            SweepTask(2, (2.5, 3, 4, 5, 6, 7, 8, 9), 1000),
            SweepTask(3, (3.5, 4, 5, 6, 7, 8, 9, 10), 1000),
            SolveTask("ball", 1, 0.5, 1000, False),
            SolveTask("ball", 1, 0.9, 1000, False),
            SolveTask("ball", 2, 1.0, 1000, False),
            SolveTask("ball", 2, 1.8, 1000, False),
            SolveTask("ball", 3, 1.5, 1000, False),
            SolveTask("ball", 3, 2.7, 1000, False),
        ),
        warmup=(SweepTask(1, (4,), 1000), SolveTask("ball", 1, 0.5, 1000, False)),
    ),
    # Arithmetic per call dominates; bundles of ~2.4 MB are about a tenth of
    # the work.  Dims 2 and 3 stall at M=20000 today, so they run at 8000.
    "solve-fine": Workload(
        tasks=(
            SolveTask("interval", 1, 4, 20000, True),
            SolveTask("ball", 2, 4, 8000, True),
            SolveTask("ball", 3, 5, 8000, True),
        ),
        warmup=(SolveTask("interval", 1, 4, 1000, True),),
    ),
    # No solver at all: float formatting and parsing in io, and the verifier.
    "certify-oracle": Workload(
        tasks=tuple(OracleTask(d, lam, 20000) for d, lam in ((1, 2), (1, 5), (2, 3), (2, 6), (3, 4), (3, 8))),
        warmup=(OracleTask(1, 2, 1000),),
    ),
}
