"""Whole-pass benchmark of the onelap CLI.

    python3 perfbench/run.py --workload sweep-coarse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory, never from an installed copy.  One client drives
`onelap.cli.main(argv)` in this process as a closed loop: each call waits for
the previous one.  A pass runs every task of the workload once, in an order
drawn from --seed; passes repeat until --seconds have gone by, and every
pass is whole.  Outputs are checked after each pass, outside the timed
region.  All files go under .perfbench_out/<workload>/ through ONELAP_OUT_DIR.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics, with the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-up is measured in this many fresh processes and reported as the median
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "certified_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def require_sources() -> None:
    if not (SRC / "onelap" / "cli.py").is_file():
        raise BenchError(f"no onelap sources under {SRC}")


def load_cli():
    """Import onelap.cli from this checkout's src/ and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    from onelap import cli

    if Path(cli.__file__).resolve().parent != (SRC / "onelap").resolve():
        raise BenchError(f"onelap was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv, tracer=None):
    """One CLI call with its output swallowed; an exception escaping `main`
    is a failure of the call, reported by its type."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer is None:
                return cli.main(argv)
            return tracer.span(f"cli.{argv[0]}", cli.main, argv)
        except Exception as exc:  # the exit-code contract was broken; keep measuring
            return f"{type(exc).__name__}: {exc}"


def run_tasks(cli, tasks, out_dir, tracer=None):
    """Run the tasks' calls back to back; wall and CPU seconds, exit codes."""
    rcs = {}
    t0, c0 = time.perf_counter(), time.process_time()
    for task in tasks:
        rcs[task.name] = [call(cli, argv, tracer) for argv in task.calls(out_dir)]
    return time.perf_counter() - t0, time.process_time() - c0, rcs


def setup(workload_name, seed, out_dir):
    """Imports, inputs and one untimed warm-up of each operation kind."""
    cli = load_cli()
    workload = workloads.WORKLOADS[workload_name]
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ["ONELAP_OUT_DIR"] = str(out_dir)
    run_tasks(cli, workload.warmup, out_dir)  # the timed passes certify the same kinds
    return cli, workload, rng


def probe_setup(workload_name, seed) -> float:
    """Seconds from spawning a fresh process until its set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload_name, "--seed", str(seed),
           "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(cli, workload, rng, out_dir, seconds, tracer=None):
    """Whole passes until `seconds` have gone by.  With a tracer, passes
    alternate traced (even) and untraced (odd), at least one of each."""
    passes = []
    first_digest = {}
    start = time.perf_counter()
    while True:
        index = len(passes)
        order = list(workload.tasks)
        rng.shuffle(order)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.pass_index = index
            tracer.install()
        try:
            wall, cpu, rcs = run_tasks(cli, order, out_dir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        outcomes = []
        for task in workload.tasks:
            results = task.certify(out_dir, rcs[task.name])
            sums = workloads.digest(task.outputs(out_dir))
            if first_digest.setdefault(task.name, sums) != sums:
                results = [o if o.status == workloads.FAILED else
                           workloads.Outcome(o.op, workloads.WRONG, o.problems + ("outputs differ from pass 0",))
                           for o in results]
            outcomes += results
        passes.append({"traced": traced, "wall": wall, "cpu": cpu, "outcomes": outcomes})
        print(f"pass {index}{' traced' if traced else ''}: {wall:.3f} s wall, {cpu:.3f} s cpu", file=sys.stderr)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(passes) >= 2):
            return passes


def end_to_end(passes, setup_times) -> dict:
    walls = [p["wall"] for p in passes]
    certified = sum(o.status == workloads.CERTIFIED for p in passes for o in p["outcomes"])
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(walls),
        "certified_per_s": certified / sum(walls),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes, tracer) -> dict:
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    rows = [tracing.layer_metrics(tracer.spans, i) for i in traced]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    t_wall = statistics.median(passes[i]["wall"] for i in traced)
    u_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
    values["trace.overhead_pct"] = 100.0 * (t_wall / u_wall - 1.0)
    return {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    require_sources()
    work_dir = OUT / args.workload
    if args.setup_probe:
        setup(args.workload, args.seed, work_dir / "probe")
        print("ready", flush=True)
        return 0

    shutil.rmtree(work_dir, ignore_errors=True)
    setup_times = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    out_dir = work_dir / "run"
    cli, workload, rng = setup(args.workload, args.seed, out_dir)

    tracer = tracing.Tracer() if args.trace else None
    passes = measure(cli, workload, rng, out_dir, args.seconds, tracer)

    outcomes = [o for p in passes for o in p["outcomes"]]
    problems = sorted({(o.op, o.status, "; ".join(o.problems)) for o in outcomes if o.status != workloads.CERTIFIED})
    for op, status, text in problems:
        print(f"{status}: {op}: {text}", file=sys.stderr)
    if tracer is not None:
        tracer.write(work_dir / "spans.jsonl")
        metrics = per_layer(passes, tracer)
    else:
        metrics = end_to_end(passes, setup_times)
    result = {
        "correct": not any(o.status == workloads.WRONG for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status == workloads.FAILED for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
