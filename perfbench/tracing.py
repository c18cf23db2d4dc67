"""Spans around the calls into each layer of onelap, recorded from outside.

The program is not edited.  Each layer function is replaced, for the length
of a traced pass, at the module attribute through which its caller looks it
up (`onelap.solver.assemble_residual` is what `newton_solve` calls,
`onelap.cli.continuation_solve` is what the CLI calls), and restored after.
Spans stay in memory as tuples and are written out once, when the run ends.
Appending to a list is atomic under the interpreter lock, so the sweep's
worker threads record without a lock; every count is derived from the spans
afterwards, never kept as a shared counter.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# (module, attribute, span name, what to note about the result)
LAYERS = (
    ("onelap.cli", "continuation_solve", "solver.continuation_solve", None),
    ("onelap.solver", "newton_solve", "solver.newton_solve", "iterations"),
    ("onelap.solver", "assemble_residual", "solver.assemble_residual", None),
    ("onelap.solver", "assemble_system", "solver.assemble_system", None),
    ("onelap.solver", "solve_banded", "solver.solve_banded", None),
    ("onelap.solver", "absorption_truncated", "scalar.absorption_truncated", None),
    ("onelap.solver", "absorption_truncated_prime", "scalar.absorption_truncated_prime", None),
    ("onelap.cli", "verify", "verify.verify", None),
    ("onelap.cli", "sampled_explicit", "oracle.sampled_explicit", None),
    ("onelap.io", "write_solution", "io.write_solution", None),
    ("onelap.io", "read_solution", "io.read_solution", None),
    ("onelap.io", "write_csv", "io.write_csv", "bytes"),
    ("onelap.io", "write_json", "io.write_json", "bytes"),
    ("onelap.io", "read_csv", "io.read_csv", "bytes_arg"),
    ("onelap.io", "read_json", "io.read_json", "bytes_arg"),
)


def _iterations(result=None, exc=None):
    if exc is not None:
        last = getattr(exc, "last", None)
        return getattr(last, "iterations", 0) or 0
    return result.iterations


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    """Records spans (id, parent, request, pass, name, thread, start_ns,
    end_ns, busy_ns, note).  busy_ns is the calling thread's CPU time inside
    the span; unlike end_ns - start_ns it leaves out time spent asleep
    waiting for the interpreter lock.  A request is one CLI call; its span
    is the root, and spans opened in the sweep's worker threads hang off it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self.pass_index = -1
        self._request = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, t0, t1, busy, note):
        self.spans.append(
            (sid, parent, self._request, self.pass_index, name, threading.get_ident(), t0, t1, busy, note)
        )

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the CLI calls the client makes."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        if not stack:
            self._request = sid
        stack.append(sid)
        c0, t0 = time.thread_time_ns(), time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1, c1 = time.perf_counter_ns(), time.thread_time_ns()
            stack.pop()
            self._record(sid, parent, name, t0, t1, c1 - c0, None)

    def _wrap(self, fn, name: str, note):
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._request
            stack.append(sid)
            c0, t0 = time.thread_time_ns(), time.perf_counter_ns()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1, c1 = time.perf_counter_ns(), time.thread_time_ns()
                stack.pop()
                if note == "iterations":
                    value = _iterations(result, exc)
                elif note == "bytes":
                    value = _file_bytes(result)
                elif note == "bytes_arg":
                    value = _file_bytes(args[0] if args else None)
                else:
                    value = None
                tracer._record(sid, parent, name, t0, t1, c1 - c0, value)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for modname, attr, name, note in LAYERS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, note))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> Path:
        """All spans as JSON lines, written once at the end of the run."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "pass", "name", "thread", "start_ns", "end_ns", "busy_ns", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
        return path


UNITS = {
    "solver.newton_iters": "count",
    "solver.rungs": "count",
    "solver.assemble_residual.calls": "count",
    "solver.assemble_residual.s": "s",
    "solver.trials_per_step": "ratio",
    "solver.assemble_system.calls": "count",
    "solver.assemble_system.s": "s",
    "solver.assemble_system.us_per_call": "us",
    "scalar.absorption.s": "s",
    "solver.solve_banded.calls": "count",
    "solver.solve_banded.s": "s",
    "solver.continuation.s": "s",
    "verify.calls": "count",
    "verify.s": "s",
    "oracle.s": "s",
    "io.write_solution.s": "s",
    "io.write_csv.s": "s",
    "io.read_solution.s": "s",
    "io.write.bytes": "bytes",
    "io.read.bytes": "bytes",
    "cli.sweep.s": "s",
    "cli.solve.s": "s",
    "cli.verify.s": "s",
    "cli.oracle.s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans, pass_index: int) -> dict:
    """Per-layer figures of one traced pass: counts, inclusive seconds and
    bytes, keyed by the names in BENCHMARK.json."""
    calls, secs, busy, notes = {}, {}, {}, {}
    for _sid, _parent, _req, p, name, _th, t0, t1, cpu, note in spans:
        if p != pass_index:
            continue
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (t1 - t0) * 1e-9
        busy[name] = busy.get(name, 0.0) + cpu * 1e-9
        if note is not None:
            notes[name] = notes.get(name, 0) + note

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(secs.get(n, 0.0) for n in names)

    iters = notes.get("solver.newton_solve", 0)
    system_calls = c("solver.assemble_system")
    return {
        "solver.newton_iters": iters,
        "solver.rungs": c("solver.newton_solve"),
        "solver.assemble_residual.calls": c("solver.assemble_residual"),
        "solver.assemble_residual.s": s("solver.assemble_residual"),
        "solver.trials_per_step": c("solver.assemble_residual") / iters if iters else 0.0,
        "solver.assemble_system.calls": system_calls,
        "solver.assemble_system.s": s("solver.assemble_system"),
        # busy time, so that lock waits in the sweep's pool do not count
        "solver.assemble_system.us_per_call": (
            1e6 * busy.get("solver.assemble_system", 0.0) / system_calls if system_calls else 0.0
        ),
        "scalar.absorption.s": s("scalar.absorption_truncated", "scalar.absorption_truncated_prime"),
        "solver.solve_banded.calls": c("solver.solve_banded"),
        "solver.solve_banded.s": s("solver.solve_banded"),
        "solver.continuation.s": s("solver.continuation_solve"),
        "verify.calls": c("verify.verify"),
        "verify.s": s("verify.verify"),
        "oracle.s": s("oracle.sampled_explicit"),
        "io.write_solution.s": s("io.write_solution"),
        "io.write_csv.s": s("io.write_csv"),
        "io.read_solution.s": s("io.read_solution"),
        "io.write.bytes": notes.get("io.write_csv", 0) + notes.get("io.write_json", 0),
        "io.read.bytes": notes.get("io.read_csv", 0) + notes.get("io.read_json", 0),
        "cli.sweep.s": s("cli.sweep"),
        "cli.solve.s": s("cli.solve"),
        "cli.verify.s": s("cli.verify"),
        "cli.oracle.s": s("cli.oracle"),
    }
