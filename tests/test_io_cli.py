"""Serialization and command-line behavior.

The io layer promises bit-stable round trips: 17 significant digits pin each
double exactly, and writers fix newline, field order, and key order, so a
rerun with identical flags must reproduce the files byte for byte.  The CLI
tests run `main` in process and check the exit-status contract: 0 success,
1 bad input or a failed verdict, 2 non-convergence with partial output.
"""

import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from pytest import approx

from onelap import cli, io, solver
from onelap.geometry import DomainSpec
from onelap.solver import ProblemSpec, RadialGrid, continuation_solve
from onelap.verify import Tolerances, verify


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    # keep every relative output inside the test tree
    monkeypatch.setenv("ONELAP_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_format_float_pins_the_double():
    awkward = [0.1, math.pi, 1e-300, 2.0 / 3.0, 1.0 + 2.0**-52]
    for x in awkward:
        assert float(io.format_float(x)) == x
    assert io.format_float(0.1) == "0.10000000000000001"


def test_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    cols = [rng.standard_normal(40), np.exp(rng.standard_normal(40) * 300)]
    path = io.write_csv(tmp_path / "t.csv", ["a", "b"], cols)
    header, back = io.read_csv(path)
    assert header == ["a", "b"]
    for sent, got in zip(cols, back):
        assert np.array_equal(sent, got)


def _hard_doubles():
    """Doubles whose "%.17g" text is easy to get wrong."""
    rng = np.random.default_rng(2)
    edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 0.1, -1.0 / 3.0,
            1e16, 123456789012345680.0, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    # 10^k, the points where %g changes notation, and both float neighbours
    centres = [float(f"1e{k}") for k in range(-300, 301)] + [1e-5, 1e-4, 1e16, 1e17]
    powers = [float(np.nextafter(x, to)) for x in centres for to in (0.0, x, math.inf)]
    # from 18-digit integers ending in 5: the doubles nearest to them scaled
    # by 10^e, and exact ties m / 2^j (m odd, 18 - j digits before the point),
    # which "%.17g" rounds half-even
    tail5 = rng.integers(10**16, 10**17, 300) * 10 + 5
    nearest = [float(f"{d}e{e}") for d, e in zip(tail5.tolist(), rng.integers(-300, 290, 300).tolist())]
    ties = []
    for j in range(2, 25):
        q = 18 - j
        low = 10 ** (q - 1) * 2 ** (j - 1) if q >= 1 else -(-(2 ** (j - 1)) // 10 ** (1 - q))
        high = min(10**q * 2 ** (j - 1) if q >= 0 else 2 ** (j - 1) // 10**-q, 2**52)
        ties += [(2 * m + 1) / 2**j for m in rng.integers(low, high, 10).tolist()]
    scattered = rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, 3000)
    return np.concatenate([edge, powers, nearest, ties, -np.array(ties), scattered])


_BLOCK = io._CSV_BLOCK_VALUES


@pytest.mark.parametrize("rows, ncols", [
    pytest.param(0, 3, id="0"), pytest.param(1, 3, id="1"), pytest.param(5000, 3, id="5000"),
    pytest.param(_BLOCK - 1, 1, id="block-1"), pytest.param(_BLOCK, 1, id="block"),
    pytest.param(_BLOCK + 1, 1, id="block+1"), pytest.param(401, 17, id="401x17")])
def test_csv_text_is_format_float_per_value(tmp_path, rows, ncols):
    # the whole-table writer must print each double exactly as format_float
    # does, including the values whose text is special, at table shapes
    # around the writer's block size and at the shape of a sweep table; the
    # 5000 x 3 table holds every hard double at least once
    table = np.resize(_hard_doubles(), (rows, ncols))
    header = [f"c{j}" for j in range(ncols)]
    path = io.write_csv(tmp_path / "t.csv", header, list(table.T))
    want = ",".join(header) + "\n" + "".join(",".join(io.format_float(v) for v in row) + "\n" for row in table)
    assert path.read_bytes() == want.encode("ascii")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # one file, rewritten each time
@given(st.lists(st.tuples(st.floats(), st.floats())))
def test_csv_writes_and_reads_back_any_double(tmp_path, pairs):
    cols = [np.array([p[j] for p in pairs], dtype=float) for j in (0, 1)]
    path = io.write_csv(tmp_path / "any.csv", ["a", "b"], cols)
    want = "a,b\n" + "".join(f"{io.format_float(x)},{io.format_float(y)}\n" for x, y in pairs)
    assert path.read_bytes() == want.encode("ascii")
    _, back = io.read_csv(path)
    for sent, got in zip(cols, back):
        # bit for bit, except that any nan may come back as the default nan
        nan = np.isnan(sent)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(sent[~nan].view(np.int64), got[~nan].view(np.int64))


def test_csv_rejects_ragged_input(tmp_path):
    with pytest.raises(ValueError, match="per column"):
        io.write_csv(tmp_path / "t.csv", ["a"], [np.zeros(3), np.zeros(3)])
    with pytest.raises(ValueError, match="share a length"):
        io.write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])


def test_json_round_trip_handles_numpy_and_dataclasses(tmp_path):
    payload = {
        "arr": np.arange(3.0),
        "flag": np.bool_(True),
        "count": np.int64(5),
        "x": np.float64(0.1),
        "tol": Tolerances(),
        "path": tmp_path / "somewhere",
    }
    p = io.write_json(tmp_path / "t.json", payload)
    back = io.read_json(p)
    assert back["arr"] == [0.0, 1.0, 2.0]
    assert back["flag"] is True and back["count"] == 5
    assert back["x"] == 0.1
    assert back["tol"]["equation"] == 2e-3
    with pytest.raises(TypeError, match="serialize"):
        io.write_json(tmp_path / "bad.json", {"s": {1, 2}})


def test_json_text_of_every_leaf_type():
    # each type `json` cannot encode itself, nested where no CLI payload puts it
    payload = {"b": np.bool_(True), "i": np.int64(3), "f": np.float32(0.1),
               "a": np.arange(4.0).reshape(2, 2), "t": (1, 2.5), "p": Path("x/y"),
               "d": Tolerances(), "m": types.MappingProxyType({"k": np.float64(0.1)})}
    assert io.json_text(payload) == (
        '{\n  "a": [\n    [\n      0.0,\n      1.0\n    ],\n    [\n      2.0,\n      3.0\n    ]\n  ],\n'
        '  "b": true,\n  "d": {\n    "energy": 0.001,\n    "equation": 0.002\n  },\n'
        '  "f": 0.10000000149011612,\n  "i": 3,\n  "m": {\n    "k": 0.1\n  },\n'
        '  "p": "x/y",\n  "t": [\n    1,\n    2.5\n  ]\n}')
    with pytest.raises(TypeError, match="cannot serialize object"):
        io.json_text({"o": object()})


def test_nodal_flux_endpoints():
    grid = RadialGrid.uniform(DomainSpec("ball", 2), 10)
    z_mid = -2.0 * grid.midpoints
    z = io.nodal_flux(z_mid)
    assert z[0] == 0.0
    # linear data extrapolates exactly to the boundary node
    assert z[-1] == approx(-2.0 * grid.radius, rel=1e-15)
    assert z[1:-1] == approx(-2.0 * grid.nodes[1:-1], rel=1e-15)
    with pytest.raises(ValueError, match="two midpoints"):
        io.nodal_flux(np.array([1.0]))


def test_solution_paths_naming(tmp_path):
    main, flux, meta = io.solution_paths(tmp_path / "run" / "case.csv")
    assert main.name == "case.csv"
    assert flux.name == "case_flux.csv"
    assert meta.name == "case.meta.json"


def test_solution_bundle_round_trip(tmp_path):
    grid = RadialGrid.uniform(DomainSpec("ball", 3), 24)
    rng = np.random.default_rng(3)
    u = rng.random(25)
    z = -rng.random(24)
    res = rng.standard_normal(24) * 1e-9
    meta = {"generator": "test", "mesh": 24, "lam": 4.0}
    io.write_solution(tmp_path / "case", grid, u, z, res, meta)
    rec = io.read_solution(tmp_path / "case")
    assert np.array_equal(rec.r, grid.nodes)
    assert np.array_equal(rec.u, u)
    assert np.array_equal(rec.flux_r, grid.midpoints)
    assert np.array_equal(rec.flux_z, z)
    assert np.array_equal(rec.residual[:-1], res) and rec.residual[-1] == 0.0
    assert rec.meta == meta
    with pytest.raises(ValueError, match="match the grid"):
        io.write_solution(tmp_path / "bad", grid, u[:-1], z, res, meta)


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ONELAP_OUT_DIR", str(tmp_path / "deep"))
    assert io.default_output_dir() == tmp_path / "deep"
    monkeypatch.delenv("ONELAP_OUT_DIR")
    assert io.default_output_dir() == io.Path(".")


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def solve_bundle(tmp_path_factory):
    """One interval solve shared by the bundle-consuming tests."""
    out = tmp_path_factory.mktemp("solve")
    rc = cli.main(
        [
            "solve",
            "--domain",
            "interval",
            "--dim",
            "1",
            "--lambda",
            "4",
            "--mesh",
            "200",
            "--output",
            str(out / "sol"),
        ]
    )
    return rc, out / "sol"


def test_solve_writes_certified_bundle(solve_bundle):
    rc, base = solve_bundle
    assert rc == 0
    for p in io.solution_paths(base):
        assert p.exists()
    meta = io.read_json(base.parent / "sol.meta.json")
    assert meta["generator"] == "solver"
    assert meta["converged"] is True and meta["passed"] is True
    assert meta["schedule"]["preset"] == "default"
    assert len(meta["schedule"]["rungs"]) == len(meta["rungs"]) == 13
    rec = io.read_solution(base)
    assert np.max(rec.u) == approx(1.0 - math.exp(-3.0), abs=1e-2)
    assert meta["plateau_radius_estimate"] == approx(0.25, abs=0.02)


def test_verify_recertifies_bundle(solve_bundle, capsys, _out_dir):
    rc, base = solve_bundle
    assert cli.main(["verify", "--input", str(base)]) == 0
    out = capsys.readouterr().out
    assert "verdicts:" in out and "FAIL" not in out
    report = io.read_json(base.parent / "sol.verify.json")
    assert report["passed"] is True
    assert report["tolerances"]["equation"] == 1e-2
    # a relative --output lands in the output directory, subdirectory and all
    assert cli.main(["verify", "--input", str(base), "--output", "vv/x.json"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {_out_dir / 'vv' / 'x.json'}"
    assert (_out_dir / "vv" / "x.json").read_bytes() == (base.parent / "sol.verify.json").read_bytes()


def test_verify_flags_tampered_flux(solve_bundle, tmp_path):
    rc, base = solve_bundle
    rec = io.read_solution(base)
    grid = RadialGrid.uniform(DomainSpec(rec.meta["kind"], rec.meta["dim"]), rec.meta["mesh"])
    io.write_solution(tmp_path / "sol", grid, rec.u, np.zeros(grid.mesh_size), rec.residual[:-1], rec.meta)
    assert cli.main(["verify", "--input", str(tmp_path / "sol")]) == 1
    report = io.read_json(tmp_path / "sol.verify.json")
    assert report["verdicts"]["equation"] is False


def test_oracle_bundle_and_determinism(tmp_path):
    argv = ["oracle", "--dim", "2", "--lambda", "4", "--mesh", "500"]
    assert cli.main(argv + ["--output", str(tmp_path / "a" / "orc")]) == 0
    assert cli.main(argv + ["--output", str(tmp_path / "b" / "orc")]) == 0
    for name in ("orc.csv", "orc_flux.csv", "orc.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    first = (tmp_path / "a" / "orc.csv").read_text().splitlines()[0]
    assert first == "r,u,z,residual"
    meta = io.read_json(tmp_path / "a" / "orc.meta.json")
    assert meta["plateau_radius_exact"] == 0.5
    assert meta["passed"] is True


def test_negative_source_exits_one(capsys):
    rc = cli.main(["solve", "--dim", "1", "--lambda", "-2", "--mesh", "50"])
    assert rc == 1
    assert "error: source must be nonnegative" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert cli.main(["solve", "--lambda", "4", "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_below_regime_exits_one(capsys):
    assert cli.main(["oracle", "--dim", "2", "--lambda", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_oracle_curves(tmp_path):
    rc = cli.main(
        [
            "sweep",
            "--mode",
            "oracle",
            "--lambdas",
            "2:20:1",
            "--samples",
            "41",
            "--output",
            str(tmp_path / "curves"),
        ]
    )
    assert rc == 0
    header, cols = io.read_csv(tmp_path / "curves.csv")
    assert header[0] == "x" and header[1] == "u_lam2" and header[-1] == "u_lam20"
    assert len(header) == 20 and cols[0].size == 41
    # diameter sections are even in x
    for c in cols[1:]:
        assert np.allclose(c, c[::-1], atol=1e-15)


def test_sweep_oracle_rejects_gamma_other_than_one(tmp_path, capsys):
    # the closed forms are the gamma = 1 solutions; a gamma = 2 sweep must
    # not write them under a gamma = 2 name
    rc = cli.main(["sweep", "--mode", "oracle", "--gamma", "2", "--lambdas", "2,4", "--samples", "5",
                   "--output", str(tmp_path / "g2")])
    assert rc == 1
    assert capsys.readouterr().err == "error: sweep --mode oracle knows only gamma = 1, got --gamma 2\n"
    assert list(tmp_path.glob("g2*")) == []


def test_sweep_rejects_subcritical_strengths(capsys):
    rc = cli.main(["sweep", "--mode", "oracle", "--lambdas", "0.5,1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "do not exceed the Cheeger constant 1" in err


def test_sweep_solver_mode(tmp_path):
    rc = cli.main(
        [
            "sweep",
            "--mode",
            "solver",
            "--dim",
            "1",
            "--lambdas",
            "4",
            "--samples",
            "21",
            "--mesh",
            "200",
            "--output",
            str(tmp_path / "sw"),
        ]
    )
    assert rc == 0
    header, cols = io.read_csv(tmp_path / "sw.csv")
    assert header == ["x", "u_lam4", "res_lam4"]
    reports = io.read_json(tmp_path / "sw_reports.json")
    assert reports["4"]["passed"] is True


@pytest.mark.parametrize("mode", ["oracle", "solver"])
@pytest.mark.parametrize("lambdas, samples, message", [
    *(pytest.param("4", n, f"need at least 2 samples, got --samples {n}", id=str(n)) for n in (0, 1, -3)),
    # curves are named by six significant digits, so these three would share one
    pytest.param("4,4.0000000001,4", 3, "source strengths 4.0 and 4.0000000001 share the column name u_lam4",
                 id="same-name"),
    pytest.param("2:3", 3, "range must be start:stop:step, got '2:3'", id="two-part-range"),
    pytest.param("2,x", 3, "cannot parse lambda list '2,x'", id="not-a-number"),
    pytest.param(",", 3, "empty lambda list", id="empty-list"),
])
def test_sweep_rejects_fewer_than_two_samples(tmp_path, capsys, monkeypatch, mode, lambdas, samples, message):
    # a section needs both ends, and each strength a column of its own; the
    # checks come before any solve
    def no_solve(*args):
        raise AssertionError("solved before rejecting the input")

    monkeypatch.setattr(cli, "continuation_solve", no_solve)
    rc = cli.main(["sweep", "--mode", mode, "--dim", "2", "--lambdas", lambdas, "--samples", str(samples),
                   "--mesh", "100", "--output", str(tmp_path / "sw")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("sw*")) == []


@pytest.mark.parametrize("mode", ["oracle", "solver"])
def test_sweep_json_holds_the_csv_columns(tmp_path, mode):
    argv = ["sweep", "--mode", mode, "--dim", "1", "--lambdas", "3,5", "--samples", "21", "--mesh", "200"]
    assert cli.main(argv + ["--output", str(tmp_path / "c")]) == 0
    assert cli.main(argv + ["--format", "json", "--output", str(tmp_path / "j")]) == 0
    header, cols = io.read_csv(tmp_path / "c.csv")
    # one shape in both modes: the CSV's columns, keyed by its header
    assert io.read_json(tmp_path / "j.json") == {
        "x": cols[0].tolist(), "columns": {h: c.tolist() for h, c in zip(header[1:], cols[1:])}
    }
    if mode == "solver":
        assert (tmp_path / "j_reports.json").read_bytes() == (tmp_path / "c_reports.json").read_bytes()


def _sweep(tmp_path, lams, mesh):
    return cli.main(["sweep", "--mode", "solver", "--dim", "1", "--lambdas", lams, "--samples", "41",
                     "--mesh", str(mesh), "--output", str(tmp_path / "sw")])


def test_sweep_solver_batch_matches_single_solves(tmp_path):
    assert _sweep(tmp_path, "1.5,3,5,7", 400) == 0
    header, cols = io.read_csv(tmp_path / "sw.csv")
    table = dict(zip(header, cols))
    reports = io.read_json(tmp_path / "sw_reports.json")
    domain = DomainSpec("ball", 1)
    grid = RadialGrid.uniform(domain, 400)
    r = np.abs(table["x"])
    for lam in (1.5, 3.0, 5.0, 7.0):
        spec = ProblemSpec(domain, gamma=1.0, source=lam)
        sol = continuation_solve(spec, grid)
        assert np.array_equal(table[f"u_lam{lam:g}"], np.interp(r, grid.nodes, sol.u))
        assert np.array_equal(table[f"res_lam{lam:g}"], np.interp(r, grid.nodes, np.append(sol.residual, 0.0)))
        want = io.write_json(tmp_path / "want.json", cli._report_payload(verify(sol, spec, grid, Tolerances.for_solver())))
        assert reports[f"{lam:g}"] == io.read_json(want)


def test_sweep_names_only_the_stalled_strength(tmp_path, capsys):
    # dim 1 at lam = 14 stalls at rung 6 on this mesh; lam = 4 converges
    assert _sweep(tmp_path, "4,14", 500) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["lambda=14 stalled at rung 6"]
    assert not (tmp_path / "sw.csv").exists()
    assert not (tmp_path / "sw_reports.json").exists()


def test_stalled_solve_bundle_lists_the_rungs_through_the_failed_one(tmp_path, capsys):
    # dim 1 at lam = 14 stalls at rung 6 on this mesh: the bundle records the
    # six rungs it climbed and the stalled seventh, and holds the state of
    # rung 5, the last that converged
    rc = cli.main(["solve", "--domain", "ball", "--dim", "1", "--lambda", "14", "--mesh", "500",
                   "--output", str(tmp_path / "stall")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("continuation stalled at rung 6: Newton stalled")
    meta = io.read_json(tmp_path / "stall.meta.json")
    assert meta["failed_rung"] == 6 and meta["converged"] is False
    rungs = meta["rungs"]
    assert len(rungs) == 7
    assert [[r["p"], r["n"], r["eps"]] for r in rungs] == meta["schedule"]["rungs"][:7]
    assert all(r["stop_reason"] in ("residual", "float_floor", "stagnation") for r in rungs[:-1])
    last = rungs[-1]
    assert last["stop_reason"] == meta["stop_reason"] == "stalled"
    assert last["iterations"] == solver._MAX_ITER
    written = rungs[-2]
    assert written["residual_norm"] == meta["residual_norm"] < last["residual_norm"]
    rec = io.read_solution(tmp_path / "stall")
    assert written["sup_norm"] == float(np.max(np.abs(rec.u)))
    grid = RadialGrid.uniform(DomainSpec("ball", 1), 500)
    assert written["plateau_radius"] == solver.plateau_extent(grid, rec.u) == meta["plateau_radius_estimate"]
    assert f"plateau radius {io.format_float(written['plateau_radius'])}" in out
    # each rung's kernel evaluations, as the solver counted them, and the
    # arrays of the last converged rung
    stalled = solver.continuation_solve(ProblemSpec(DomainSpec("ball", 1), 1.0, 14.0), grid)
    assert not stalled.converged and len(stalled.history) - 1 == meta["failed_rung"]
    history = stalled.history
    assert [r["residual_evals"] for r in rungs] == [h.residual_evals for h in history]
    assert rec.u.tobytes() == history[-2].u.tobytes()
    assert rec.flux_z.tobytes() == history[-2].z.tobytes()
    assert rec.residual[:-1].tobytes() == history[-2].residual.tobytes()


def test_solve_stalled_at_rung_0_writes_the_failed_iterate(tmp_path, capsys):
    # dim 1 at gamma = 0.3 and lam = 8 on 200 cells runs out of Newton
    # iterations on the first rung: with no converged rung before it, the
    # bundle holds the failed iterate, which verify rejects
    rc = cli.main(["solve", "--dim", "1", "--lambda", "8", "--gamma", "0.3", "--mesh", "200",
                   "--output", str(tmp_path / "stall")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "continuation stalled at rung 0: Newton stalled at residual 6.491e+00 (p=1.5, n=100, eps=0.001)"]
    meta = io.read_json(tmp_path / "stall.meta.json")
    assert (meta["failed_rung"], meta["converged"], meta["stop_reason"]) == (0, False, "stalled")
    (rung,) = meta["rungs"]
    assert (rung["iterations"], rung["stop_reason"], rung["mesh"]) == (solver._MAX_ITER, "stalled", 200)
    assert rung["residual_norm"] == meta["residual_norm"]
    dom = DomainSpec("ball", 1)
    stalled = continuation_solve(ProblemSpec(dom, 0.3, 8.0), RadialGrid.uniform(dom, 200))
    assert not stalled.converged and len(stalled.history) - 1 == 0
    assert io.read_solution(tmp_path / "stall").u.tobytes() == stalled.u.tobytes()
    assert cli.main(["verify", "--input", str(tmp_path / "stall")]) == 1


def _singular_at(lam, mesh, monkeypatch):
    """Make the banded solve refuse any system holding the block of the
    strength `lam` at the zero start, where its right-hand side is lam;
    every system when lam is None."""
    real = solver.solve_banded

    def fake(ab, b):
        if lam is None or np.any(b.reshape(-1, mesh)[:, 0] == lam):
            raise np.linalg.LinAlgError("singular matrix")
        return real(ab, b)

    monkeypatch.setattr(solver, "solve_banded", fake)


def test_sweep_singular_jacobian_exits_two(tmp_path, capsys, monkeypatch):
    _singular_at(3.0, 200, monkeypatch)
    assert _sweep(tmp_path, "2,3", 200) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["lambda=3 singular at rung 0"]
    assert not (tmp_path / "sw.csv").exists()


def test_solve_singular_jacobian_exits_two(tmp_path, capsys, monkeypatch):
    # a singular solve fails its rung as a stall does: at rung 0 there is no
    # converged rung, so the bundle holds the failed iterate, the zero start
    _singular_at(None, 100, monkeypatch)
    rc = cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "100",
                   "--output", str(tmp_path / "sol")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "continuation singular at rung 0: singular Jacobian at residual 4.000e+00 (p=1.5, n=100, eps=0.001)"]
    meta = io.read_json(tmp_path / "sol.meta.json")
    assert (meta["stop_reason"], meta["converged"], meta["failed_rung"]) == ("singular", False, 0)
    assert [(r["stop_reason"], r["iterations"]) for r in meta["rungs"]] == [("singular", 0)]
    assert io.read_solution(tmp_path / "sol").u.tobytes() == np.zeros(101).tobytes()


def test_solve_singular_at_a_later_rung_writes_the_rung_before(tmp_path, capsys, monkeypatch):
    # the banded solve refuses every system of rung 2 (p = 1.1): the bundle
    # holds the arrays of rung 1, as a stall's holds its last converged rung
    real_system, real_solve = solver.assemble_system, solver.solve_banded
    rung_p = []

    def system(spec, state, grid, u, pieces=None):
        rung_p.append(state.p)
        return real_system(spec, state, grid, u, pieces=pieces)

    def solve(ab, b):
        if rung_p[-1] == 1.1:
            raise np.linalg.LinAlgError("singular matrix")
        return real_solve(ab, b)

    monkeypatch.setattr(solver, "assemble_system", system)
    monkeypatch.setattr(solver, "solve_banded", solve)
    rc = cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "100",
                   "--output", str(tmp_path / "sol")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("continuation singular at rung 2: singular Jacobian at residual ")
    meta = io.read_json(tmp_path / "sol.meta.json")
    assert (meta["stop_reason"], meta["converged"], meta["failed_rung"]) == ("singular", False, 2)
    assert [r["stop_reason"] for r in meta["rungs"]][2:] == ["singular"]
    failed = continuation_solve(ProblemSpec(DomainSpec("interval", 1), 1.0, 4.0),
                                RadialGrid.uniform(DomainSpec("interval", 1), 100))
    assert not failed.converged and len(failed.history) - 1 == 2
    history = failed.history
    assert [h.stop_reason for h in history][2:] == ["singular"] and history[2].iterations == 0
    assert meta["residual_norm"] == meta["rungs"][1]["residual_norm"] == history[1].residual_norm
    rec = io.read_solution(tmp_path / "sol")
    assert rec.u.tobytes() == history[1].u.tobytes()
    assert rec.flux_z.tobytes() == history[1].z.tobytes()
    assert rec.residual[:-1].tobytes() == history[1].residual.tobytes()


_MISSING = object()


@pytest.mark.parametrize("table", ["header-only", "moved-node"])
def test_verify_bundle_off_its_grid_exits_one(tmp_path, capsys, table):
    # a table without rows, or with a node off the grid that the metadata
    # names, is a bad bundle: one error line, and no numpy warning first
    assert cli.main(["oracle", "--dim", "1", "--lambda", "2", "--mesh", "100",
                     "--output", str(tmp_path / "orc")]) == 0
    header, cols = io.read_csv(tmp_path / "orc.csv")
    if table == "header-only":
        cols = [c[:0] for c in cols]
    else:
        cols[0][5] += 1e-3
    io.write_csv(tmp_path / "orc.csv", header, cols)
    capsys.readouterr()
    assert cli.main(["verify", "--input", str(tmp_path / "orc")]) == 1
    assert capsys.readouterr() == ("", "error: stored abscissae do not match the grid in the metadata\n")
    assert not (tmp_path / "orc.verify.json").exists()


@pytest.mark.parametrize("key, value", [("kind", _MISSING), ("dim", _MISSING), ("mesh", _MISSING),
                                        ("lam", _MISSING), ("lam", None), ("dim", [1]), ("dim", math.inf),
                                        ("dim", 1.5), ("mesh", 100.5), ("dim", True), ("gamma", True),
                                        ("lam", True)])
def test_verify_malformed_bundle_exits_one(tmp_path, capsys, key, value):
    assert cli.main(["oracle", "--dim", "1", "--lambda", "2", "--mesh", "100",
                     "--output", str(tmp_path / "orc")]) == 0
    meta_path = tmp_path / "orc.meta.json"
    meta = io.read_json(meta_path)
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    io.write_json(meta_path, meta)
    capsys.readouterr()
    assert cli.main(["verify", "--input", str(tmp_path / "orc")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bundle metadata") and repr(key) in err


def test_cheeger_json_record(capsys):
    assert cli.main(["cheeger", "--domain", "ball", "--dim", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == 3.0 and payload["upper"] == 3.0
    assert payload["lower"] == approx(3.0, abs=1e-12)


def test_smallness_record(capsys):
    assert cli.main(["smallness", "--dim", "2", "--lambda", "1", "--fnorm", "1"]) == 0
    holds = json.loads(capsys.readouterr().out)
    assert holds["product"] == approx(0.28209479177387814, rel=1e-15)
    assert holds["holds"] is True
    assert cli.main(["smallness", "--dim", "2", "--lambda", "4", "--fnorm", "1"]) == 0
    fails = json.loads(capsys.readouterr().out)
    assert fails["product"] == approx(1.1283791670955126, rel=1e-15)
    assert fails["holds"] is False


@pytest.mark.parametrize("config", [{"mesh": 2.5}, {"mesh": [1]}, {"output": 5}, {"dim": 0},
                                    {"gamma": -1.0, "radius": -1.0}, {"mesh": math.inf},
                                    {"gamma": math.nan}, {"dim": True}, {"dim": "2.5"}])
def test_mistyped_config_is_bad_input(tmp_path, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "64", "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.glob("solve_*")) == []


@pytest.mark.parametrize("argv, config, key", [
    (["cheeger"], {"mesch": 10, "dimm": 3}, "mesch"),
    (["oracle", "--lambda", "3"], {"mesh": 64, "max_iter": 5}, "max_iter"),
    (["verify", "--input", "none"], {"rungs": [[1.1, 10, 0.01]]}, "rungs"),
    (["solve", "--lambda", "4"], {"mesh": 64, "command": "oracle"}, "command"),
    (["cheeger"], {"format": "xml"}, "config 'format' must be one of ['csv', 'json'], got 'xml'"),
    (["sweep", "--lambdas", "4"], {"mode": "solverr"}, "config 'mode' must be one of ['oracle', 'solver'], got 'solverr'"),
    (["cheeger"], [1, 2], "config must be a JSON object"),
    (["solve", "--lambda", "4"], {"schedule": "fast"}, "schedule"),  # no preset is named by config
    # nor is a ladder: solve and sweep climb solver.LADDER only
    *[(argv, {key: value}, key)
      for argv in (["solve", "--lambda", "4"], ["sweep", "--mode", "solver", "--lambdas", "4"])
      for key, value in (("rungs", [[1.5, 100, 0.001]]), ("newton_tol", 1e-8), ("step_tol", 0.0), ("max_iter", 5))],
])
def test_unknown_config_key_is_bad_input(tmp_path, capsys, argv, config, key):
    # a key that names no flag of the subcommand is a typo and must not be
    # dropped in silence; so is a value outside its flag's choices, which
    # argparse checks only on flags
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    want = key if key.startswith("config ") else f"unknown config key {key!r}"
    assert (out, err) == ("", f"error: {cfg}: {want}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["typo.json"]


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--lambdas", "4,inf"], None),
    (["sweep", "--lambdas", "2:inf:1"], None),
    (["sweep", "--mode", "solver", "--lambdas", "4,inf", "--mesh", "64"], None),
    (["cheeger", "--radius", "inf"], None),
    (["cheeger"], {"radius": math.inf}),
    (["smallness", "--dim", "2", "--lambda", "0", "--fnorm", "inf"], None),
    (["smallness", "--dim", "2", "--lambda", "inf", "--fnorm", "1"], None),
    (["solve", "--gamma", "inf", "--lambda", "4", "--mesh", "64"], None),
    (["solve", "--radius", "inf", "--lambda", "4", "--mesh", "64"], None),
    (["solve", "--lambda", "inf", "--mesh", "64"], None),
    (["solve", "--lambda", "4", "--mesh", "64"], {"gamma": math.inf}),
    (["solve", "--lambda", "4", "--mesh", "64"], {"radius": math.inf}),
    (["oracle", "--lambda", "inf", "--mesh", "64"], None),
    (["solve", "--lambda", "4", "--schedule", "default"], None),  # no preset is named by flag
    # finite flags whose arithmetic overflows
    (["cheeger", "--dim", "400"], None),  # the unit ball's volume overflows math.gamma
    (["smallness", "--dim", "400", "--lambda", "1", "--fnorm", "1"], None),
    (["cheeger", "--radius", "1e-320"], None),  # the measure's power -1 overflows
    (["cheeger", "--dim", "3", "--radius", "1e300"], None),  # the measure R ** 3 overflows
    (["sweep", "--lambdas", "0:1e300:1e-300"], None),  # a range of infinitely many strengths
    # grids whose finite-volume weights leave the float range: the innermost
    # cell's (dr/2)^N underflows to 0, or R^N overflows
    (["oracle", "--dim", "100", "--lambda", "110", "--mesh", "1000"], None),
    (["oracle", "--dim", "400", "--lambda", "500", "--mesh", "64"], None),
    (["solve", "--dim", "200", "--lambda", "300", "--mesh", "64"], None),
    (["solve", "--dim", "150", "--radius", "200", "--lambda", "1", "--mesh", "64"], None),
    # W_i dr^2, which divides the Jacobian's rows, underflows to 0, or is
    # so small that the last rung's flux sensitivity over it overflows
    (["solve", "--radius", "1e-320", "--lambda", "4", "--mesh", "64"], None),
    (["solve", "--radius", "1e-150", "--lambda", "4", "--mesh", "64"], None),
])
def test_non_finite_numbers_are_bad_input(tmp_path, capsys, argv, config):
    # JSON's Infinity reaches the code like the flag text "inf": both exit 1
    # with one error line, before any arithmetic could warn or write a file;
    # a finite flag whose arithmetic overflows exits 1 the same way, not
    # with a traceback
    if config is not None:
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 1
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["inf.json"])


@pytest.mark.parametrize("argv, error", [
    (["cheeger", "--dim", "400"], "dim 400 is out of range: the unit ball's volume overflows float"),
    (["smallness", "--dim", "400", "--lambda", "1", "--fnorm", "1"],
     "dim 400 is out of range: the unit ball's volume overflows float"),
    (["cheeger", "--radius", "1e-320"], "radius 1e-320 is out of range in dim 1: the Cheeger bounds overflow float"),
    (["cheeger", "--dim", "3", "--radius", "1e300"],
     "radius 1e+300 is out of range in dim 3: the Cheeger bounds overflow float"),
    (["oracle", "--dim", "100", "--lambda", "110", "--mesh", "1000"],
     "dim 100 on a mesh of 1000 cells of radius 1.0 puts the finite-volume weights out of float range"),
    (["solve", "--dim", "150", "--radius", "200", "--lambda", "1", "--mesh", "64"],
     "dim 150 on a mesh of 64 cells of radius 200.0 puts the finite-volume weights out of float range"),
    (["solve", "--radius", "1e-320", "--lambda", "4", "--mesh", "64"],
     "dim 1 on a mesh of 64 cells of radius 1e-320 puts the finite-volume weights out of float range"),
    (["solve", "--radius", "1e-150", "--lambda", "4", "--mesh", "64"],
     "dim 1 on a mesh of 64 cells of radius 1e-150 puts the finite-volume weights out of float range"),
], ids=["cheeger-dim", "smallness-dim", "cheeger-tiny-radius", "cheeger-huge-radius", "grid-underflow",
        "grid-overflow", "grid-tiny-radius", "grid-jacobian-overflow"])
def test_out_of_range_errors_name_the_input(capsys, argv, error):
    # an overflow or an underflow says which flag, at which value, caused it
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


_UNALLOCATABLE = "100000000000000000"  # 1e17 cells, 711 PiB per float64 array


@pytest.mark.parametrize("argv", [
    ["solve", "--lambda", "4", "--mesh", _UNALLOCATABLE],
    ["oracle", "--lambda", "4", "--mesh", _UNALLOCATABLE],
    ["sweep", "--lambdas", "4", "--samples", _UNALLOCATABLE],
    ["sweep", "--mode", "solver", "--lambdas", "4", "--mesh", _UNALLOCATABLE],
    ["verify"],
], ids=["solve", "oracle", "sweep-oracle", "sweep-solver", "verify"])
def test_unallocatable_size_is_one_error_line(tmp_path, capsys, argv):
    # no address space holds the arrays, so numpy refuses at once
    if argv == ["verify"]:
        assert cli.main(["oracle", "--dim", "1", "--lambda", "2", "--mesh", "64",
                         "--output", str(tmp_path / "orc")]) == 0
        meta = io.read_json(tmp_path / "orc.meta.json")
        meta["mesh"] = int(_UNALLOCATABLE)
        io.write_json(tmp_path / "orc.meta.json", meta)
        argv = ["verify", "--input", str(tmp_path / "orc")]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")
    assert "Traceback" not in out + err
    assert sorted(tmp_path.rglob("*")) == before


def test_radius_a_decade_inside_float_range_solves_quietly(tmp_path, capsys):
    # at radius 1e-148 on 64 cells every Jacobian row stays finite: the solve
    # certifies the zero state with no warning, which the suite makes an error
    assert cli.main(["solve", "--radius", "1e-148", "--lambda", "4", "--mesh", "64", "--output", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err == ""


_VERDICTS = "verdicts: field_bound={}, pairing={}, equation={}, trace=pass, energy={}, log_substitution=pass"
_BUNDLE_KEYS = ["dim", "gamma", "generator", "kind", "lam", "mesh", "radius", "schedule"]
_REPORT_KEYS = ["defects", "log_substitution", "passed", "plateau_radius_estimate", "verdicts"]
_SOLVER_KEYS = ["converged", "residual_norm", "rungs", "stop_reason"]


@pytest.mark.parametrize("argv, config, rc, keys, lines", [
    (["solve", "--domain", "interval", "--lambda", "4", "--mesh", "200"], None, 0, _SOLVER_KEYS,
     ["sup norm 0.95019796451273375, plateau radius 0.25", _VERDICTS.format("pass", "pass", "pass", "pass")]),
    # stalls at rung 6 and writes rung 5; the mesh comes from the config file
    (["solve", "--domain", "ball", "--dim", "1", "--lambda", "14"], {"mesh": 500}, 2, _SOLVER_KEYS + ["failed_rung"],
     ["sup norm 0.99999768816405021, plateau radius 0.01",
      _VERDICTS.format("FAIL", "FAIL", "FAIL", "pass")]),
    (["oracle", "--dim", "2", "--lambda", "4", "--mesh", "500"], None, 0, ["plateau_radius_exact"],
     [_VERDICTS.format("pass", "pass", "pass", "pass")]),
])
def test_bundle_keys_stdout_and_verify_verdicts(tmp_path, capsys, argv, config, rc, keys, lines):
    # solve (converged or stalled) and oracle write through one writer: the
    # problem record, the generator's keys and the report, nothing else;
    # verify rebuilds the problem from that record and agrees on every verdict
    base = tmp_path / "b"
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "c.json")]
    assert cli.main(argv + ["--output", str(base)]) == rc
    out = capsys.readouterr().out.splitlines()
    assert out == [f"wrote {tmp_path / 'b.csv'} (+ _flux.csv, .meta.json)"] + lines
    meta = io.read_json(tmp_path / "b.meta.json")
    assert sorted(meta) == sorted(_BUNDLE_KEYS + _REPORT_KEYS + keys)
    assert cli.main(["verify", "--input", str(base)]) == (0 if meta["passed"] else 1)
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / 'b.verify.json'}", lines[-1]]
    report = io.read_json(tmp_path / "b.verify.json")
    assert report["verdicts"] == meta["verdicts"] and report["passed"] == meta["passed"]


def test_config_defaults_yield_to_explicit_flags(tmp_path, capsys):
    cfg = tmp_path / "dim.json"
    cfg.write_text(json.dumps({"dim": 2}))
    assert cli.main(["cheeger", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 2.0
    assert cli.main(["cheeger", "--config", str(cfg), "--dim", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 3.0


def test_relative_output_lands_in_env_dir(_out_dir, capsys):
    assert cli.main(["cheeger", "--dim", "2", "--format", "csv", "--output", "c.csv"]) == 0
    header, cols = io.read_csv(_out_dir / "c.csv")
    assert header == ["lower", "upper", "exact"]
    assert cols[2][0] == 2.0
    capsys.readouterr()
    # a JSON record goes to stdout and, given --output, to that file as well
    assert cli.main(["cheeger", "--dim", "2", "--output", "ch.json"]) == 0
    assert capsys.readouterr().out == (_out_dir / "ch.json").read_text()
    assert io.read_json(_out_dir / "ch.json")["exact"] == 2.0


_NO_SOLVE = """
import sys
from onelap import cli
runs = [
    ["oracle", "--dim", "2", "--lambda", "4", "--mesh", "200", "--output", "o"],
    ["verify", "--input", "o"],
    ["cheeger", "--dim", "3"],
    ["smallness", "--dim", "2", "--lambda", "1", "--fnorm", "1"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
before = "scipy.linalg" in sys.modules
cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "64"])
print("scipy.linalg loaded before and after a solve:", before, "scipy.linalg" in sys.modules)
print("scipy.linalg modules after a solve:", sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
"""


def _fresh_python(tmp_path, script, *args):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "ONELAP_OUT_DIR": str(tmp_path)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_commands_that_never_solve_start_without_scipy(tmp_path):
    # importing scipy.linalg takes about half of a short fresh solve; the
    # banded solve loads only scipy's compiled LAPACK wrapper, so no command
    # imports it
    assert _fresh_python(tmp_path, _NO_SOLVE)[-2:] == [
        "scipy.linalg loaded before and after a solve: False False",
        "scipy.linalg modules after a solve: []",
    ]


_SOLVE = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg
from onelap import cli
sys.exit(cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "200", "--output", sys.argv[1]]))
"""


def test_solve_gives_the_same_bundle_whether_or_not_scipy_linalg_is_loaded(tmp_path):
    # the banded solve loads the very file that scipy.linalg.lapack imports,
    # so its dgtsv is the Fortran routine scipy.linalg.solve_banded calls
    from scipy.linalg import _flapack

    assert solver._flapack().__file__ == _flapack.__file__
    for first in ("scipy-first", "onelap-only"):
        _fresh_python(tmp_path, _SOLVE, first)
    for sfx in (".csv", "_flux.csv", ".meta.json"):
        assert (tmp_path / f"scipy-first{sfx}").read_bytes() == (tmp_path / f"onelap-only{sfx}").read_bytes()
