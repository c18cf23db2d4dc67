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
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from onelap import cli, io, solver
from onelap.geometry import DomainSpec
from onelap.solver import ProblemSpec, RadialGrid, continuation_solve, schedule_preset
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


@pytest.mark.parametrize("rows", [0, 1, 5000])
def test_csv_text_is_format_float_per_value(tmp_path, rows):
    # the whole-table writer must print each double exactly as format_float
    # does, including the values whose text is special
    edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 0.1, -1.0 / 3.0,
            1e16, 123456789012345680.0, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(rows)
    values = np.concatenate([edge, rng.standard_normal(3 * rows) * 10.0 ** rng.integers(-300, 300, 3 * rows)])
    cols = [values[k : k + rows] for k in (0, rows, 2 * rows)]
    path = io.write_csv(tmp_path / "t.csv", ["a", "b", "c"], cols)
    want = "a,b,c\n" + "".join(",".join(io.format_float(v) for v in row) + "\n" for row in zip(*cols))
    assert path.read_bytes() == want.encode("ascii")


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


def test_verify_recertifies_bundle(solve_bundle, capsys):
    rc, base = solve_bundle
    assert cli.main(["verify", "--input", str(base)]) == 0
    out = capsys.readouterr().out
    assert "verdicts:" in out and "FAIL" not in out
    report = io.read_json(base.parent / "sol.verify.json")
    assert report["passed"] is True
    assert report["tolerances"]["equation"] == 1e-2


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
@pytest.mark.parametrize("samples", [0, 1, -3])
def test_sweep_rejects_fewer_than_two_samples(tmp_path, capsys, monkeypatch, mode, samples):
    # a section needs both ends; the check comes before any solve
    def no_solve(*args):
        raise AssertionError("solved before rejecting --samples")

    monkeypatch.setattr(cli, "continuation_solve", no_solve)
    rc = cli.main(["sweep", "--mode", mode, "--dim", "2", "--lambdas", "4", "--samples", str(samples),
                   "--mesh", "100", "--output", str(tmp_path / "sw")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: need at least 2 samples, got --samples {samples}\n"
    assert list(tmp_path.glob("sw*")) == []


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
        sol = continuation_solve(spec, schedule_preset("default"), grid)
        assert np.array_equal(table[f"u_lam{lam:g}"], np.interp(r, grid.nodes, sol.u))
        assert np.array_equal(table[f"res_lam{lam:g}"], np.interp(r, grid.nodes, np.append(sol.residual, 0.0)))
        want = io.write_json(tmp_path / "want.json", cli._report_payload(verify(sol, spec, grid, Tolerances.for_solver())))
        assert reports[f"{lam:g}"] == io.read_json(want)


def test_sweep_names_only_the_stalled_strength(tmp_path, capsys):
    # dim 1 at lam = 6 stalls at rung 8 on this mesh; lam = 4 converges
    assert _sweep(tmp_path, "4,6", 500) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["lambda=6 stalled at rung 8"]
    assert not (tmp_path / "sw.csv").exists()
    assert not (tmp_path / "sw_reports.json").exists()


def test_stalled_solve_bundle_lists_the_rungs_through_the_failed_one(tmp_path, capsys):
    # dim 1 at lam = 6 stalls at rung 8 on this mesh: the bundle records the
    # eight rungs it climbed and the stalled ninth
    rc = cli.main(["solve", "--domain", "ball", "--dim", "1", "--lambda", "6", "--mesh", "500",
                   "--output", str(tmp_path / "stall")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("continuation stalled at rung 8: Newton stalled")
    meta = io.read_json(tmp_path / "stall.meta.json")
    assert meta["failed_rung"] == 8 and meta["converged"] is False
    rungs = meta["rungs"]
    assert len(rungs) == 9
    assert [[r["p"], r["n"], r["eps"]] for r in rungs] == meta["schedule"]["rungs"][:9]
    assert all(r["stop_reason"] in ("residual", "float_floor", "stagnation") for r in rungs[:-1])
    last = rungs[-1]
    assert last["stop_reason"] == meta["stop_reason"] == "stalled"
    assert last["iterations"] == schedule_preset("default").max_iter
    assert last["residual_norm"] == meta["residual_norm"]
    rec = io.read_solution(tmp_path / "stall")
    assert last["sup_norm"] == float(np.max(np.abs(rec.u)))
    grid = RadialGrid.uniform(DomainSpec("ball", 1), 500)
    assert last["plateau_radius"] == solver.plateau_extent(grid, rec.u)


def _singular_at(lam, mesh, monkeypatch):
    """Make the banded solve refuse any system holding the block of the
    strength `lam` at the zero start, where its right-hand side is lam;
    every system when lam is None."""
    real = solver.solve_banded

    def fake(lu, ab, b):
        if lam is None or np.any(b.reshape(-1, mesh)[:, 0] == lam):
            raise np.linalg.LinAlgError("singular matrix")
        return real(lu, ab, b)

    monkeypatch.setattr(solver, "solve_banded", fake)


def test_sweep_singular_jacobian_exits_two(tmp_path, capsys, monkeypatch):
    _singular_at(3.0, 200, monkeypatch)
    assert _sweep(tmp_path, "2,3", 200) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["lambda=3 failed at rung 0: singular Jacobian (singular matrix)"]
    assert not (tmp_path / "sw.csv").exists()


def test_solve_singular_jacobian_exits_two(tmp_path, capsys, monkeypatch):
    _singular_at(None, 100, monkeypatch)
    rc = cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "100",
                   "--output", str(tmp_path / "sol")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["continuation failed at rung 0: singular Jacobian (singular matrix)"]


_MISSING = object()


@pytest.mark.parametrize("key, value", [("kind", _MISSING), ("dim", _MISSING), ("mesh", _MISSING),
                                        ("lam", _MISSING), ("lam", None), ("dim", [1])])
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


def test_config_starves_newton_exit_two(tmp_path, capsys):
    cfg = tmp_path / "hard.json"
    cfg.write_text(json.dumps({"rungs": [[1.5, 100, 0.001]], "max_iter": 2}))
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
            "120",
            "--config",
            str(cfg),
            "--output",
            str(tmp_path / "stall"),
        ]
    )
    assert rc == 2
    assert "stalled at rung 0" in capsys.readouterr().err
    meta = io.read_json(tmp_path / "stall.meta.json")
    assert meta["failed_rung"] == 0
    assert meta["converged"] is False
    assert meta["schedule"]["preset"] == "custom"


@pytest.mark.parametrize("config", [{"rungs": 5}, {"max_iter": [1]}, {"output": 5}])
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
    (["solve", "--lambda", "4"], {"max_iter": 5, "command": "oracle"}, "command"),
])
def test_unknown_config_key_is_bad_input(tmp_path, capsys, argv, config, key):
    # a key that names no flag of the subcommand, nor a schedule knob of
    # solve or sweep, is a typo and must not be dropped in silence
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {cfg}: unknown config key {key!r}\n")


def test_config_defaults_yield_to_explicit_flags(tmp_path, capsys):
    cfg = tmp_path / "dim.json"
    cfg.write_text(json.dumps({"dim": 2}))
    assert cli.main(["cheeger", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 2.0
    assert cli.main(["cheeger", "--config", str(cfg), "--dim", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] == 3.0


def test_relative_output_lands_in_env_dir(_out_dir):
    assert cli.main(["cheeger", "--dim", "2", "--format", "csv", "--output", "c.csv"]) == 0
    header, cols = io.read_csv(_out_dir / "c.csv")
    assert header == ["lower", "upper", "exact"]
    assert cols[2][0] == 2.0


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
cli.main(["solve", "--domain", "interval", "--lambda", "4", "--mesh", "64", "--schedule", "fast"])
print("scipy.linalg loaded before and after a solve:", before, "scipy.linalg" in sys.modules)
"""


def test_commands_that_never_solve_start_without_scipy(tmp_path):
    # scipy.linalg is a third of the CLI's start-up; only the banded solve
    # needs it, and it loads it on first use
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SOLVE], cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "ONELAP_OUT_DIR": str(tmp_path)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy.linalg loaded before and after a solve: False True"
