import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bqist import cli
from bqist import scattering as sc
from bqist.config import TOLERANCES, ConfigError, RunConfig, Tolerances


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bqist.cli", *args],
                          capture_output=True, text=True)


def write_csv(path, x, u0, u1):
    lines = ["x,u0,u1"] + [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(x, u0, u1)]
    path.write_text("\n".join(lines))
    return path


def write_config(path, **overrides):
    cfg = {
        "initial_data": {"form": "zero", "L": 20.0, "n": 513},
        "n_per_arc": 24,
        "zeta_window": [0.66, 0.9],
        "n_zeta": 3,
        "t_values": [60.0],
        "solitons": {"mode": "none"},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_missing_config_exits_2(tmp_path):
    res = run_cli("scatter", "--config", str(tmp_path / "nope.json"))
    assert res.returncode == 2
    assert "nope.json" in res.stderr


def test_missing_csv_names_field(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"initial_data": {"csv": "absent.csv"}}))
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2
    assert "absent.csv" in res.stderr
    # a non-uniform grid or a missing column is a config error too, in every stage
    x = np.linspace(-20.0, 20.0, 513)
    write_csv(tmp_path / "skewed.csv", x**3 / 400.0, np.zeros_like(x), np.zeros_like(x))
    (tmp_path / "no_u1.csv").write_text("x,u0\n0,0\n1,0\n2,0\n")
    for name, message in (("skewed.csv", "uniform"), ("no_u1.csv", "'u1'")):
        cfgp.write_text(json.dumps({"initial_data": {"csv": name}}))
        for stage in ("scatter", "evolve"):
            res = run_cli(stage, "--config", str(cfgp), "--out", str(tmp_path / "out"))
            assert res.returncode == 2, res.stderr
            assert name in res.stderr and message in res.stderr


def test_tolerances_resolved_once_without_environ_writes(tmp_path, monkeypatch):
    for name in TOLERANCES:
        monkeypatch.delenv(f"BQIST_TOL_{name.upper()}", raising=False)
    before = dict(os.environ)
    loose = RunConfig.load(write_config(tmp_path / "loose.json",
                                        tolerances={"zero_residual": 1e-3}))
    assert loose.tol.zero_residual == 1e-3
    assert dict(os.environ) == before
    # a later config without overrides gets the defaults back
    assert RunConfig.load(write_config(tmp_path / "plain.json")).tol == Tolerances()
    # the environment is read at load time; a config value beats it
    monkeypatch.setenv("BQIST_TOL_ZERO_RESIDUAL", "1e-5")
    assert RunConfig.load(tmp_path / "plain.json").tol.zero_residual == 1e-5
    assert RunConfig.load(tmp_path / "loose.json").tol.zero_residual == 1e-3
    # names that no check reads are rejected, not silently ignored
    cfgp = write_config(tmp_path / "circle.json", tolerances={"circle_relation": 1e-6})
    with pytest.raises(ConfigError, match="circle_relation"):
        RunConfig.load(cfgp)
    assert cli.main(["scatter", "--config", str(cfgp), "--out", str(tmp_path)]) == 2


def test_bad_window_exits_2(tmp_path, capsys):
    cfgp = write_config(tmp_path / "c.json", zeta_window=[0.2, 0.9])
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2
    assert "zeta_window" in res.stderr
    # malformed sizes and windows are config errors naming the field, in every stage
    for field, value in (("zeta_window", [0.7]), ("n_per_arc", "abc"),
                         ("n_zeta", -1), ("n_zeta", 0), ("t_values", []),
                         ("n_zeta", 2.9), ("n_per_arc", 8.5)):
        cfgp = write_config(tmp_path / "c.json", **{field: value})
        for stage in ("scatter", "asym"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert field in capsys.readouterr().err
    # a whole number written as a float is still a count
    cfg = RunConfig.load(write_config(tmp_path / "c.json", n_per_arc=56.0, n_zeta=4.0))
    assert (cfg.n_per_arc, cfg.n_zeta) == (56, 4)


def test_unknown_form_exits_2(tmp_path):
    cfgp = write_config(tmp_path / "c.json", initial_data={"form": "sinc"})
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2
    cfgp = write_config(tmp_path / "c.json",
                        initial_data={"form": "gaussian", "amplitude": 0.1, "width": 2.0,
                                      "u1_mode": "sideways"})
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2
    assert "sideways" in res.stderr


def test_zero_data_pipeline(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path / "c.json")
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    refl_rows = (out / "reflection.csv").read_text().strip().splitlines()
    assert len(refl_rows) == 6 * 24 + 1
    body = np.loadtxt(refl_rows[1:], delimiter=",", usecols=(2, 3, 4, 5))
    assert np.max(np.abs(body)) == 0.0
    sol = json.loads((out / "solitons.json").read_text())
    assert sol["zeros"] == []

    res = run_cli("asym", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = (out / "asymptotics.csv").read_text().strip().splitlines()
    u_col = [float(r.split(",")[-1]) for r in lines[1:]]
    assert max(abs(u) for u in u_col) == 0.0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A desk-scale full pipeline on modest grids (gaussian_bl, 3 zetas)."""
    tmp = tmp_path_factory.mktemp("pipeline")
    out = tmp / "out"
    cfgp = write_config(
        tmp / "c.json",
        initial_data={"form": "gaussian_bl", "amplitude": 0.02, "width": 2.0,
                      "L": 120.0, "n": 8193, "u1_mode": "zero"},
        n_per_arc=40,
        pde={"L": 200.0, "n": 4097, "dt": 0.1},
    )
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    return cfgp, out


def test_emitted_csv_circle_relation(small_run):
    """Rerun the circle-relation residual purely from the emitted files."""
    _, out = small_run
    refl = cli.load_reflection(out)
    th = np.linspace(0.31, 2 * np.pi - 0.37, 24)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs(th[:, None] - kap), axis=1) > 0.05]
    w = 2 * np.pi / 3
    resid = (refl.r1_at(-w - th) + refl.r2_at(w + th)
             + refl.r1_at(th - w) * refl.r2_at(-th))
    assert np.max(np.abs(resid)) < 1e-6


def test_debug_dump(small_run):
    cfgp, out = small_run
    plain = (out / "asymptotics.csv").read_bytes()
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out), "--debug-deltas")
    assert res.returncode == 0, res.stderr
    assert (out / "asymptotics.csv").read_bytes() == plain
    dbg = (out / "deltas_debug.csv").read_text().splitlines()
    assert dbg[0] == "zeta,quantity,re,im"
    assert len(dbg) == 1 + 3 * 9
    assert [row.split(",")[1] for row in dbg[1:10]] == list(cli._DEBUG_QUANTITIES)
    # the zeta sweep is serial; there is no worker-process option
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out), "--jobs", "2")
    assert res.returncode == 2 and "--jobs" in res.stderr


def test_initial_data_csv_input(tmp_path):
    d = sc.gaussian_bandlimited(0.05, 2.0, L=120.0, n=4097)
    csv_path = write_csv(tmp_path / "data.csv", d.x, d.u0, d.u1)
    loaded = sc.load_csv(csv_path)
    assert np.allclose(loaded.u0, d.u0)
    cfgp = write_config(tmp_path / "c.json", initial_data={"csv": "data.csv"},
                        n_per_arc=16)
    out = tmp_path / "out"
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    # mass 1.8e-8 passes a loosened mass_condition both in scatter and in validators.json
    x = np.linspace(-20.0, 20.0, 513)
    write_csv(tmp_path / "massive.csv", x, 0.05 * np.exp(-(x / 2) ** 2), 1e-8 * np.exp(-x**2))
    cfgp = write_config(tmp_path / "m.json", initial_data={"csv": "massive.csv"},
                        n_per_arc=16, tolerances={"mass_condition": 1e-6})
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "validators.json").read_text())
    assert report["mass_condition"]["ok"] and 1e-8 < report["mass_condition"]["value"] < 1e-6


def test_pipeline_roundtrip_reflection(small_run):
    _, out = small_run
    refl = cli.load_reflection(out)
    th = np.array([0.4, 1.3, 2.2, 4.0])
    v1 = refl.r1_at(th)
    # recompute the interpolant from a fresh in-memory run of the same data
    d = sc.gaussian_bandlimited(0.02, 2.0, L=120.0, n=8193, u1_mode="zero")
    refl2 = sc.reflection_coefficients(d, n_per_arc=40)
    v2 = refl2.r1_at(th)
    assert np.max(np.abs(v1 - v2)) < 1e-12


def test_pipeline_deterministic_and_left_soliton_invariant(small_run, tmp_path):
    cfgp, out = small_run
    first = (out / "asymptotics.csv").read_bytes()
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0
    assert (out / "asymptotics.csv").read_bytes() == first
    # a left-moving soliton entry must leave the sweep bitwise unchanged
    cfg = json.loads(Path(cfgp).read_text())
    cfg["solitons"] = {"mode": "explicit", "zeros": [[-0.6, 0.0]], "c": [[0.4, 0.0]]}
    cfgp2 = Path(cfgp).parent / "c_left.json"
    cfgp2.write_text(json.dumps(cfg))
    res = run_cli("scatter", "--config", str(cfgp2), "--out", str(out))
    assert res.returncode == 0, res.stderr
    res = run_cli("asym", "--config", str(cfgp2), "--out", str(out))
    assert res.returncode == 0
    assert (out / "asymptotics.csv").read_bytes() == first


def test_pipeline_evolve_compare(small_run):
    cfgp, out = small_run
    res = run_cli("evolve", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "evolution_t60.csv").exists()
    assert (out / "spectrum_t60.csv").exists()
    res = run_cli("compare", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    summary = (out / "compare_summary.txt").read_text()
    assert "envelope decay exponent" in summary
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == "t,max_err,rms_err,envelope_pde,envelope_asym"
    # t values that asym did not produce are a config mismatch, not a numerical failure
    cfg = json.loads(Path(cfgp).read_text())
    cfg["t_values"] = [60.0, 120.0]
    cfgp2 = Path(cfgp).parent / "c_more_t.json"
    cfgp2.write_text(json.dumps(cfg))
    res = run_cli("compare", "--config", str(cfgp2), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert "t = [120.0]" in res.stderr


def test_selftest_passes():
    res = run_cli("selftest")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "all passed" in res.stdout
