import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bqist import asymptotics as asy
from bqist import cauchy as cy
from bqist import cli
from bqist import initial_data as ini
from bqist import scattering as sc
from bqist.config import FMT, TOLERANCES, ConfigError, NumericalError, RunConfig


def run_cli(*args):
    """``bqist`` run on ``args`` in this process: cli.main's exit code (or that of
    argparse's SystemExit) and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


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


def test_missing_config_exits_2(tmp_path, capsys):
    # the one run of the module as a program: its exit status is cli.main's
    res = subprocess.run([sys.executable, "-m", "bqist.cli", "scatter",
                          "--config", str(tmp_path / "nope.json")], capture_output=True, text=True)
    assert res.returncode == 2
    assert "nope.json" in res.stderr
    # a config that is not JSON, not an object of fields, or has no usable initial_data
    for text, message in (("3", "config must be a JSON object"),
                          ("null", "config must be a JSON object"),
                          ('{"initial_data": ', "not valid JSON"),
                          ('{"n_per_arc": 24}', "missing required field 'initial_data'"),
                          ('{"initial_data": {"L": 20.0}}', "either 'form' or 'csv'")):
        (tmp_path / "c.json").write_text(text)
        assert cli.main(["scatter", "--config", str(tmp_path / "c.json")]) == 2, text
        assert message in capsys.readouterr().err, text


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
    (tmp_path / "word.csv").write_text("x,u0,u1\n0,0,0\n1,abc,0\n2,0,0\n")
    write_csv(tmp_path / "decreasing.csv", x[::-1], np.zeros_like(x), np.zeros_like(x))
    (tmp_path / "one_row.csv").write_text("x,u0,u1\n0,0,0\n")
    (tmp_path / "two_rows.csv").write_text("x,u0,u1\n0,0,0\n1,0,0\n")
    (tmp_path / "nan.csv").write_text("x,u0,u1\n0,0,0\n1,nan,0\n2,0,0\n")
    x_even = np.linspace(-20.0, 20.0, 512)
    write_csv(tmp_path / "even.csv", x_even, np.zeros_like(x_even), np.zeros_like(x_even))
    for name, message in (("skewed.csv", "uniform"), ("no_u1.csv", "'u1'"),
                          ("word.csv", "'abc'"), ("decreasing.csv", "increasing"),
                          ("one_row.csv", "3 points"), ("two_rows.csv", "3 points"),
                          ("nan.csv", "non-finite"), ("even.csv", "odd number")):
        cfgp.write_text(json.dumps({"initial_data": {"csv": name}}))
        for stage in ("scatter", "evolve"):
            res = run_cli(stage, "--config", str(cfgp), "--out", str(tmp_path / "out"))
            assert res.returncode == 2, res.stderr
            assert name in res.stderr and message in res.stderr
    cfgp.write_text(json.dumps({"initial_data": {"csv": 5}}))
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2 and "initial_data.csv" in res.stderr


def test_even_initial_data_n_exits_2(tmp_path, capsys):
    """An even grid size is a config error naming the field, before any work:
    the grid is not rounded up to n + 1."""
    out = tmp_path / "out"
    for form in ({"form": "zero", "L": 20.0, "n": 512},
                 {"form": "gaussian", "amplitude": 0.1, "width": 2.0, "n": 4096.0}):
        cfgp = write_config(tmp_path / "c.json", initial_data=form)
        for stage in ("scatter", "evolve"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(out)]) == 2
            assert "initial_data.n must be odd" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="odd number"):
        ini.zero_data(L=20.0, n=512)


def test_even_pde_n_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path / "c.json", pde={"n": 8192})
    for stage in ("scatter", "evolve"):
        assert cli.main([stage, "--config", str(cfgp), "--out", str(out)]) == 2
        assert "pde.n must be odd" in capsys.readouterr().err
    assert not out.exists()


def write_massive_csv(path):
    """Initial data whose u1 integrates to 1.77e-8, above the mass condition's 1e-9."""
    x = np.linspace(-20.0, 20.0, 513)
    return write_csv(path, x, 0.05 * np.exp(-(x / 2) ** 2), 1e-8 * np.exp(-x**2))


def test_tolerances_are_fixed_not_config_fields(tmp_path, monkeypatch):
    """The admissibility thresholds are config.TOLERANCES alone: a "tolerances"
    block is an unknown field, and the environment sets none of them."""
    before = dict(os.environ)
    for block in ({"zero_residual": 1e-3}, {}, 5):
        cfgp = write_config(tmp_path / "c.json", tolerances=block)
        with pytest.raises(ConfigError, match="unknown config field 'tolerances'"):
            RunConfig.load(cfgp)
        res = run_cli("scatter", "--config", str(cfgp), "--out", str(tmp_path / "out"))
        assert res.returncode == 2 and "'tolerances'" in res.stderr
    assert dict(os.environ) == before
    # loose BQIST_TOL_* variables leave the mass condition as it is
    for name in TOLERANCES:
        monkeypatch.setenv(f"BQIST_TOL_{name.upper()}", "1")
    write_massive_csv(tmp_path / "massive.csv")
    cfgp = write_config(tmp_path / "m.json", initial_data={"csv": "massive.csv"})
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(tmp_path / "out"))
    assert res.returncode == 1 and "numerical failure: mass condition violated" in res.stderr
    assert TOLERANCES == {"mass_condition": 1e-9, "tail": 1e-9, "r1_segment": 5e-3,
                          "zero_residual": 1e-8, "nu_hat_floor": -1e-10}


def test_each_tolerance_is_read_by_its_check(tmp_path, monkeypatch, capsys, soliton_data,
                                              soliton_zeros, zero_refl):
    """Setting an entry of config.TOLERANCES flips the one check that applies it;
    each is loosened in turn, and monkeypatch puts the registry back."""
    # mass_condition: scatter exits 1 before the march, or runs to the end with
    # validators.json's mass condition ok; residue_constants checks it too
    massive = ini.load_csv(write_massive_csv(tmp_path / "massive.csv"))
    cfgp = write_config(tmp_path / "m.json", initial_data={"csv": "massive.csv"}, n_per_arc=16)
    argv = ["scatter", "--config", str(cfgp), "--out", str(tmp_path / "m")]
    assert cli.main(argv) == 1
    assert ("numerical failure: mass condition violated: |int u1 dx| = 1.772e-08 > 1.0e-09"
            in capsys.readouterr().err)
    with pytest.raises(NumericalError, match="mass condition violated"):
        sc.residue_constants(massive, [])
    monkeypatch.setitem(TOLERANCES, "mass_condition", 1e-6)
    assert cli.main(argv) == 0
    assert sc.residue_constants(massive, []).zeros == []
    # r1_segment: validators.json's no_high_frequency (sup |r1| = 0.034 on this data)
    cfgp = write_config(tmp_path / "hf.json", n_per_arc=16,
                        initial_data={"form": "gaussian", "amplitude": 0.1, "width": 0.8,
                                      "L": 20.0, "n": 1025})
    argv = ["scatter", "--config", str(cfgp), "--out", str(tmp_path / "hf")]
    for bound, ok in ((5e-3, False), (0.1, True)):
        monkeypatch.setitem(TOLERANCES, "r1_segment", bound)
        cli.main(argv)
        check = json.loads((tmp_path / "hf" / "validators.json").read_text())["no_high_frequency"]
        assert (check["ok"], check["tol"]) == (ok, bound)
    # tail: residue_constants validates the data before any march (tails 4.1e-6 here)
    short = ini.gaussian(0.1, 2.0, L=7.0, n=513)
    with pytest.raises(NumericalError, match="compactly supported"):
        sc.residue_constants(short, [])
    monkeypatch.setitem(TOLERANCES, "tail", 1e-3)
    assert sc.residue_constants(short, []).zeros == []
    # zero_residual: |s11| at a point 1e-5 off the soliton's zero
    near = [soliton_zeros[0] + 1e-5]
    with pytest.raises(NumericalError, match="has residual"):
        sc.residue_constants(soliton_data, near)
    monkeypatch.setitem(TOLERANCES, "zero_residual", 1.0)
    assert len(sc.residue_constants(soliton_data, near).c) == 1
    # nu_hat_floor: zero data have nu-hat 0, below a floor of 1
    cf = cy.CircleFunctions(zero_refl)
    asy.build_ingredients(0.75, cf)
    monkeypatch.setitem(TOLERANCES, "nu_hat_floor", 1.0)
    with pytest.raises(NumericalError, match="nu_hat negative at zeta=0.75"):
        asy.build_ingredients(0.75, cf)
    # through the CLI, the same check exits 1 naming it
    cfgp = write_config(tmp_path / "z.json")
    argv = ["--config", str(cfgp), "--out", str(tmp_path / "z")]
    assert cli.main(["scatter", *argv]) == 0
    capsys.readouterr()
    assert cli.main(["asym", *argv]) == 1
    assert capsys.readouterr().err.startswith("numerical failure: nu_hat negative at zeta=0.66")


def test_a_bug_is_not_a_numerical_failure(tmp_path, monkeypatch, capsys):
    """cli.main exits 1 on a NumericalError alone: any other exception from a
    layer, here a TypeError, is a bug and propagates with its traceback."""
    cfgp = write_config(tmp_path / "c.json")
    argv = ["--config", str(cfgp), "--out", str(tmp_path / "out")]
    assert cli.main(["scatter", *argv]) == 0

    def broken(*args, **kwargs):
        raise TypeError("broken refactor")

    monkeypatch.setattr(asy, "build_ingredients", broken)
    with pytest.raises(TypeError, match="broken refactor"):
        cli.main(["asym", *argv])
    assert "numerical failure" not in capsys.readouterr().err


def test_bad_window_exits_2(tmp_path, capsys):
    cfgp = write_config(tmp_path / "c.json", zeta_window=[0.2, 0.9])
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2
    assert "zeta_window" in res.stderr
    # malformed sizes and windows are config errors naming the field, in every stage
    for field, value in (("zeta_window", [0.7]), ("n_per_arc", "abc"),
                         ("n_zeta", -1), ("n_zeta", 0), ("t_values", []),
                         ("t_values", [60.0, float("nan")]),
                         # t_values increase strictly: no repeated or reordered time
                         ("t_values", [60.0, 60.0]), ("t_values", [120.0, 60.0]),
                         ("n_zeta", 2.9), ("n_per_arc", 8.5),
                         # a string or a bool is not a number
                         ("n_zeta", True), ("zeta_window", ["0.62", "0.95"])):
        cfgp = write_config(tmp_path / "c.json", **{field: value})
        for stage in ("scatter", "asym"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert field in capsys.readouterr().err
    # a whole number written as a float is still a count, a named form's grid size too
    cfg = RunConfig.load(write_config(tmp_path / "c.json", n_per_arc=56.0, n_zeta=4.0,
                                      initial_data={"form": "zero", "L": 20.0, "n": 513.0}))
    assert (cfg.n_per_arc, cfg.n_zeta) == (56, 4)
    assert type(cfg.initial_data["n"]) is int and len(cfg.build_initial_data().x) == 513
    assert cfg.pde == {"L": 760.0, "n": 8193, "dt": 0.1, "cutoff": 0.9}
    # so are malformed pde fields and a step that does not reach every t exactly
    for block, field in (({"dt": "abc"}, "pde.dt"), ({"cutoff": "x"}, "pde.cutoff"),
                         ({"dt": 0}, "pde.dt"), ({"dt": 0.07}, "pde.dt"),
                         ({"n": 2.9}, "pde.n"), (5, "pde"),
                         ({"cutoff": float("nan")}, "pde.cutoff"),
                         ({"cutoff": -0.5}, "pde.cutoff"), ({"cutoff": 1.5}, "pde.cutoff"),
                         ({"L": float("nan")}, "pde.L"),
                         ({"L": float("inf")}, "pde.L"), ({"L": -100.0}, "pde.L"),
                         ({"n": 1}, "pde.n"), ({"dt": True}, "pde.dt"),
                         ({"dt": "0.1"}, "pde.dt")):
        cfgp = write_config(tmp_path / "c.json", pde=block)
        assert cli.main(["evolve", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
    # and every block that must be an object, in every stage that loads it
    for field, value in (("solitons", []), ("initial_data", 5), ("initial_data", ["form"])):
        cfgp = write_config(tmp_path / "c.json", **{field: value})
        for stage in ("scatter", "evolve"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert f"{field} must be an object" in capsys.readouterr().err
    # named-form parameters must be finite numbers, and the soliton mode none or
    # detect: solitons.json is the only list of zeros and c that asym reads
    for field, value, name in (
            ("initial_data", {"form": "gaussian", "amplitude": True, "width": 2.0},
             "initial_data.amplitude"),
            ("initial_data", {"form": "gaussian", "amplitude": 0.1, "width": True},
             "initial_data.width"),
            ("initial_data", {"form": "zero", "n": 512.5}, "initial_data.n"),
            ("solitons", {"mode": "explicit", "zeros": [[1.5, 0.0]], "c": [[0.4, 0.0]]},
             "solitons.mode")):
        cfgp = write_config(tmp_path / "c.json", **{field: value})
        for stage in ("scatter", "evolve"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert name in capsys.readouterr().err


def test_unknown_config_field_exits_2(tmp_path, capsys):
    for overrides, name in (
            ({"n_zetas": 3}, "'n_zetas'"), ({"pde": {"LL": 5}}, "'pde.LL'"),
            ({"out_dir": "elsewhere"}, "'out_dir'"),
            ({"initial_data": {"form": "zero", "shift": 5.0}}, "'initial_data.shift'"),
            ({"solitons": {"mode": "detect", "zeros": [[1.5, 0.0]]}}, "'solitons.zeros'")):
        cfgp = write_config(tmp_path / "c.json", **overrides)
        for stage in ("scatter", "evolve"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert f"unknown config field {name}" in capsys.readouterr().err


def test_pde_grid_too_coarse_for_filter_exits_2(tmp_path):
    cfgp = write_config(tmp_path / "c.json", pde={"L": 760, "n": 301})
    res = run_cli("evolve", "--config", str(cfgp), "--out", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert all(name in res.stderr for name in ("pde.n", "pde.L", "pde.cutoff"))


def test_window_beyond_pde_grid_exits_2_before_evolve(tmp_path, capsys):
    """A zeta window that leaves the PDE grid by the last t is a config error of
    evolve, raised before it steps, not a numerical failure of compare."""
    out = tmp_path / "out"
    # 0.9 * 60 = 54 reaches past x = 40
    cfgp = write_config(tmp_path / "c.json", pde={"L": 40.0, "n": 513, "dt": 0.5})
    assert cli.main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "pde.L = 40" in err and "x = 54" in err
    assert not out.exists()
    x = np.linspace(-20.0, 20.0, 513)
    write_csv(tmp_path / "d.csv", x, np.zeros_like(x), np.zeros_like(x))
    cfgp = write_config(tmp_path / "c.json", initial_data={"csv": "d.csv"}, pde={"dt": 0.5})
    assert cli.main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 2
    assert "CSV grid, which ends at x = 20" in capsys.readouterr().err
    assert not out.exists()
    # the rule is pde.compare's own: a window that ends inside the grid passes
    cfgp = write_config(tmp_path / "c.json", pde={"L": 55.0, "n": 513, "dt": 0.5})
    assert cli.main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 0


def test_csv_run_rejects_pde_grid(tmp_path, capsys):
    """A CSV run takes its data and its PDE grid from the CSV file, so a form, a
    form parameter, pde.L and pde.n are config errors."""
    x = np.linspace(-20.0, 20.0, 513)
    write_csv(tmp_path / "d.csv", x, np.zeros_like(x), np.zeros_like(x))
    for extra, block, name in (({"L": 50}, {}, "initial_data.L"),
                               ({"form": "zero"}, {}, "initial_data.form"),
                               ({}, {"L": 999.0, "n": 77777}, "pde.L"),
                               ({}, {"n": 77777}, "pde.n")):
        cfgp = write_config(tmp_path / "c.json", initial_data={"csv": "d.csv", **extra},
                            pde=block)
        for stage in ("scatter", "evolve"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert f"{name} does not apply to a CSV run" in capsys.readouterr().err
    cfgp = write_config(tmp_path / "c.json", initial_data={"csv": "d.csv"}, t_values=[10.0],
                        pde={"dt": 0.5, "cutoff": 0.8})
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 0
    snap = np.loadtxt(out / "evolution_t10.csv", delimiter=",", skiprows=1)
    assert np.array_equal(snap[:, 0], x)


def test_unknown_form_exits_2(tmp_path):
    # a named form's name, parameters and u1_mode are checked when the config loads,
    # so every stage rejects them, compare too, which never builds the data
    for idata, field in (
            ({"form": "zero", "amplitude": 0.1}, "amplitude"),
            ({"form": "gaussian", "amplitude": 0.1, "width": 2.0, "u1_mode": "sideways"},
             "u1_mode"),
            ({"form": "sinc"}, "form"),
            ({"form": "gaussian"}, "amplitude"),  # lacks amplitude and width
            ({"form": ["zero"]}, "form")):
        cfgp = write_config(tmp_path / "c.json", initial_data=idata)
        for stage in ("scatter", "asym", "evolve", "compare"):
            res = run_cli(stage, "--config", str(cfgp), "--out", str(tmp_path / "out"))
            assert res.returncode == 2, (idata, stage)
            assert f"config error: initial_data.{field} " in res.stderr, (stage, res.stderr)
    assert not (tmp_path / "out").exists()
    cfgp = write_config(tmp_path / "c.json", initial_data={"form": "zero", "n": 1})
    res = run_cli("scatter", "--config", str(cfgp))
    assert res.returncode == 2
    assert "n = 1" in res.stderr
    # parameters that would make the samples non-finite
    for idata, message in (
            ({"form": "gaussian_bl", "amplitude": float("nan"), "width": 2.0}, "non-finite"),
            ({"form": "gaussian_bl", "amplitude": float("inf"), "width": 2.0}, "non-finite"),
            ({"form": "gaussian", "amplitude": 0.1, "width": 0}, "width must be nonzero")):
        cfgp = write_config(tmp_path / "c.json", initial_data=dict(idata, L=20.0, n=513))
        res = run_cli("scatter", "--config", str(cfgp))
        assert res.returncode == 2 and message in res.stderr, res.stderr


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
    """asym writes deltas_debug.csv, nine rows per zeta, with no flag; the
    --debug-deltas flag that once asked for it is gone."""
    cfgp, out = small_run
    dbg = (out / "deltas_debug.csv").read_text().splitlines()
    assert dbg[0] == "zeta,quantity,re,im"
    assert len(dbg) == 1 + 3 * 9
    assert [row.split(",")[1] for row in dbg[1:10]] == list(asy.DEBUG_QUANTITIES)
    zetas = np.linspace(0.66, 0.9, 3)
    assert [float(row.split(",")[0]) for row in dbg[1:]] == list(np.repeat(zetas, 9))
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out), "--debug-deltas")
    assert res.returncode == 2 and "--debug-deltas" in res.stderr
    # the zeta sweep is serial; there is no worker-process option
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out), "--jobs", "2")
    assert res.returncode == 2 and "--jobs" in res.stderr


def test_initial_data_csv_input(tmp_path):
    d = ini.gaussian_bandlimited(0.05, 2.0, L=120.0, n=4097)
    csv_path = write_csv(tmp_path / "data.csv", d.x, d.u0, d.u1)
    loaded = ini.load_csv(csv_path)
    assert np.allclose(loaded.u0, d.u0)
    cfgp = write_config(tmp_path / "c.json", initial_data={"csv": "data.csv"},
                        n_per_arc=16)
    out = tmp_path / "out"
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    # CSV data of mass 1.77e-8 fail the mass condition: exit 1 before the march
    write_massive_csv(tmp_path / "massive.csv")
    cfgp = write_config(tmp_path / "m.json", initial_data={"csv": "massive.csv"}, n_per_arc=16)
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(tmp_path / "m"))
    assert res.returncode == 1
    assert res.stderr == ("numerical failure: mass condition violated: "
                          "|int u1 dx| = 1.772e-08 > 1.0e-09\n")
    assert not (tmp_path / "m").exists()


def test_pipeline_roundtrip_reflection(small_run):
    _, out = small_run
    refl = cli.load_reflection(out)
    # a fresh in-memory run of the same data gives the very same table and interpolant
    d = ini.gaussian_bandlimited(0.02, 2.0, L=120.0, n=8193, u1_mode="zero")
    refl2 = sc.reflection_coefficients(d, n_per_arc=40)
    for name in ("theta", "r1", "r2", "s11", "sA11"):
        assert np.array_equal(getattr(refl, name), getattr(refl2, name)), name
    assert refl.n_per_arc == refl2.n_per_arc == 40
    th = np.array([0.4, 1.3, 2.2, 4.0, np.pi / 3 + 0.01])
    assert np.array_equal(refl.r1_at(th), refl2.r1_at(th))
    assert np.array_equal(refl.r2_at(th), refl2.r2_at(th))


def test_asym_rejects_reflection_table_not_from_this_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path / "c.json")
    assert cli.main(["scatter", "--config", str(cfgp), "--out", str(out)]) == 0
    path = out / "reflection.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 6 * 24
    word = lines[5].split(",")
    word[1] = "abc"
    moved = [",".join([f[0], FMT % (float(f[1]) + 1e-9), *f[2:]])
             for f in (line.split(",") for line in lines[1:])]
    bad_tables = {
        "one row missing": lines[:79] + lines[80:],
        "three rows missing from each of two arcs": lines[:20] + lines[23:100] + lines[103:],
        "rows out of arc order": lines[:1] + lines[25:49] + lines[1:25] + lines[49:],
        "no rows": lines[:1],
        "a word in a number column": lines[:5] + [",".join(word)] + lines[6:],
    }
    for why, table in bad_tables.items():
        path.write_text("".join(table))
        assert cli.main(["asym", "--config", str(cfgp), "--out", str(out)]) == 2, why
        assert str(path) in capsys.readouterr().err, why
    # so is one whose angles are not ReflectionData.nodes bit for bit: every one moved 1e-9 rad
    path.write_text("".join(lines[:1] + moved))
    assert cli.main(["asym", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "sample angles" in err and "rerun scatter" in err
    # a table scattered with another n_per_arc is refused by an asym with this config
    path.write_text("".join(lines))
    other = write_config(tmp_path / "other.json", n_per_arc=40)
    assert cli.main(["asym", "--config", str(other), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "rerun scatter" in err
    # so is a solitons.json whose zeros do not each carry one c and one d
    sol_path = out / "solitons.json"
    sol_text = sol_path.read_text()
    bad_solitons = {
        "a zero without its imaginary part": '{"zeros": [[1.5]]}',
        "a zero without its c and d": '{"zeros": [[1.5, 0.0]], "c": [], "d": []}',
        "no d list": '{"zeros": [], "c": []}',
        "a word in a c pair": '{"zeros": [[1.5, 0.0]], "c": [["x", 0.0]], "d": [null]}',
        "null where c needs a pair": '{"zeros": [[1.5, 0.0]], "c": [null], "d": [null]}',
        "a string for the zeros": '{"zeros": "abc", "c": [], "d": []}',
        "a NaN in a zero": '{"zeros": [[NaN, 0.0]], "c": [[0.4, 0.0]], "d": [null]}',
        "true in a zero": '{"zeros": [[true, 0.0]], "c": [[0.4, 0.0]], "d": [null]}',
        "not JSON": '{"zeros": ',
    }
    for why, text in bad_solitons.items():
        sol_path.write_text(text)
        assert cli.main(["asym", "--config", str(cfgp), "--out", str(out)]) == 2, why
        assert str(sol_path) in capsys.readouterr().err, why
    # and a missing solitons.json, which would drop the Blaschke factors silently
    sol_path.unlink()
    assert cli.main(["asym", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(sol_path) in err and "rerun scatter" in err
    sol_path.write_text(sol_text)
    assert cli.main(["asym", "--config", str(cfgp), "--out", str(out)]) == 0


def test_trace_stage_finds_every_layer(small_run, tmp_path):
    """perfbench/trace_stage.py wraps functions by name; a rename would silently
    drop a per-layer benchmark metric, so every traced layer must show up."""
    cfgp, _ = small_run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def traced(stage, config):  # the names of the spans of one traced stage
        spans = tmp_path / f"{stage}.json"
        res = subprocess.run([sys.executable, str(root / "perfbench" / "trace_stage.py"),
                              str(spans), stage, "--config", str(config),
                              "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return {span[0] for span in json.loads(spans.read_text())}

    scatter = traced("scatter", cfgp)
    names = scatter | traced("asym", cfgp)
    assert names >= {"scattering.march_volterra", "scattering.reflection_coefficients",
                     "cli.write_csv", "cli.load_reflection", "cauchy.CircleFunctions",
                     "asymptotics.build_ingredients"}
    # the data are built through scattering's NAMED_FORMS and load_csv, the names the
    # tracer wraps, both for a named form and for CSV input
    x = np.linspace(-20.0, 20.0, 513)
    write_csv(tmp_path / "zero.csv", x, np.zeros_like(x), np.zeros_like(x))
    csv_run = write_config(tmp_path / "csv.json", initial_data={"csv": "zero.csv"})
    assert "scattering.initial_data" in scatter & traced("scatter", csv_run)
    # perfbench/run.py's soliton check calls these by name, untraced; the table is
    # initial_data's own, whose signatures RunConfig.load reads through the wrappers
    assert sc.load_csv is ini.load_csv and callable(sc.s11_values)
    assert sc.NAMED_FORMS is ini.NAMED_FORMS
    assert TOLERANCES["zero_residual"] == 1e-8


def test_pipeline_deterministic_and_left_soliton_invariant(small_run, tmp_path):
    cfgp, out = small_run
    first = (out / "asymptotics.csv").read_bytes()
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0
    assert (out / "asymptotics.csv").read_bytes() == first
    # a left-moving soliton entry in solitons.json must leave the sweep bitwise unchanged
    sol_path = out / "solitons.json"
    sol_text = sol_path.read_text()
    sol_path.write_text(json.dumps({"zeros": [[-0.6, 0.0]], "c": [[0.4, 0.0]], "d": [None]}))
    res = run_cli("asym", "--config", str(cfgp), "--out", str(out))
    sol_path.write_text(sol_text)
    assert res.returncode == 0, res.stderr
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
    # so is an asymptotics.csv from another zeta window
    cfg["t_values"], cfg["zeta_window"] = [60.0], [0.7, 0.9]
    cfgp2.write_text(json.dumps(cfg))
    res = run_cli("compare", "--config", str(cfgp2), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert str(out / "asymptotics.csv") in res.stderr and "rerun asym" in res.stderr


def test_compare_beyond_the_evolved_grid_exits_2(tmp_path, capsys):
    """Snapshots that evolve wrote for a narrower zeta window than compare's
    exit 2 naming the rerun, before compare writes anything."""
    out = tmp_path / "out"
    narrow = write_config(tmp_path / "a.json", zeta_window=[0.66, 0.7], pde={"L": 45.0, "n": 129})
    wide = write_config(tmp_path / "b.json", pde={"L": 45.0, "n": 129})
    for stage, cfgp in (("evolve", narrow), ("scatter", wide), ("asym", wide)):
        assert cli.main([stage, "--config", str(cfgp), "--out", str(out)]) == 0
    assert cli.main(["compare", "--config", str(wide), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "zeta window leaves the unwrapped domain at t=60.0" in err and "rerun evolve" in err
    assert not (out / "compare.csv").exists()


def test_scatter_validator_failure_exits_1_with_its_report(tmp_path, capsys):
    """Data that fails a validator (here no_high_frequency: sup |r1| on its
    segment is 0.034 against 5e-3) still gets all three files, the report
    saying "ok": false, and scatter exits 1."""
    cfgp = write_config(tmp_path / "c.json", n_per_arc=16,
                        initial_data={"form": "gaussian", "amplitude": 0.1, "width": 0.8,
                                      "L": 20.0, "n": 1025})
    out = tmp_path / "out"
    assert cli.main(["scatter", "--config", str(cfgp), "--out", str(out)]) == 1
    assert "validator failure" in capsys.readouterr().err
    assert len(cli.load_reflection(out).r1) == 6 * 16
    assert json.loads((out / "solitons.json").read_text())["zeros"] == []
    report = json.loads((out / "validators.json").read_text())
    assert report["ok"] is False and report["mass_condition"]["ok"]
    check = report["no_high_frequency"]
    assert not check["ok"] and check["sup_r1_segment"] > 6 * check["tol"]


def test_scatter_reports_the_tail_it_does_not_check(tmp_path):
    """In mode none nothing checks the tails against the 1e-9 tail threshold:
    scatter exits 0 on data truncated at L = 7, and validators.json reports
    the data's tail_max (3.0e-7 here) without setting "ok"."""
    idata = {"form": "gaussian", "amplitude": 0.01, "width": 2.0, "L": 7.0, "n": 1025}
    cfgp = write_config(tmp_path / "c.json", initial_data=idata)
    out = tmp_path / "out"
    res = run_cli("scatter", "--config", str(cfgp), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "validators.json").read_text())
    tail = RunConfig.load(cfgp).build_initial_data().tail_max()
    assert report["ok"] is True and report["tail_max"] == tail > TOLERANCES["tail"]


def test_scatter_mass_condition_exits_1_before_the_march(tmp_path, capsys):
    """u1 with a nonzero integral fails the mass condition: scatter exits 1
    naming it and writes no reflection.csv."""
    x = np.linspace(-20.0, 20.0, 513)
    write_csv(tmp_path / "massive.csv", x, np.zeros_like(x), 0.1 * np.exp(-x**2))
    cfgp = write_config(tmp_path / "c.json", initial_data={"csv": "massive.csv"})
    out = tmp_path / "out"
    assert cli.main(["scatter", "--config", str(cfgp), "--out", str(out)]) == 1
    assert "numerical failure: mass condition violated: |int u1 dx|" in capsys.readouterr().err
    assert not (out / "reflection.csv").exists()


def test_scatter_overflowing_march_is_a_numerical_failure(tmp_path, capsys):
    """Data of amplitude 1e308 have finite samples and pass every data check, but
    the marches overflow: scatter exits 1 naming the march, with no RuntimeWarning
    (an error under this suite's filters) and no reflection.csv."""
    idata = {"form": "gaussian", "amplitude": 1e308, "width": 2.0, "L": 20.0, "n": 513}
    cfgp = write_config(tmp_path / "c.json", initial_data=idata)
    out = tmp_path / "out"
    assert cli.main(["scatter", "--config", str(cfgp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the X") and "march is not finite at k = " in err
    assert not (out / "reflection.csv").exists()
