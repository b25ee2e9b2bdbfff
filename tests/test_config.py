"""The configs that the project's own callers write load: the README example
and the seed-0 config of every perfbench workload; every field of the spec
table names itself when its value fails.  The CSV dialect reads back what it
writes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqist import cli
from bqist.config import (FMT, MAX_GRID, MAX_N_PER_ARC, MAX_N_ZETA, MAX_STEPS, SPEC, RunConfig,
                          read_columns, write_columns)
from bqist.reflection import ReflectionData

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_config_is_the_defaults(tmp_path):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S)
    raw = json.loads(block.group(1))
    (tmp_path / "readme.json").write_text(json.dumps(raw))
    cfg = RunConfig.load(tmp_path / "readme.json")
    assert cfg.initial_data == raw["initial_data"]
    # every field the example writes is its default, and so is every field it leaves out
    for key, field in SPEC.items():
        if key == "initial_data":
            continue
        default = ({name: f.default for name, f in field.items()} if isinstance(field, dict)
                   else field.default)
        assert getattr(cfg, key) == default, key
        if key in raw:
            assert json.dumps(raw[key]) == json.dumps(default), key


# run in a child: importing perfbench/run.py writes its thread variables to os.environ
LOAD_WORKLOADS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
from bqist.config import RunConfig
for name, workload in sorted(run.WORKLOADS.items()):
    input_dir = Path(tempfile.mkdtemp(dir=sys.argv[2]))
    config, _ = workload.make_inputs(None, input_dir)
    (input_dir / "config.json").write_text(json.dumps(config))
    cfg = RunConfig.load(input_dir / "config.json")
    print(name, cfg.n_per_arc, cfg.solitons["mode"])
"""


def test_perfbench_workload_configs_load(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", LOAD_WORKLOADS, str(ROOT / "perfbench"),
                          str(tmp_path)], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:-1] == ["compact 56 none", "long_time 56 none",
                                           "readme 56 none", "soliton_detect 56 detect"]


#: every field of the spec table by its dotted name
LEAVES = {**{key: field for key, field in SPEC.items() if not isinstance(field, dict)},
          **{f"{block}.{key}": field for block, fields in SPEC.items()
             if isinstance(fields, dict) for key, field in fields.items()}}

#: a value that fails the check of each field that has one
FAILING = {"initial_data.width": 0, "initial_data.L": -20.0, "initial_data.n": 512, "n_per_arc": 7,
           "zeta_window": [0.5, 0.9], "n_zeta": 0,
           "t_values": [60.0, 60.0], "solitons.mode": "explicit", "pde.L": -1.0,
           "pde.n": 8192, "pde.dt": -0.1, "pde.cutoff": 1.0}


def config_with(path, name, value):
    """A config that loads but for ``value`` in the field ``name`` (a dotted name)."""
    raw = {"initial_data": {"form": "gaussian", "amplitude": 0.1, "width": 2.0,
                            "L": 20.0, "n": 513}}
    if name == "initial_data.csv":
        raw["initial_data"] = {"csv": value}
    elif name is not None:
        block, _, key = name.rpartition(".")
        (raw.setdefault(block, {}) if block else raw)[key] = value
    path.write_text(json.dumps(raw))
    return path


def test_every_field_names_itself_when_it_fails(tmp_path, capsys):
    """Each of the 16 fields, given a value of another kind (a string, true, a
    count 2.5) or one that fails its check, exits 2 naming it (and the check)."""
    assert len(LEAVES) == 16
    assert {name for name, field in LEAVES.items() if field.check} == set(FAILING)
    RunConfig.load(config_with(tmp_path / "c.json", None, None))
    for name, field in LEAVES.items():
        cases = [(value, name) for value in (True, 5 if field.kind is str else "0.1")]
        if field.kind is int:
            cases.append((2.5, name))
        if field.check:
            cases.append((FAILING[name], f"{name} must be {field.check[0]}"))
        for value, message in cases:
            cfgp = config_with(tmp_path / "c.json", name, value)
            assert cli.main(["scatter", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err, (name, value)


def test_a_step_count_above_the_cap_exits_2_in_every_stage(tmp_path, capsys):
    """A positive pde.dt that divides every t but takes more than MAX_STEPS steps
    to the last one exits 2 when the config loads, naming pde.dt and the count:
    evolve would otherwise start a loop of 6e301 steps."""
    raw = {"initial_data": {"form": "gaussian_bl", "amplitude": 0.01, "width": 2.0,
                            "u1_mode": "zero", "L": 60.0, "n": 2049},
           "n_zeta": 3, "t_values": [60.0], "pde": {"L": 380.0, "n": 4097, "dt": 1e-300}}
    cfgp = tmp_path / "c.json"
    for dt, steps in ((1e-300, "6e+301"), (60.0 / (MAX_STEPS + 1), f"{MAX_STEPS + 1}")):
        raw["pde"]["dt"] = dt
        cfgp.write_text(json.dumps(raw))
        for stage in ("scatter", "asym", "evolve", "compare"):
            assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert f"pde.dt = {dt!r} takes {steps} steps to t = 60.0" in err, (stage, err)
    assert not (tmp_path / "out").exists()
    raw["pde"]["dt"] = 60.0 / MAX_STEPS
    cfgp.write_text(json.dumps(raw))
    assert RunConfig.load(cfgp).pde["dt"] == 60.0 / MAX_STEPS


#: the cap of each count field
CAPS = {"initial_data.n": MAX_GRID, "pde.n": MAX_GRID, "n_per_arc": MAX_N_PER_ARC,
        "n_zeta": MAX_N_ZETA}


@pytest.mark.parametrize("name", sorted(CAPS))
def test_a_count_above_its_cap_exits_2_before_any_grid(tmp_path, capsys, monkeypatch, name):
    """A count one above its cap exits 2 when the config loads, naming the field,
    and no stage builds its grid; the largest value under the cap (odd, for a
    grid) loads.  n = 1000000001 would otherwise ask for 8 GB per array."""
    cap = CAPS[name]

    def unbuilt(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(RunConfig, "build_initial_data", unbuilt)
    cfgp = config_with(tmp_path / "c.json", name, cap + 1)
    for stage in ("scatter", "asym", "evolve", "compare"):
        assert cli.main([stage, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
        assert f"{name} must be" in capsys.readouterr().err, stage
    assert not (tmp_path / "out").exists()
    largest = cap - 1 if name.endswith(".n") else cap
    cfg = RunConfig.load(config_with(tmp_path / "c.json", name, largest))
    block, _, key = name.rpartition(".")
    assert (getattr(cfg, block)[key] if block else getattr(cfg, key)) == largest


#: the floats at the edges of the format: signed zero, subnormals, the largest
#: finite values, nan and the infinities
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf]


def round_trip(path, columns):
    """The float ``columns`` written as a, b, ... and read back by name."""
    names = [chr(ord("a") + j) for j in range(len(columns))]
    write_columns(path, names, columns)
    return list(read_columns(path, names).values())


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), b.view(np.uint64))


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False), max_size=40))
def test_float_columns_read_back_bit_for_bit(tmp_path_factory, values):
    column = EDGE_FLOATS + values
    path = tmp_path_factory.getbasetemp() / "floats.csv"
    back = round_trip(path, [column, column[::-1]])
    assert same_bits(column, back[0]) and same_bits(column[::-1], back[1])


def test_node_angles_read_back_bit_for_bit(tmp_path):
    for n in (8, 24, 56, 168):
        theta = ReflectionData.nodes(n)
        assert same_bits(theta, round_trip(tmp_path / "theta.csv", [theta])[0])


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                               st.text("abcxyz_0123456789", min_size=1), st.floats()),
                     min_size=1, max_size=20))
def test_ints_and_names_are_written_as_str(tmp_path_factory, rows):
    ints, names, floats = zip(*rows)
    path = tmp_path_factory.getbasetemp() / "mixed.csv"
    write_columns(path, ["i", "name", "x"], [np.array(ints), list(names), list(floats)])
    assert path.read_text() == "i,name,x\n" + "".join(
        f"{i},{name},{FMT % x}\n" for i, name, x in rows)
