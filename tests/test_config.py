"""The configs that the project's own callers write load: the README example
and the seed-0 config of every perfbench workload; every field rule names a field."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from bqist.config import DEFAULTS, RULES, RunConfig

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_config_is_the_defaults(tmp_path):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S)
    raw = json.loads(block.group(1))
    (tmp_path / "readme.json").write_text(json.dumps(raw))
    cfg = RunConfig.load(tmp_path / "readme.json")
    assert cfg.initial_data == raw["initial_data"]
    # every field the example writes is its default, and so is every field it leaves out
    for key, default in DEFAULTS.items():
        loaded = asdict(cfg.tol) if key == "tolerances" else getattr(cfg, key)
        assert loaded == default, key
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


def leaves(block, prefix=""):
    """The dotted names of the non-block fields of a DEFAULTS block."""
    for key, val in block.items():
        if isinstance(val, dict):
            yield from leaves(val, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_rule_names_a_field():
    """A RULES key that names no field (a misspelt "pde.cuttoff") would never run."""
    fields = set(leaves(DEFAULTS))
    assert len(fields) == 14
    assert set(RULES) - fields == {"initial_data.n"}
