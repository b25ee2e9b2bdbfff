"""Stage-level benchmark of the bqist pipeline: scatter -> asym -> evolve -> compare.

Run from the repository root::

    python3 perfbench/run.py --workload compact --seed 0 --seconds 12 --trace 0

Load shape: a closed loop of one pipeline at a time, driven from this single
process.  Each CLI stage runs as its own child process (``python3 -m
bqist.cli <stage>``, no ``--jobs``), one after the other, with BLAS/OpenMP
threads pinned to 1.  A run repeats whole pipelines until ``--seconds`` have
passed (at least one pipeline), checks every stage's outputs, prints one line
per metric with its median, quartiles and sample count, stores a run record
under ``perfbench/_records/`` and ends with one JSON line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each stage
under ``trace_stage.py`` (spans around the calls into each layer), then the
same stage untraced, and reports per-layer numbers plus the tracing overhead.
See ``perfbench/README.md`` for why each workload exists and what it found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = BENCH / "_work"
RECORDS = BENCH / "_records"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

RUN_BUDGET_S = 170.0   # a run must end within 180 s; no pipeline starts past this
PROBE_GRACE_S = 5.0    # the setup probes after the pipelines may run this much longer
# setup_s is the median of probe processes run in groups of this many before
# every pipeline and after the last, so that it samples the machine's speed
# across the whole run.  One more probe before them warms the file cache.
SETUP_PROBES = 3

# Reference diffs at seed 0, measured per CSV column as max|new - ref| / max|ref|.
# 1e-12 is the ROADMAP gate for reflection data produced by a faster march;
# 1e-10 is its gate for the Cauchy ingredients that asymptotics.csv is built from.
REFLECTION_RTOL = 1e-12
ASYMPTOTICS_RTOL = 1e-10
ENVELOPE_EXPONENT = (-0.6, -0.4)   # acceptance criterion 7, t^(-1/2) decay
# Floor that scattering.assumption_validators puts on each genericity probe
# entry near k = +-1.  The run records the smallest entry over this floor as
# genericity_floor_margin: a slow soliton falls under it (see README.md).
GENERICITY_FLOOR = 1e-6

# End-to-end metrics printed in the final JSON line: the ones every workload has.
E2E = {"scatter_s": "s", "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported by name and unit on the workloads that have them, not in the JSON line:
# soliton_detect runs no asym/evolve/compare stage, and failed_frac is 0 when healthy.
STAGE_ONLY = {"asym_s": "s", "evolve_s": "s", "compare_s": "s", "max_err_tmax": "1",
              "failed_frac": "1"}

# name, unit, better; printed in the final JSON line of a traced run.
# ".s" is self time, ".total_s" includes the spans nested inside (the marches).
PER_LAYER = [
    ("scattering.march_volterra.calls", "count", "lower"),
    ("scattering.march_volterra.s", "s", "lower"),
    ("scattering.march_volterra.k_steps", "count", "lower"),
    ("scattering.march_volterra.ns_per_k_step", "ns", "lower"),
    ("scattering.march_volterra.batch_p50", "count", "higher"),
    ("scattering.reflection_coefficients.s", "s", "lower"),
    ("scattering.reflection_coefficients.total_s", "s", "lower"),
    ("scattering.assumption_validators.s", "s", "lower"),
    ("scattering.assumption_validators.total_s", "s", "lower"),
    ("scattering.find_s11_zeros.s", "s", "lower"),
    ("scattering.find_s11_zeros.total_s", "s", "lower"),
    ("scattering.s11_values.calls", "count", "lower"),
    ("scattering.s11_values.points", "count", "lower"),
    ("scattering.residue_constants.s", "s", "lower"),
    ("scattering.residue_constants.total_s", "s", "lower"),
    ("scattering.initial_data.s", "s", "lower"),
    ("cauchy.CircleFunctions.s", "s", "lower"),
    ("cauchy.delta.calls", "count", "lower"),
    ("cauchy.delta.s", "s", "lower"),
    ("cauchy.chi.calls", "count", "lower"),
    ("cauchy.chi.s", "s", "lower"),
    ("cauchy.nu_bundle.s", "s", "lower"),
    ("cauchy.panel_quad.calls", "count", "lower"),
    ("cauchy.panel_quad.panels", "count", "lower"),
    ("cauchy.panel_quad.s", "s", "lower"),
    ("asymptotics.build_ingredients.calls", "count", "lower"),
    ("asymptotics.build_ingredients.ms_p50", "ms", "lower"),
    ("asymptotics.build_ingredients.failed", "count", "lower"),
    ("asymptotics.script_D.s", "s", "lower"),
    ("asymptotics.q_values.s", "s", "lower"),
    ("asymptotics.u_asym.s", "s", "lower"),
    ("pde.evolve.s", "s", "lower"),
    ("pde.evolve.steps", "count", "lower"),
    ("pde.evolve.ms_per_step", "ms", "lower"),
    ("pde.compare.s", "s", "lower"),
    ("cli.write_csv.s", "s", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("cli.load_reflection.s", "s", "lower"),
    ("cli.cmd_scatter.self_s", "s", "lower"),
    ("cli.cmd_asym.self_s", "s", "lower"),
    ("cli.cmd_evolve.self_s", "s", "lower"),
    ("cli.cmd_compare.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.self_over_wall", "1", "lower"),
]

# what RunConfig.load does before the first layer call, timed in a fresh interpreter
SETUP_PROBE = "import sys\nimport bqist.cli as cli\ncli.RunConfig.load(sys.argv[1])\n"


# ---------------------------------------------------------------------------
# workloads: seed 0 gives the nominal inputs; other seeds jitter physics only
# ---------------------------------------------------------------------------


def _jitter(rng, nominal):
    """``nominal`` at seed 0, else within +-10 %."""
    return nominal if rng is None else nominal * rng.uniform(0.9, 1.1)


def readme_inputs(rng, input_dir):
    """The README example config verbatim."""
    amplitude = _jitter(rng, 0.01)
    config = {
        "initial_data": {"form": "gaussian_bl", "amplitude": amplitude, "width": 2.0,
                         "u1_mode": "zero", "L": 120.0, "n": 16385},
        "n_per_arc": 56,
        "zeta_window": [0.62, 0.95],
        "n_zeta": 60,
        "t_values": [60.0, 120.0, 240.0],
        "solitons": {"mode": "none"},
        "pde": {"L": 760.0, "n": 8193, "dt": 0.1, "cutoff": 0.9},
    }
    return config, {"amplitude": amplitude}


def soliton_inputs(rng, input_dir):
    """Criterion-8 one-soliton profile, written as CSV input; zeros detected.

    As a stopgap, speeds stay at or above 1.3: below it |s31| near k = 1
    drops under the 1e-6 floor of the genericity validator (6e-8 at speed
    1.25, 1.06e-6 at 1.3), so scatter exits 1 on valid soliton data.  Each
    run records how far above that floor it is.  See README.md.
    """
    from bqist import pde

    if rng is None:
        speed, x0 = 1.3, 0.0
    else:
        speed, x0 = rng.uniform(1.30, 1.35), rng.uniform(-2.0, 2.0)
    data = pde.soliton_profile(speed, x0, L=40.0, n=4097)
    np.savetxt(input_dir / "soliton.csv", np.column_stack([data.x, data.u0, data.u1]),
               fmt="%.17g", delimiter=",", header="x,u0,u1", comments="")
    config = {"initial_data": {"csv": "soliton.csv"}, "n_per_arc": 56,
              "solitons": {"mode": "detect"}}
    return config, {"speed": speed, "x0": x0}


def compact_inputs(rng, input_dir):
    """The README example scaled down so that one run holds several pipelines.

    A quarter of readme's x-steps in scatter (L = 60, n = 2049), 4 zetas
    instead of 60, and half its PDE grid over the same t values, so that the
    envelope check still sees the t^(-1/2) decay.  About 9 s per pipeline.
    """
    amplitude = _jitter(rng, 0.01)
    config = {
        "initial_data": {"form": "gaussian_bl", "amplitude": amplitude, "width": 2.0,
                         "u1_mode": "zero", "L": 60.0, "n": 2049},
        "n_per_arc": 56,
        "zeta_window": [0.62, 0.95],
        "n_zeta": 4,
        "t_values": [60.0, 120.0, 240.0],
        "solitons": {"mode": "none"},
        "pde": {"L": 380.0, "n": 4097, "dt": 0.1, "cutoff": 0.9},
    }
    return config, {"amplitude": amplitude}


def long_time_inputs(rng, input_dir):
    """Criterion-7 data on half readme's x-grid, t up to 480 on a doubled PDE grid."""
    amplitude = _jitter(rng, 0.005)
    config = {
        "initial_data": {"form": "gaussian_bl", "amplitude": amplitude, "width": 2.0,
                         "u1_mode": "zero", "L": 120.0, "n": 8193},
        "n_per_arc": 56,
        "zeta_window": [0.62, 0.95],
        "n_zeta": 16,
        "t_values": [60.0, 120.0, 240.0, 480.0],
        "solitons": {"mode": "none"},
        "pde": {"L": 1520.0, "n": 16385, "dt": 0.1, "cutoff": 0.9},
    }
    return config, {"amplitude": amplitude}


@dataclass(frozen=True)
class Workload:
    stages: tuple
    make_inputs: object   # (rng or None, input_dir) -> (config dict, drawn parameters)


FULL = ("scatter", "asym", "evolve", "compare")
WORKLOADS = {
    "readme": Workload(FULL, readme_inputs),
    "compact": Workload(FULL, compact_inputs),
    "soliton_detect": Workload(("scatter",), soliton_inputs),
    "long_time": Workload(FULL, long_time_inputs),
}


# ---------------------------------------------------------------------------
# output checks; each returns {check name: bool} and {value name: number}
# ---------------------------------------------------------------------------


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _rel_diff(path, ref_path):
    """Largest per-column max|new - ref| / max|ref| (inf on a shape mismatch)."""
    new, ref = _table(path), _table(ref_path)
    if new.shape != ref.shape:
        return float("inf")
    scale = np.maximum(np.max(np.abs(ref), axis=0), np.finfo(float).tiny)
    return float(np.max(np.max(np.abs(new - ref), axis=0) / scale))


def check_scatter(run, out):
    refl = _table(out / "reflection.csv")
    report = json.loads((out / "validators.json").read_text())
    checks = {
        "reflection_rows": refl.shape[0] == 6 * run.config["n_per_arc"],
        "reflection_finite": bool(np.all(np.isfinite(refl))),
        "validators_ok": report.get("ok") is True,
    }
    near = [v for key, probe in report.get("genericity_pm1", {}).get("probes", {}).items()
            if key.endswith("rad=0.005") for v in probe.values()]
    values = {"genericity_floor_margin": min(near) / GENERICITY_FLOOR} if near else {}
    if run.workload == "soliton_detect":
        from bqist import config as bq_config
        from bqist import scattering as sc

        zeros = [complex(a, b) for a, b in
                 json.loads((out / "solitons.json").read_text())["zeros"]]
        checks["one_zero"] = len(zeros) == 1
        if zeros:
            k0 = zeros[0]
            data = sc.load_csv(run.input_dir / "soliton.csv")
            residual = float(abs(sc.s11_values(data, np.array([k0]))[0]))
            checks["zero_real_above_1"] = k0.imag == 0.0 and k0.real > 1.0
            checks["zero_residual"] = residual <= bq_config.TOLERANCES["zero_residual"]
            values.update(zero_k=k0.real, zero_residual=residual)
    if run.check_reference:
        diff = _rel_diff(out / "reflection.csv", REFERENCE / run.workload / "reflection.csv")
        checks["reflection_matches_reference"] = diff <= REFLECTION_RTOL
        values["reflection_ref_rel_diff"] = diff
    return checks, values


def check_asym(run, out):
    asym = _table(out / "asymptotics.csv")
    checks = {
        "asymptotics_rows": asym.shape[0] == run.config["n_zeta"] * len(run.config["t_values"]),
        "asymptotics_finite": bool(np.all(np.isfinite(asym))),
    }
    values = {}
    if run.check_reference:
        diff = _rel_diff(out / "asymptotics.csv",
                         REFERENCE / run.workload / "asymptotics.csv")
        checks["asymptotics_matches_reference"] = diff <= ASYMPTOTICS_RTOL
        values["asymptotics_ref_rel_diff"] = diff
    return checks, values


def check_evolve(run, out):
    checks = {}
    for t in run.config["t_values"]:
        snap = _table(out / f"evolution_t{t:g}.csv")
        checks[f"snapshot_t{t:g}"] = (snap.shape[0] == run.config["pde"]["n"]
                                      and bool(np.all(np.isfinite(snap))))
    return checks, {}


def check_compare(run, out):
    # columns: t, max_err, rms_err, envelope_pde, envelope_asym
    rows = _table(out / "compare.csv")
    ts, env = rows[:, 0], rows[:, 3]
    exponent = float(np.polyfit(np.log(ts), np.log(env), 1)[0])
    checks = {
        "compare_times": ts.tolist() == sorted(run.config["t_values"]),
        "compare_finite": bool(np.all(np.isfinite(rows))),
        "envelope_exponent": ENVELOPE_EXPONENT[0] <= exponent <= ENVELOPE_EXPONENT[1],
    }
    return checks, {"envelope_exponent": exponent,
                    "max_err_tmax": float(rows[np.argmax(ts), 1])}


CHECKS = {"scatter": check_scatter, "asym": check_asym,
          "evolve": check_evolve, "compare": check_compare}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def stage_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("BQIST_TOL_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv, log_path, deadline):
    """Run argv to completion; return (exit code, wall s, CPU s, peak RSS in MB).

    argv runs under ``spawn.py``, which measures it, so that its peak RSS is
    its own and not this process's.  When the run's deadline passes, spawn.py
    is stopped; it kills argv and reaps it first.
    """
    usage_path = log_path.with_suffix(".usage.json")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawn.py"), str(usage_path), *argv],
            stdout=log, stderr=subprocess.STDOUT, env=stage_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.terminate)
        killer.start()
        try:
            proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
        finally:
            killer.cancel()
    if not usage_path.exists():   # stopped before it started argv
        return proc.returncode or 1, 0.0, 0.0, 0.0
    usage = json.loads(usage_path.read_text())
    return usage["rc"], usage["wall_s"], usage["cpu_s"], usage["maxrss_mb"]


@dataclass
class Run:
    workload: str
    seed: int
    config: dict
    input_dir: Path
    config_path: Path
    deadline: float
    check_reference: bool


def run_stage(run, stage, out, traced):
    if traced:
        argv = [sys.executable, str(BENCH / "trace_stage.py"), str(out / f"{stage}.spans.json")]
    else:
        argv = [sys.executable, "-m", "bqist.cli"]
    argv += [stage, "--config", str(run.config_path), "--out", str(out)]
    rc, wall, cpu, rss = run_child(argv, out / f"{stage}.log", run.deadline)
    rec = {"stage": stage, "traced": traced, "rc": rc, "wall_s": wall, "cpu_s": cpu,
           "rss_mb": rss,
           "checks": {"exit_0": rc == 0}, "values": {}}
    if rc == 0:
        try:
            checks, values = CHECKS[stage](run, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks, values = {"outputs_readable": False}, {"error": repr(exc)}
        rec["checks"].update(checks)
        rec["values"].update(values)
    if not all(rec["checks"].values()):
        rec["log_tail"] = (out / f"{stage}.log").read_text(errors="replace")[-2000:]
    spans_path = out / f"{stage}.spans.json"
    if traced and spans_path.exists():   # written even when the stage fails
        rec["spans"] = json.loads(spans_path.read_text())
        rec["self_s"] = sum(self_times(rec["spans"]))
        rec["checks"]["self_within_wall"] = rec["self_s"] <= wall
    rec["ok"] = all(rec["checks"].values())
    return rec


def run_pipeline(run, out, traced, twin_of=None):
    """Run the workload's stages in order, stopping at the first failure.

    The untraced twin of a traced pipeline (``twin_of``) runs only the stages
    that still fit before the run's deadline, judged by their traced times.
    """
    out.mkdir(parents=True)
    stages = []
    for j, stage in enumerate(WORKLOADS[run.workload].stages):
        if twin_of is not None and (
                j >= len(twin_of)
                or time.monotonic() + 1.2 * twin_of[j]["wall_s"] > run.deadline):
            break
        stages.append(run_stage(run, stage, out, traced))
        if not stages[-1]["ok"]:
            break
    return stages


def pipeline_metrics(stages):
    """End-to-end numbers of one pipeline; empty when none of its stages ran."""
    if not stages:   # a traced run's twin that did not fit before the deadline
        return {}
    m = {f"{s['stage']}_s": s["wall_s"] for s in stages}
    m["pipeline_s"] = sum(s["wall_s"] for s in stages)
    m["peak_rss_mb"] = max(s["rss_mb"] for s in stages)
    for s in stages:
        if "max_err_tmax" in s["values"]:
            m["max_err_tmax"] = s["values"]["max_err_tmax"]
    return m


# ---------------------------------------------------------------------------
# spans -> per-layer numbers
# ---------------------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus its direct children's, so nothing double-counts."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(traced, plain):
    """Per-layer metrics of one traced pipeline and its untraced twin.

    The overhead compares the stages that ran both ways.
    """
    traced_wall = sum((s["wall_s"] for s in traced[:len(plain)]), 0.0)
    plain_wall = sum((s["wall_s"] for s in plain), 0.0)
    lay = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [], "batches": [],
                               "counts": Counter()})
    traced = [rec for rec in traced if "spans" in rec]
    for rec in traced:
        for (name, start, end, _, counts), own in zip(rec["spans"], self_times(rec["spans"])):
            agg = lay[name]
            agg["calls"] += 1
            agg["self_s"] += own
            agg["durations"].append(end - start)
            agg["counts"].update(counts)
            if "batch" in counts:
                agg["batches"].append(counts["batch"])

    def p50(values):
        return statistics.median(values) if values else 0.0

    march, evolve = lay["scattering.march_volterra"], lay["pde.evolve"]
    k_steps, steps = march["counts"]["k_steps"], evolve["counts"]["steps"]
    m = {
        "scattering.march_volterra.ns_per_k_step":
            1e9 * march["self_s"] / k_steps if k_steps else 0.0,
        "scattering.march_volterra.batch_p50": p50(march["batches"]),
        "asymptotics.build_ingredients.ms_p50":
            1e3 * p50(lay["asymptotics.build_ingredients"]["durations"]),
        "pde.evolve.ms_per_step": 1e3 * evolve["self_s"] / steps if steps else 0.0,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall
                              if plain_wall else 0.0,
        "trace.self_over_wall": max((s["self_s"] / s["wall_s"] for s in traced), default=0.0),
    }
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        agg = lay[layer]
        if name in m:
            continue
        if field in ("s", "self_s"):
            m[name] = agg["self_s"]
        elif field == "total_s":
            m[name] = sum(agg["durations"], 0.0)
        elif field == "calls":
            m[name] = agg["calls"]
        else:  # summed call-argument counts: k_steps, points, panels, steps, bytes, failed
            m[name] = agg["counts"][field]
    return m


# ---------------------------------------------------------------------------
# run record and report
# ---------------------------------------------------------------------------


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():   # an exported source tree has no git metadata
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bqist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {var: "1" for var in THREAD_VARS}}


def speed_probe(reps=2000):
    """Median microseconds of one complex (336,3,3) @ (336,3,2) matmul.

    That is the step-matrix product of a 336-k march, timed in this process on
    fixed data.  Taken before and after each run, it marks how fast the
    machine was at the time, so a phase of slow execution shows in the record.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((336, 3, 3)) + 1j * rng.standard_normal((336, 3, 3))
    b = rng.standard_normal((336, 3, 2)) + 1j * rng.standard_normal((336, 3, 2))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_probes(run, deadline, count=SETUP_PROBES):
    argv = [sys.executable, "-c", SETUP_PROBE, str(run.config_path)]
    return [run_child(argv, run.input_dir.parent / "setup_probe.log", deadline)
            for _ in range(count)]


def measure(run, seconds, traced):
    """Whole pipelines until ``seconds`` have passed (at least one), between setup probes."""
    work = run.input_dir.parent
    setup_probes(run, run.deadline, 1)   # warm-up, not counted
    probes = []
    started = time.monotonic()
    pipelines = []
    while True:
        probes += setup_probes(run, run.deadline)
        t0 = time.monotonic()
        i = len(pipelines)
        if traced:
            traced_recs = run_pipeline(run, work / f"p{i}_traced", True)
            plain_recs = run_pipeline(run, work / f"p{i}", False, twin_of=traced_recs)
        else:
            traced_recs, plain_recs = [], run_pipeline(run, work / f"p{i}", False)
        pipelines.append({"traced": traced_recs, "plain": plain_recs})
        now = time.monotonic()
        if now - started >= seconds or now + (now - t0) > run.deadline:
            return probes + setup_probes(run, run.deadline + PROBE_GRACE_S), pipelines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bqist" / "cli.py").is_file():
        print(f"error: no bqist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bqist.cli

    if Path(bqist.cli.__file__).resolve().parent != SRC / "bqist":
        print(f"error: imported bqist from {bqist.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    load_before = os.getloadavg()
    speed_before = speed_probe()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    input_dir = work / "input"
    input_dir.mkdir(parents=True)
    try:
        rng = None if args.seed == 0 else random.Random(args.seed)
        config, params = workload.make_inputs(rng, input_dir)
        config_path = input_dir / "run.json"
        config_path.write_text(json.dumps(config, indent=1))
        run = Run(args.workload, args.seed, config, input_dir, config_path, deadline,
                  check_reference=args.seed == 0)
        probes, pipelines = measure(run, args.seconds, args.trace)
        speed_after = speed_probe()

        stage_recs = [s for p in pipelines for s in p["traced"] + p["plain"]]
        setup_ok = all(rc == 0 for rc, _, _, _ in probes)
        attempted = len(stage_recs) + 1
        failed = sum(not s["ok"] for s in stage_recs) + (not setup_ok)

        per_pipeline = [pipeline_metrics(p["plain"]) for p in pipelines]
        e2e = {name: summary([m[name] for m in per_pipeline if name in m])
               for name in list(E2E) + list(STAGE_ONLY)
               if any(name in m for m in per_pipeline)}
        e2e["setup_s"] = summary([w * len(workload.stages) for _, w, _, _ in probes])
        e2e["failed_frac"] = summary([failed / attempted])
        units = dict(E2E, **STAGE_ONLY)
        layers = {}
        if args.trace:   # failed pipelines too, so their layers' failures are counted
            per_run = [layer_metrics(p["traced"], p["plain"]) for p in pipelines]
            layers = {name: summary([m[name] for m in per_run]) for name, _, _ in PER_LAYER}
            units.update({name: unit for name, unit, _ in PER_LAYER})

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"{len(pipelines)} pipeline(s)  {attempted} operations, {failed} failed  "
              f"params {json.dumps(params)}")
        print(f"  speed probe {speed_before:.1f} us before, {speed_after:.1f} us after "
              "(complex (336,3,3) @ (336,3,2) matmul; higher is a slower machine)")
        for name, s in (layers if args.trace else e2e).items():
            print(f"  {name:44s} {s['median']:.6g} {units[name]}  "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        if args.trace and any(not p["plain"] for p in pipelines):
            print("  note: an untraced twin did not fit before the deadline; "
                  "its pipeline reports trace.overhead_* as 0")
        for s in pipelines[0]["traced"] + pipelines[0]["plain"]:
            if s["values"]:
                print(f"  values {s['stage']}{' (traced)' if s['traced'] else ''}: "
                      + ", ".join(f"{k} {v:.6g}" for k, v in s["values"].items()
                                  if isinstance(v, float)))
        for s in stage_recs:
            bad = [k for k, v in s["checks"].items() if not v]
            if bad:
                print(f"  FAILED {s['stage']}{' (traced)' if s['traced'] else ''}: {bad}")

        if args.trace:
            metrics = {name: {"value": layers[name]["median"], "unit": unit}
                       for name, unit, _ in PER_LAYER}
        else:
            metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                       for name, unit in E2E.items()}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}

        for s in stage_recs:
            s.pop("spans", None)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "params": params, "config": config,
                  "machine": machine_record(), "load_before": load_before,
                  "load_after": os.getloadavg(),
                  "speed_probe_us": {"before": speed_before, "after": speed_after},
                  "setup_probes_s": [w for _, w, _, _ in probes],
                  "pipelines": pipelines, "end_to_end": e2e, "per_layer": layers,
                  "result": result}
        RECORDS.mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        record_path = (RECORDS / f"{args.workload}_seed{args.seed}_trace{args.trace}_"
                                 f"{stamp}_{os.getpid()}.json")
        record_path.write_text(json.dumps(record, indent=1))
        print(f"  record {record_path.relative_to(ROOT)}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
