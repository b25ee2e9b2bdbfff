"""Command-line pipeline: scatter -> asym -> evolve -> compare.

All outputs are plain CSV/JSON, written atomically (temp file + rename).
Exit codes: 0 success; 1 a failed check, NumericalError ("numerical failure: <its
message>"), or a validator report with "ok": false; 2 a ConfigError or OSError;
3 any other exception, a bug to report: the run prints its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, NumericalError, RunConfig, atomic_write, number_pairs,
                     read_columns)
from .config import write_columns as _write_csv  # the name perfbench/trace_stage.py wraps

#: reflection.csv columns: one row per node, n_per_arc rows for each of the arcs 0..5 in turn
REFLECTION_HEADER = ("arc", "theta", "re_r1", "im_r1", "re_r2", "im_r2",
                     "re_s11", "im_s11", "re_sA11", "im_sA11")
#: asymptotics.csv and evolution_t*.csv columns, named as the fields they are written from:
#: asymptotics.AsymptoticEvaluation's (a row per zeta and t) and pde.FieldSnapshot's
ASYMPTOTICS_HEADER = ("x", "t", "zeta", "A1", "A2", "alpha1", "alpha2", "u_asym")
EVOLUTION_HEADER = ("x", "u", "u_t")


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def cmd_scatter(cfg: RunConfig) -> int:
    from . import scattering as sc

    data = cfg.build_initial_data()
    data.check_mass()  # before the march
    refl, sol, report = sc.scattering_data(data, cfg.n_per_arc,
                                           cfg.solitons["mode"] == "detect")
    columns = [np.repeat(np.arange(6), refl.n_per_arc), refl.theta]
    for z in (refl.r1, refl.r2, refl.s11, refl.sA11):
        columns += [z.real, z.imag]
    _write_csv(cfg.out_dir / "reflection.csv", REFLECTION_HEADER, columns)
    pairs = {key: [None if z is None else [float(np.real(z)), float(np.imag(z))]
                   for z in getattr(sol, key)] for key in ("zeros", "c", "d")}
    atomic_write(cfg.out_dir / "solitons.json", json.dumps(pairs, indent=1))
    atomic_write(cfg.out_dir / "validators.json",
                 json.dumps(report, indent=1, default=_json_default, allow_nan=False))
    if not report["ok"]:
        print("validator failure; see validators.json", file=sys.stderr)
        return 1
    print(f"scatter: wrote reflection.csv ({len(refl.theta)} samples), solitons.json, "
          f"validators.json to {cfg.out_dir}")
    return 0


def _json_default(obj):
    """JSON form of the complex and NumPy scalars in the validator report."""
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj.item()


# ---------------------------------------------------------------------------
# asym
# ---------------------------------------------------------------------------


def _read_back(path: Path, names, stage: str) -> dict:
    """read_columns of ``stage``'s output; ConfigError naming a column with a non-finite cell."""
    col = read_columns(path, names)
    for name in names:
        if not np.isfinite(col[name]).all():
            raise ConfigError(f"{path} column {name!r} has a non-finite cell; rerun {stage}")
    return col


def load_reflection(out_dir: Path):
    """The ReflectionData that ``scatter`` wrote to ``out_dir``/reflection.csv."""
    from .reflection import ReflectionData

    path = Path(out_dir) / "reflection.csv"
    col = _read_back(path, REFLECTION_HEADER, "scatter")
    n = len(col["arc"]) // 6
    if not np.array_equal(col["arc"], np.repeat(np.arange(6), n)):
        raise ConfigError(f"{path} must hold the arcs 0..5 in turn, with the same number "
                          "of rows each; rerun scatter")
    if not np.array_equal(col["theta"], ReflectionData.nodes(n)):
        raise ConfigError(f"{path} theta is not the sample angles of {n} per arc; rerun scatter")
    entries = {}
    for name in ("r1", "r2", "s11", "sA11"):
        z = entries[name] = np.empty(len(col["theta"]), dtype=complex)
        z.real, z.imag = col["re_" + name], col["im_" + name]
    return ReflectionData(**entries)


def load_solitons(out_dir: Path) -> list:
    """The zeros of s11 that ``scatter`` wrote to ``out_dir``/solitons.json, once
    their c and d are checked too: asym reads the zeros alone."""
    path = Path(out_dir) / "solitons.json"
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path} ({exc}); rerun scatter") from None
    try:
        zeros, c, d = (number_pairs(raw.get(key) if isinstance(raw, dict) else None,
                                    f"{path} {key!r}", nullable=key == "d")
                       for key in ("zeros", "c", "d"))
    except ConfigError as exc:
        raise ConfigError(f"{exc}; rerun scatter") from None
    if not len(zeros) == len(c) == len(d):
        raise ConfigError(f"{path} has {len(zeros)} zeros, {len(c)} c and {len(d)} d; "
                          "each zero needs one of each; rerun scatter")
    return zeros


def cmd_asym(cfg: RunConfig) -> int:
    from . import asymptotics as asy
    from . import cauchy as cy

    refl = load_reflection(cfg.out_dir)
    if refl.n_per_arc != cfg.n_per_arc:
        raise ConfigError(f"{cfg.out_dir / 'reflection.csv'} has {refl.n_per_arc} rows per "
                          f"arc, not n_per_arc = {cfg.n_per_arc}; rerun scatter with this config")
    zeros = load_solitons(cfg.out_dir)
    cf = cy.CircleFunctions(refl)
    evs, debug = [], []
    for z in cfg.zetas:
        ing = asy.build_ingredients(float(z), cf, solitons=zeros)
        evs += [asy.u_asym(ing, t) for t in cfg.t_values]
        debug.append(ing.debug_values())
    _write_csv(cfg.out_dir / "asymptotics.csv", ASYMPTOTICS_HEADER,
               [[getattr(ev, name) for ev in evs] for name in ASYMPTOTICS_HEADER])
    debug = np.array(debug, dtype=complex)  # one row per zeta, DEBUG_QUANTITIES' columns
    _write_csv(cfg.out_dir / "deltas_debug.csv", ["zeta", "quantity", "re", "im"],
               [np.repeat(cfg.zetas, debug.shape[1]),
                np.tile(asy.DEBUG_QUANTITIES, len(debug)), debug.real.ravel(), debug.imag.ravel()])
    print(f"asym: wrote asymptotics.csv ({len(evs)} rows) and deltas_debug.csv")
    return 0


# ---------------------------------------------------------------------------
# evolve / compare
# ---------------------------------------------------------------------------


def cmd_evolve(cfg: RunConfig) -> int:
    from . import pde

    data = cfg.build_pde_data()
    snaps = pde.evolve(data, max(cfg.t_values), dt=cfg.pde["dt"], cutoff=cfg.pde["cutoff"],
                       snapshot_times=list(cfg.t_values))
    for snap in snaps:
        _write_csv(cfg.out_dir / f"evolution_t{snap.t:g}.csv", EVOLUTION_HEADER,
                   [getattr(snap, name) for name in EVOLUTION_HEADER])
        xi = 2 * np.pi * np.fft.rfftfreq(len(snap.x) - 1, d=snap.x[1] - snap.x[0])
        _write_csv(cfg.out_dir / f"spectrum_t{snap.t:g}.csv", ["xi", "abs_uhat"],
                   [xi, np.abs(snap.uhat())])
    print(f"evolve: wrote {len(snaps)} snapshots to {cfg.out_dir}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    from . import pde

    path = cfg.out_dir / "asymptotics.csv"
    asym = _read_back(path, ASYMPTOTICS_HEADER, "asym")
    missing = [t for t in cfg.t_values if t not in asym["t"]]
    if missing:
        raise ConfigError(f"{path} has no rows for t = {missing}; rerun asym with this config")
    zetas = cfg.zetas
    snaps, u_asym = [], []
    for t in cfg.t_values:
        at_t = asym["t"] == t
        order = np.argsort(asym["zeta"][at_t], kind="stable")
        zs = asym["zeta"][at_t][order]
        if len(zs) != len(zetas) or np.max(np.abs(zs - zetas)) > 1e-9:
            raise ConfigError(f"{path} has another zeta grid; rerun asym with this config")
        u_asym.append(asym["u_asym"][at_t][order])
        snap = _read_back(cfg.out_dir / f"evolution_t{t:g}.csv", EVOLUTION_HEADER, "evolve")
        snaps.append(pde.FieldSnapshot(**snap, t=t))

    rep = pde.compare(zetas, u_asym, snaps)
    header = ["t", "max_err", "rms_err", "envelope_pde", "envelope_asym"]
    _write_csv(cfg.out_dir / "compare.csv", header,
               [[r[name] for r in rep["rows"]] for name in header])
    lines = ["comparison of leading-order formula against filtered spectral evolution",
             f"zeta window: [{cfg.zeta_window[0]}, {cfg.zeta_window[1]}]"
             f" with {cfg.n_zeta} points",
             f"times: {list(cfg.t_values)}",
             f"envelope decay exponent (fit of max|u_pde| vs t): "
             f"{rep['envelope_exponent']:+.4f}",
             f"error ratios between consecutive times: "
             f"{['%.4f' % r for r in rep['error_ratios']]}"]
    for r in rep["rows"]:
        lines.append(f"  t={r['t']:g}: max_err={r['max_err']:.6e} "
                     f"rms_err={r['rms_err']:.6e} envelope={r['envelope_pde']:.6e}")
    atomic_write(cfg.out_dir / "compare_summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bqist",
                                 description="Boussinesq inverse scattering and "
                                             "long-time asymptotics pipeline")
    commands = {"scatter": cmd_scatter, "asym": cmd_asym,
                "evolve": cmd_evolve, "compare": cmd_compare}
    sub = ap.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="output directory override")
    args = ap.parse_args(argv)

    try:
        return commands[args.command](RunConfig.load(args.config, out_dir=args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # only here: the module costs every run about 0.3 MB

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
