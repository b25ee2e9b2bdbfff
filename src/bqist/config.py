"""Run configuration, tolerance registry and CSV reader of the command-line pipeline."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


#: what a config number is not, in the errors of the fields that take one
_NUMBER_RULE = "(not a string, a bool or non-finite)"


def is_number(v) -> bool:
    """Whether ``v`` is a number of the config: an int or a float, not a bool
    (``true`` or a string is not a number), and finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class Tolerances:
    """Thresholds of the admissibility checks, passed to every site that applies one."""

    mass_condition: float = 1e-9   # |int u1 dx|
    tail: float = 1e-9             # compact-support tails at +-L
    r1_segment: float = 5e-3       # heuristic no-high-frequency threshold
    zero_residual: float = 1e-8    # |s11| at an accepted zero
    nu_hat_floor: float = -1e-10   # admissible negativity of nu-hat

    @classmethod
    def resolve(cls, overrides: dict) -> "Tolerances":
        """The defaults, with the config's ``overrides`` in their place."""
        for name, val in overrides.items():
            if name not in TOLERANCES:
                raise ConfigError(f"unknown tolerance override {name!r}")
            if not is_number(val) or (val <= 0 and name != "nu_hat_floor"):
                need = "a number" if name == "nu_hat_floor" else "a positive number"
                raise ConfigError(f"tolerance {name!r} must be {need} {_NUMBER_RULE}: {val!r}")
        return cls(**{name: float(val) for name, val in overrides.items()})


#: documented tolerance names and defaults; the config's "tolerances" override them
TOLERANCES = asdict(Tolerances())


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


#: the top-level fields of a config file
CONFIG_FIELDS = ("initial_data", "n_per_arc", "zeta_window", "n_zeta", "t_values",
                 "solitons", "pde", "tolerances")

#: evolve-stage defaults: periodic half-width L, grid points n, step dt, filter cutoff
PDE_DEFAULTS = {"L": 760.0, "n": 8193, "dt": 0.1, "cutoff": 0.9}


def read_columns(path, names) -> dict:
    """The columns ``names`` of a CSV file (one header line, then rows of numbers),
    each as a contiguous float array; ConfigError naming the file otherwise."""
    if not Path(path).exists():
        raise ConfigError(f"missing input file {path}; run the stage that writes it")
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",") if lines else []
    missing = [name for name in names if name not in header]
    if missing:
        raise ConfigError(f"{path} has no column {missing[0]!r}")
    if len(lines) < 2:
        raise ConfigError(f"{path} has no rows")
    try:
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2,
                           usecols=[header.index(name) for name in names])
    except ValueError as exc:
        raise ConfigError(f"bad number in {path}: {exc}") from None
    return dict(zip(names, np.ascontiguousarray(table.T)))


def whole_steps(T: float, dt: float) -> int:
    """The number of steps of size dt that reach |T|, within 1e-9; ValueError otherwise."""
    nsteps = round(abs(T) / dt) if dt > 0 else -1
    if nsteps < 0 or not abs(nsteps * dt - abs(T)) <= 1e-9:
        raise ValueError(f"dt = {dt!r} must be positive and divide T = {T!r}")
    return nsteps


def _field(raw: dict, name: str, default, kind, many: bool = False):
    """``raw[name]`` (or ``default``) as ``kind``, element-wise if ``many``; each
    value must be a number (is_number), and an int field's equal to its int():
    56 and 56.0, not 2.9."""
    val = raw.get(name, default)
    vals = val if many else [val]
    if not (isinstance(vals, (list, tuple))
            and all(is_number(v) and (kind is float or v == int(v)) for v in vals)):
        what = "whole number" if kind is int else "number"
        expected = f"a list of {what}s" if many else f"a {what}"
        raise ConfigError(f"{name} must be {expected} {_NUMBER_RULE}: {val!r}")
    out = tuple(kind(v) for v in vals)
    return out if many else out[0]


def number_pairs(items, name: str, nullable: bool = False) -> list:
    """``items``, a list of [re, im] pairs of numbers (is_number), as complex
    numbers (None kept where ``nullable``); ConfigError naming ``name`` otherwise."""
    if not isinstance(items, list):
        raise ConfigError(f"{name} must be a list of [re, im] number pairs: {items!r}")
    out = []
    for item in items:
        if item is None and nullable:
            out.append(None)
        elif isinstance(item, list) and len(item) == 2 and all(map(is_number, item)):
            out.append(complex(item[0], item[1]))
        else:
            raise ConfigError(f"{name} entry {item!r} is not a [re, im] pair of finite numbers")
    return out


def _reject_unknown(names, known) -> None:
    """ConfigError naming the first of ``names`` that is not in ``known``."""
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown config field {name!r}")


def _odd_grid(name: str, n: int) -> None:
    """ConfigError naming ``name`` if the grid size n is even: every x grid
    spans [-L, L] with an even number of intervals, as the march's RK4 steps
    take the odd-index points as midpoints."""
    if n % 2 == 0:
        raise ConfigError(f"{name} must be odd: {n}")


def _block(raw: dict, name: str, default: dict) -> dict:
    """The object ``raw[name]`` (or ``default``); ConfigError naming it otherwise."""
    val = raw.get(name, default)
    if not isinstance(val, dict):
        raise ConfigError(f"{name} must be an object: {val!r}")
    return val


@dataclass
class RunConfig:
    initial_data: dict
    out_dir: Path
    n_per_arc: int = 56
    zeta_window: tuple = (0.62, 0.95)
    n_zeta: int = 60
    t_values: tuple = (60.0, 120.0, 240.0)
    solitons: dict = field(default_factory=lambda: {"mode": "none"})
    pde: dict = field(default_factory=lambda: dict(PDE_DEFAULTS))
    tol: Tolerances = field(default_factory=Tolerances)

    @classmethod
    def load(cls, path, out_dir=None) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object of fields: {raw!r}")
        if "initial_data" not in raw:
            raise ConfigError("config missing required field 'initial_data'")
        _reject_unknown(raw, CONFIG_FIELDS)
        idata = _block(raw, "initial_data", {})
        if "csv" in idata:
            _reject_unknown([f"initial_data.{k}" for k in idata], ["initial_data.csv"])
            if not isinstance(idata["csv"], str):
                raise ConfigError(f"initial_data.csv must be a file path: {idata['csv']!r}")
            csv_path = Path(idata["csv"])
            if not csv_path.is_absolute():
                csv_path = path.parent / csv_path
            if not csv_path.exists():
                raise ConfigError(f"initial_data.csv file not found: {csv_path}")
            idata = dict(idata, csv=str(csv_path))
        elif "form" not in idata:
            raise ConfigError("initial_data needs either 'form' or 'csv'")
        else:  # numbers, keyed by their dotted names for the errors; the grid size n a count
            idata = {key: val if key in ("form", "u1_mode") else
                     _field({f"initial_data.{key}": val}, f"initial_data.{key}", None,
                            int if key == "n" else float)
                     for key, val in idata.items()}
            if "n" in idata:
                _odd_grid("initial_data.n", idata["n"])
        window = _field(raw, "zeta_window", cls.zeta_window, float, many=True)
        lo_edge = 1.0 / 3.0**0.5
        if len(window) != 2 or not (lo_edge < window[0] < window[1] < 1.0):
            raise ConfigError(f"zeta_window must be two increasing values inside "
                              f"(1/sqrt(3), 1): {window}")
        t_values = _field(raw, "t_values", cls.t_values, float, many=True)
        if not (t_values and t_values[0] >= 2
                and all(a < b for a, b in zip(t_values, t_values[1:]))):
            raise ConfigError(f"t_values must be a nonempty, strictly increasing list, "
                              f"all >= 2: {list(t_values)}")
        sol = _block(raw, "solitons", {"mode": "none"})
        if sol.get("mode") not in ("none", "detect"):
            raise ConfigError(f"solitons.mode must be none|detect: {sol.get('mode')!r}")
        _reject_unknown([f"solitons.{k}" for k in sol], ["solitons.mode"])
        n_per_arc = _field(raw, "n_per_arc", cls.n_per_arc, int)
        if n_per_arc < 8:
            raise ConfigError("n_per_arc must be at least 8")
        n_zeta = _field(raw, "n_zeta", cls.n_zeta, int)
        if n_zeta < 1:
            raise ConfigError("n_zeta must be at least 1")
        # keyed by their dotted names so that a bad value is reported as pde.<key>
        given = {f"pde.{k}": v for k, v in _block(raw, "pde", {}).items()}
        _reject_unknown(given, [f"pde.{k}" for k in PDE_DEFAULTS])
        for name in ("pde.L", "pde.n"):
            if "csv" in idata and name in given:
                raise ConfigError(f"{name} does not apply to a CSV run: "
                                  "its PDE grid is the CSV grid")
        pde = {k: _field(given, f"pde.{k}", v, type(v)) for k, v in PDE_DEFAULTS.items()}
        # open intervals; dt is checked against t_values below
        for k, lo, hi in (("L", 0.0, math.inf), ("n", 2, math.inf), ("cutoff", 0.0, 1.0)):
            if not lo < pde[k] < hi:
                raise ConfigError(f"pde.{k} must lie in ({lo}, {hi}): {pde[k]!r}")
        _odd_grid("pde.n", pde["n"])
        try:
            for t in t_values:
                whole_steps(t, pde["dt"])
        except (ValueError, OverflowError) as exc:  # OverflowError: t / dt is infinite
            raise ConfigError(f"pde.dt: {exc}") from None
        tol = Tolerances.resolve(_block(raw, "tolerances", {}))
        return cls(initial_data=idata, out_dir=Path(out_dir or "bqist_out"), n_per_arc=n_per_arc,
                   zeta_window=window, n_zeta=n_zeta,
                   t_values=t_values, solitons=sol, pde=pde, tol=tol)

    @property
    def zetas(self) -> np.ndarray:
        """The n_zeta points of the zeta window, ends included."""
        return np.linspace(self.zeta_window[0], self.zeta_window[1], self.n_zeta)

    def build_initial_data(self):
        return self._build(self.initial_data)

    def build_pde_data(self):
        """The initial data on the periodic grid of the evolve stage: a named form
        re-sampled with pde.L and pde.n, CSV data as given.  ConfigError if the
        zeta window leaves that grid by the last t (pde.compare's rule)."""
        idata = self.initial_data
        csv = "csv" in idata
        data = self._build(idata if csv else dict(idata, L=self.pde["L"], n=self.pde["n"]))
        reach = self.zetas[-1] * self.t_values[-1]
        if not reach < data.x[-1]:
            grid, fix = ((f"the CSV grid, which ends at x = {data.x[-1]:g}", "widen the CSV grid")
                         if csv else (f"pde.L = {self.pde['L']:g}", "raise pde.L"))
            raise ConfigError(f"zeta window reaches x = {reach:g} at t = {self.t_values[-1]:g}, "
                              f"beyond {grid}; {fix} or narrow zeta_window")
        return data

    @staticmethod
    def _build(idata: dict):
        from . import scattering as sc

        if "csv" in idata:
            path = idata["csv"]
            try:
                return sc.load_csv(path)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad initial_data.csv {path}: {exc}") from exc
        form = idata["form"]
        if not isinstance(form, str) or form not in sc.NAMED_FORMS:
            raise ConfigError(f"unknown initial-data form {form!r}; "
                              f"choose from {sorted(sc.NAMED_FORMS)} or give csv")
        kwargs = {k: v for k, v in idata.items() if k != "form"}
        try:
            return sc.NAMED_FORMS[form](**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for form {form!r}: {exc}") from exc
