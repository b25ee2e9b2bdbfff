"""Run configuration, tolerance registry, error types and CSV dialect of the pipeline."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectral import ZETA_MAX, ZETA_MIN


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


#: thresholds of the admissibility checks, each read where its check is applied;
#: fixed values, not config fields
TOLERANCES = {
    "mass_condition": 1e-9,   # |int u1 dx|
    "tail": 1e-9,             # compact-support tails at +-L
    "r1_segment": 5e-3,       # heuristic no-high-frequency threshold
    "zero_residual": 1e-8,    # |s11| at an accepted zero
    "nu_hat_floor": -1e-10,   # admissible negativity of nu-hat
}

#: every field of a config file but initial_data, with its default (the README
#: example's).  Its kind is its default's: an int is a count (56.0 is taken), a
#: float a number, a tuple a list of numbers, a str a name, a dict a block.
DEFAULTS = {
    "n_per_arc": 56,
    "zeta_window": (0.62, 0.95),
    "n_zeta": 60,
    "t_values": (60.0, 120.0, 240.0),
    "solitons": {"mode": "none"},
    "pde": {"L": 760.0, "n": 8193, "dt": 0.1, "cutoff": 0.9},  # evolve's grid, step, filter
}

_KINDS = {int: f"a whole number {_NUMBER_RULE}", float: f"a number {_NUMBER_RULE}",
          tuple: f"a list of numbers {_NUMBER_RULE}", str: "a string"}

# a grid's size: the march's RK4 steps take the odd-index points as midpoints
_ODD_COUNT = ("odd and at least 3", lambda n: n > 2 and n % 2 == 1)

#: dotted field name -> (what its value must be, test of the value as its kind);
#: pde.dt must divide every t, which RunConfig.load checks
RULES = {
    "zeta_window": ("two increasing values inside (1/sqrt(3), 1)",
                    lambda w: len(w) == 2 and ZETA_MIN < w[0] < w[1] < ZETA_MAX),
    "t_values": ("a nonempty, strictly increasing list, all >= 2",
                 lambda t: len(t) > 0 and t[0] >= 2 and all(a < b for a, b in zip(t, t[1:]))),
    "n_per_arc": ("at least 8", lambda n: n >= 8),
    "n_zeta": ("at least 1", lambda n: n >= 1),
    "solitons.mode": ("none or detect", lambda mode: mode in ("none", "detect")),
    "pde.L": ("positive", lambda L: L > 0),
    "pde.n": _ODD_COUNT,
    "pde.cutoff": ("in (0, 1)", lambda c: 0 < c < 1),
    "initial_data.n": _ODD_COUNT,
}


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


class NumericalError(RuntimeError):
    """A check on computed values failed: an admissibility condition of the data or
    a numerical guard of the method (exit code 1)."""


FMT = "%.17g"  # a float cell: 17 significant digits read back to the same float


def atomic_write(path: Path, text: str):
    """Write ``text`` to ``path`` through a temporary file and a rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_columns(path: Path, header, columns):
    """Write the equal-length ``columns`` under ``header`` as the pipeline's CSV: one
    header line, then comma-separated rows; each column's format follows its dtype,
    floats as FMT and ints and names as text."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join(FMT if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    cells = np.stack(columns, axis=1, dtype=object)  # Python floats, ints and strs
    atomic_write(path, ",".join(header) + "\n" + row * len(cells) % tuple(cells.flat))


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


def _value(name: str, val, kind):
    """The config's ``val`` of the field ``name`` as ``kind`` (see DEFAULTS), checked
    against RULES[name]; ConfigError naming the field otherwise.  Numbers follow
    is_number, and a count is equal to its int(): 56 and 56.0, not 2.9."""
    if kind is str:
        ok = isinstance(val, str)
    else:
        vals = val if kind is tuple else [val]
        ok = isinstance(vals, (list, tuple)) and all(
            is_number(v) and (kind is not int or v == int(v)) for v in vals)
    what = _KINDS[kind]
    if ok:
        out = tuple(map(float, val)) if kind is tuple else kind(val)
        what, test = RULES.get(name, (what, None))
        if test is None or test(out):
            return out
    raise ConfigError(f"{name} must be {what}, not {name.split('.')[-1]} = {val!r}")


def _resolve(raw, defaults: dict, prefix: str = "") -> dict:
    """The block ``raw`` of a config, walked once against ``defaults``: it must be
    an object, each field of ``defaults`` is taken from it (or its default) by
    _value, a block by this walk, and a name that ``defaults`` lacks is an error."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1]} must be an object: {raw!r}")
    out = {key: _resolve(raw.get(key, default), default, f"{prefix}{key}.")
             if isinstance(default, dict) else
             _value(prefix + key, raw.get(key, default), type(default))
           for key, default in defaults.items()}
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"unknown config field {prefix + key!r}")
    return out


@dataclass
class RunConfig:
    initial_data: dict
    out_dir: Path
    n_per_arc: int
    zeta_window: tuple
    n_zeta: int
    t_values: tuple
    solitons: dict
    pde: dict

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
        idata = raw["initial_data"]
        if not isinstance(idata, dict):
            raise ConfigError(f"initial_data must be an object: {idata!r}")
        if "csv" in idata:
            csv_path = Path(_resolve(idata, {"csv": ""}, "initial_data.")["csv"])
            if not csv_path.is_absolute():
                csv_path = path.parent / csv_path
            if not csv_path.exists():
                raise ConfigError(f"initial_data.csv file not found: {csv_path}")
            idata = {"csv": str(csv_path)}
        elif "form" not in idata:
            raise ConfigError("initial_data needs either 'form' or 'csv'")
        else:  # the form's parameters are numbers, its grid size n a count
            idata = {key: val if key in ("form", "u1_mode") else
                     _value(f"initial_data.{key}", val, int if key == "n" else float)
                     for key, val in idata.items()}
        fields = _resolve({k: v for k, v in raw.items() if k != "initial_data"}, DEFAULTS)
        for key in ("L", "n"):
            if "csv" in idata and key in raw.get("pde", {}):
                raise ConfigError(f"pde.{key} does not apply to a CSV run: "
                                  "its PDE grid is the CSV grid")
        try:
            for t in fields["t_values"]:
                whole_steps(t, fields["pde"]["dt"])
        except (ValueError, OverflowError) as exc:  # OverflowError: t / dt is infinite
            raise ConfigError(f"pde.dt: {exc}") from None
        return cls(initial_data=idata, out_dir=Path(out_dir or "bqist_out"), **fields)

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
