"""Run configuration, tolerance registry, error types and CSV dialect of the pipeline."""

from __future__ import annotations

import inspect
import json
import math
import os
import tempfile
from collections import namedtuple
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
    "mass_condition": 1e-9,    # |int u1 dx|
    "tail": 1e-9,              # compact-support tails at +-L
    "r1_segment": 5e-3,        # heuristic no-high-frequency threshold
    "zero_residual": 1e-8,     # |s11| at an accepted zero
    "nu_hat_floor": -1e-10,    # admissible negativity of nu-hat
    "genericity_floor": 1e-6,  # smallest scaled entry at a probe near k = +-1
    "genericity_ratio": 5.0,   # r: near/far probe entries lie in (1/r, r)
    "simple_zero": 1e-10,      # smallest |s11'| at an accepted zero
    "nonsingularity": 1e-10,   # margin of a real zero's value from the negative real axis
    "real_axis": 1e-9,         # |Im k| under which a found zero of s11 is real
}

_KINDS = {int: f"a whole number {_NUMBER_RULE}", float: f"a number {_NUMBER_RULE}",
          tuple: f"a list of numbers {_NUMBER_RULE}", str: "a string"}

#: one field of a config file: its default (the README example's, or None: left out
#: unless given, so a named form's own default applies), its kind (an int is a count,
#: and 56.0 is taken; a float a number, a tuple a list of numbers, a str a name) and
#: its check, if any: (what the value must be, test of the value as its kind)
Field = namedtuple("Field", "default kind check", defaults=[None])


def is_grid_size(n: int) -> bool:
    """The grid rule of every initial-data grid: n is odd and at least 3, so that
    the RK4 march can step over pairs of intervals with the odd-index points as
    midpoints.  InitialData.check_size applies it to each grid it builds."""
    return n >= 3 and n % 2 == 1


#: the largest counts a config may ask for: far above any documented run (grids of
#: n = 16385, n_per_arc = 168, n_zeta = 211), so that a slip of the keyboard such as
#: n = 1000000001 exits 2 when the config loads, not after asking for gigabytes
MAX_GRID = 2**20
MAX_N_PER_ARC = 4096
MAX_N_ZETA = 100_000

_GRID_SIZE = (f"odd, at least 3 and at most MAX_GRID = {MAX_GRID}",
              lambda n: is_grid_size(n) and n <= MAX_GRID)
# a grid's half-width (it spans [-L, L]) or the PDE step
_POSITIVE = ("positive", lambda v: v > 0)

#: every field of a config file, block by block; RunConfig.load checks the rules
#: that join fields: exactly one of initial_data's csv and form, nothing else in
#: a CSV block and no pde grid in a CSV run, a named form's parameters
#: (_check_form), pde.dt dividing every t in at most MAX_STEPS steps
SPEC = {
    "initial_data": {
        "csv": Field(None, str),
        "form": Field(None, str),
        "u1_mode": Field(None, str),
        "amplitude": Field(None, float),
        "width": Field(None, float, ("nonzero", lambda w: w != 0)),
        "L": Field(None, float, _POSITIVE),
        "n": Field(None, int, _GRID_SIZE),
    },
    "n_per_arc": Field(56, int, (f"from 8 to MAX_N_PER_ARC = {MAX_N_PER_ARC}",
                                 lambda n: 8 <= n <= MAX_N_PER_ARC)),
    "zeta_window": Field((0.62, 0.95), tuple, (
        "two increasing values inside (1/sqrt(3), 1)",
        lambda w: len(w) == 2 and ZETA_MIN < w[0] < w[1] < ZETA_MAX)),
    "n_zeta": Field(60, int, (f"from 1 to MAX_N_ZETA = {MAX_N_ZETA}",
                              lambda n: 1 <= n <= MAX_N_ZETA)),
    "t_values": Field((60.0, 120.0, 240.0), tuple, (
        "a nonempty, strictly increasing list, all >= 2",
        lambda t: len(t) > 0 and t[0] >= 2 and all(a < b for a, b in zip(t, t[1:])))),
    "solitons": {"mode": Field("none", str, ("none or detect",
                                             lambda mode: mode in ("none", "detect")))},
    "pde": {  # evolve's grid, step and filter
        "L": Field(760.0, float, _POSITIVE),
        "n": Field(8193, int, _GRID_SIZE),
        "dt": Field(0.1, float, _POSITIVE),
        "cutoff": Field(0.9, float, ("in (0, 1)", lambda c: 0 < c < 1)),
    },
}


#: the most PDE steps that a config may ask of evolve, to its last t: far above
#: any documented run (perfbench's long_time, t = 480 at pde.dt = 0.1, takes 4800)
MAX_STEPS = 1_000_000


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
    for item in items:
        if not (item is None and nullable or isinstance(item, list) and len(item) == 2
                and all(map(is_number, item))):
            raise ConfigError(f"{name} entry {item!r} is not a [re, im] pair of finite numbers")
    return [None if item is None else complex(*item) for item in items]


def _value(name: str, val, field: Field):
    """The config's ``val`` of the field ``name`` as its kind, checked by its check;
    ConfigError naming the field otherwise.  Numbers follow is_number, and a count
    is equal to its int(): 56 and 56.0, not 2.9."""
    kind, what = field.kind, _KINDS[field.kind]
    if kind is str:
        ok = isinstance(val, str)
    else:
        vals = val if kind is tuple else [val]
        ok = isinstance(vals, (list, tuple)) and all(
            is_number(v) and (kind is not int or v == int(v)) for v in vals)
    if ok:
        out = tuple(map(float, val)) if kind is tuple else kind(val)
        what, test = field.check or (what, None)
        if test is None or test(out):
            return out
    raise ConfigError(f"{name} must be {what}, not {name.split('.')[-1]} = {val!r}")


def _resolve(raw, spec: dict, prefix: str = "") -> dict:
    """The block ``raw`` of a config, walked once against its ``spec``: it must be
    an object, each field is taken from it (or its default, if it has one) by
    _value, a block by this walk, and a name that ``spec`` lacks is an error."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1]} must be an object: {raw!r}")
    out = {}
    for key, field in spec.items():
        if isinstance(field, dict):
            out[key] = _resolve(raw.get(key, {}), field, f"{prefix}{key}.")
        elif key in raw or field.default is not None:
            out[key] = _value(prefix + key, raw.get(key, field.default), field)
    for key in raw:
        if key not in spec:
            raise ConfigError(f"unknown config field {prefix + key!r}")
    return out


def _check_form(idata: dict) -> None:
    """ConfigError naming the field unless the named form ``idata["form"]`` is one
    of initial_data.NAMED_FORMS, ``idata`` gives each parameter that its function
    requires and no other, and its u1_mode, if any, is one of U1_MODES.  The
    parameters are those of the function's signature."""
    from .initial_data import NAMED_FORMS, U1_MODES

    form = idata["form"]
    if form not in NAMED_FORMS:
        raise ConfigError(f"initial_data.form must be one of {sorted(NAMED_FORMS)} "
                          f"(or give initial_data.csv), not form = {form!r}")
    params = inspect.signature(NAMED_FORMS[form]).parameters
    for key in idata:
        if key != "form" and key not in params:
            raise ConfigError(f"initial_data.{key} does not apply to form {form!r}, "
                              f"which takes {', '.join(params)}")
    for key, param in params.items():
        if param.default is param.empty and key not in idata:
            raise ConfigError(f"initial_data.{key} is required by form {form!r}")
    if "u1_mode" in idata and idata["u1_mode"] not in U1_MODES:
        raise ConfigError(f"initial_data.u1_mode must be one of {U1_MODES}, "
                          f"not u1_mode = {idata['u1_mode']!r}")


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
        fields = _resolve(raw, SPEC)
        idata = fields["initial_data"]
        if "csv" in idata:
            extra = ([f"initial_data.{key}" for key in idata if key != "csv"]
                     + [f"pde.{key}" for key in ("L", "n") if key in raw.get("pde", {})])
            if extra:
                raise ConfigError(f"{extra[0]} does not apply to a CSV run: "
                                  "its data and its PDE grid are the CSV file's")
            idata["csv"] = str(path.parent / idata["csv"])  # an absolute path stays as it is
            if not Path(idata["csv"]).exists():
                raise ConfigError(f"initial_data.csv file not found: {idata['csv']}")
        elif "form" not in idata:
            raise ConfigError("initial_data needs either 'form' or 'csv'")
        else:
            _check_form(idata)
        dt, t_last = fields["pde"]["dt"], fields["t_values"][-1]
        try:
            for t in fields["t_values"]:
                nsteps = whole_steps(t, dt)
        except (ValueError, OverflowError) as exc:  # OverflowError: t / dt is infinite
            raise ConfigError(f"pde.dt: {exc}") from None
        if nsteps > MAX_STEPS:
            raise ConfigError(f"pde.dt = {dt!r} takes {nsteps:.7g} steps to t = {t_last!r}; "
                              f"evolve takes at most MAX_STEPS = {MAX_STEPS}")
        return cls(out_dir=Path(out_dir or "bqist_out"), **fields)

    @property
    def zetas(self) -> np.ndarray:
        """The n_zeta points of the zeta window, ends included."""
        return np.linspace(self.zeta_window[0], self.zeta_window[1], self.n_zeta)

    def build_initial_data(self, **grid):
        """The initial data: CSV data as given, a named form on ``grid`` (L, n) if given.
        load has checked the form and its parameters; ConfigError if the data's own
        checks (the grid, finite samples) reject what they give.  A named form
        loads no march code: evolve never marches."""
        if "csv" in self.initial_data:
            from . import scattering as sc  # load_csv by the name perfbench's tracer wraps

            return sc.load_csv(self.initial_data["csv"])
        from .initial_data import NAMED_FORMS

        kwargs = dict(self.initial_data, **grid)
        form = kwargs.pop("form")
        try:
            # a sample that overflows fails InitialData's finite check, which names it
            with np.errstate(all="ignore"):
                return NAMED_FORMS[form](**kwargs)
        except ValueError as exc:
            raise ConfigError(f"bad parameters for form {form!r}: {exc}") from exc

    def build_pde_data(self):
        """The initial data on the periodic grid of the evolve stage: a named form
        re-sampled with pde.L and pde.n, CSV data as given.  ConfigError if the
        zeta window leaves that grid by the last t (pde.compare's rule)."""
        data = self.build_initial_data(L=self.pde["L"], n=self.pde["n"])
        reach = self.zetas[-1] * self.t_values[-1]
        if not reach < data.x[-1]:
            grid, fix = ((f"the CSV grid, which ends at x = {data.x[-1]:g}", "widen the CSV grid")
                         if "csv" in self.initial_data else
                         (f"pde.L = {self.pde['L']:g}", "raise pde.L"))
            raise ConfigError(f"zeta window reaches x = {reach:g} at t = {self.t_values[-1]:g}, "
                              f"beyond {grid}; {fix} or narrow zeta_window")
        return data
