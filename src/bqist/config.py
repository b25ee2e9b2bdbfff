"""Run configuration and tolerance registry for the command-line pipeline."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path


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
        """Defaults, then the BQIST_TOL_<NAME> variables, then ``overrides``."""
        for name in overrides:
            if name not in TOLERANCES:
                raise ConfigError(f"unknown tolerance override {name!r}")
        values = {}
        for name in TOLERANCES:
            val = overrides.get(name, os.environ.get(f"BQIST_TOL_{name.upper()}"))
            if val is None:
                continue
            try:
                values[name] = float(val)
            except (TypeError, ValueError):
                raise ConfigError(f"tolerance {name!r} is not a number: {val!r}") from None
            if values[name] <= 0 and name != "nu_hat_floor":
                raise ConfigError(f"tolerance {name!r} must be positive")
        return cls(**values)


#: documented tolerance names and defaults; each may be overridden by the
#: environment variable BQIST_TOL_<NAME> (upper case) or the config's "tolerances"
TOLERANCES = asdict(Tolerances())


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


def _field(raw: dict, name: str, default, kind, many: bool = False):
    """``raw[name]`` (or ``default``) converted by ``kind``, element-wise if ``many``.

    An int field takes only values equal to their int(): 56 and 56.0, not 2.9.
    """
    val = raw.get(name, default)

    def convert(v):
        out = kind(v)
        if kind is int and out != v:
            raise ValueError
        return out

    try:
        return tuple(convert(v) for v in val) if many else convert(val)
    except (TypeError, ValueError, OverflowError):
        expected = f"a list of {kind.__name__}" if many else f"one {kind.__name__}"
        raise ConfigError(f"{name} must be {expected}: {val!r}") from None


@dataclass
class RunConfig:
    initial_data: dict
    out_dir: Path
    n_per_arc: int = 56
    zeta_window: tuple = (0.62, 0.95)
    n_zeta: int = 60
    t_values: tuple = (60.0, 120.0, 240.0)
    solitons: dict = field(default_factory=lambda: {"mode": "none"})
    pde: dict = field(default_factory=dict)
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
        if "initial_data" not in raw:
            raise ConfigError("config missing required field 'initial_data'")
        idata = raw["initial_data"]
        if "csv" in idata:
            csv_path = Path(idata["csv"])
            if not csv_path.is_absolute():
                csv_path = path.parent / csv_path
            if not csv_path.exists():
                raise ConfigError(f"initial_data.csv file not found: {csv_path}")
            idata = dict(idata, csv=str(csv_path))
        elif "form" not in idata:
            raise ConfigError("initial_data needs either 'form' or 'csv'")
        window = _field(raw, "zeta_window", cls.zeta_window, float, many=True)
        lo_edge = 1.0 / 3.0**0.5
        if len(window) != 2 or not (lo_edge < window[0] < window[1] < 1.0):
            raise ConfigError(f"zeta_window must be two increasing values inside "
                              f"(1/sqrt(3), 1): {window}")
        t_values = _field(raw, "t_values", cls.t_values, float, many=True)
        if not t_values or any(t < 2 for t in t_values):
            raise ConfigError("t_values must be a nonempty list, all >= 2")
        sol = raw.get("solitons", {"mode": "none"})
        if sol.get("mode") not in ("none", "detect", "explicit"):
            raise ConfigError("solitons.mode must be none|detect|explicit")
        n_per_arc = _field(raw, "n_per_arc", cls.n_per_arc, int)
        if n_per_arc < 8:
            raise ConfigError("n_per_arc must be at least 8")
        n_zeta = _field(raw, "n_zeta", cls.n_zeta, int)
        if n_zeta < 1:
            raise ConfigError("n_zeta must be at least 1")
        tol = Tolerances.resolve(raw.get("tolerances", {}))
        out = Path(out_dir) if out_dir else Path(raw.get("out_dir", "bqist_out"))
        return cls(initial_data=idata, out_dir=out, n_per_arc=n_per_arc,
                   zeta_window=window, n_zeta=n_zeta,
                   t_values=t_values, solitons=sol, pde=raw.get("pde", {}), tol=tol)

    def build_initial_data(self):
        from . import scattering as sc

        idata = self.initial_data
        if "csv" in idata:
            path = idata["csv"]
            try:
                return sc.load_csv(path)
            except KeyError as exc:
                raise ConfigError(f"initial_data.csv {path} has no column {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"bad initial_data.csv {path}: {exc}") from exc
        form = idata["form"]
        if form not in sc.NAMED_FORMS:
            raise ConfigError(f"unknown initial-data form {form!r}; "
                              f"choose from {sorted(sc.NAMED_FORMS)} or give csv")
        kwargs = {k: v for k, v in idata.items() if k != "form"}
        try:
            return sc.NAMED_FORMS[form](**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for form {form!r}: {exc}") from exc
