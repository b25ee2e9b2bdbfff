"""Run one ``bqist`` CLI stage with spans around the calls into each layer.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/trace_stage.py SPANS.json scatter --config run.json --out outdir

The arguments after SPANS.json are passed unchanged to ``bqist.cli.main``.
Nothing inside ``src/`` changes: each wrapper replaces the attribute that the
caller actually looks up at call time, e.g. ``cauchy.panel_quad`` (cauchy
imports it by name from util, so wrapping ``util.panel_quad`` would see
nothing) and ``scattering.march_volterra`` (reached through scattering's own
module globals).  ``spectral``, ``gammafn``, ``util`` and ``config`` cost
microseconds per call and are left inside their callers' self time.

Spans are kept in memory as ``[name, start, end, parent, counts]`` and written
to SPANS.json when the stage ends.  The process exits with the stage's own
exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


class Tracer:
    """In-memory span recorder; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def traced(self, fn, name, count=None):
        """Wrap ``fn``; ``count(*args, **kwargs)`` gives the span's work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4]["failed"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4].update(count(*args, **kwargs))
            return result

        return wrapper

    def patch(self, owner, attr, name, count=None):
        setattr(owner, attr, self.traced(getattr(owner, attr), name, count))


def _march_counts(data, k, which="X", keep_trajectory=False, cols=None):
    nk = np.atleast_1d(np.asarray(k)).shape[0]
    ncols = 3 if cols is None else len(cols)
    return {"batch": nk, "k_steps": nk * ((len(data.x) - 1) // 2) * ncols}


def _points(data, k):
    return {"points": int(np.size(k))}


def _panels(fun, panels, n=16):
    return {"panels": len(panels)}


def _steps(data, T, dt=0.1, *args, **kwargs):
    return {"steps": int(round(abs(T) / dt))}


def _csv_bytes(path, header, rows):
    return {"bytes": os.path.getsize(path)}


def install(tracer: Tracer):
    """Wrap the public entry points of every timed layer."""
    from bqist import asymptotics, cauchy, cli, pde, scattering

    sc = scattering
    tracer.patch(sc, "march_volterra", "scattering.march_volterra", _march_counts)
    tracer.patch(sc, "s11_values", "scattering.s11_values", _points)
    for attr in ("reflection_coefficients", "assumption_validators",
                 "find_s11_zeros", "residue_constants"):
        tracer.patch(sc, attr, f"scattering.{attr}")
    # named forms are looked up in the NAMED_FORMS table, csv data via load_csv
    for form, fn in list(sc.NAMED_FORMS.items()):
        sc.NAMED_FORMS[form] = tracer.traced(fn, "scattering.initial_data")
    tracer.patch(sc, "load_csv", "scattering.initial_data")

    tracer.patch(cauchy.CircleFunctions, "__init__", "cauchy.CircleFunctions")
    tracer.patch(cauchy, "panel_quad", "cauchy.panel_quad", _panels)
    for attr in ("delta", "chi", "nu_bundle"):
        tracer.patch(cauchy, attr, f"cauchy.{attr}")

    for attr in ("build_ingredients", "script_D", "q_values", "u_asym"):
        tracer.patch(asymptotics, attr, f"asymptotics.{attr}")

    tracer.patch(pde, "evolve", "pde.evolve", _steps)
    tracer.patch(pde, "compare", "pde.compare")

    tracer.patch(cli, "_write_csv", "cli.write_csv", _csv_bytes)
    tracer.patch(cli, "load_reflection", "cli.load_reflection")
    for stage in ("scatter", "asym", "evolve", "compare"):
        tracer.patch(cli, f"cmd_{stage}", f"cli.cmd_{stage}")
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    try:
        rc = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
