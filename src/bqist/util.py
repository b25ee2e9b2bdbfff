"""Shared numerics: Chebyshev panel interpolants and graded Gauss-Legendre panels."""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb


class ChebPanel:
    """Chebyshev interpolant of a smooth function on [a, b].

    Built from values at the Chebyshev points of the first kind mapped to
    [a, b].  Evaluation slightly outside [a, b] is permitted (analytic
    extension); accuracy degrades gracefully for small overhangs.
    """

    def __init__(self, a: float, b: float, coeffs: np.ndarray):
        self.a = float(a)
        self.b = float(b)
        self.coeffs = np.asarray(coeffs)

    @classmethod
    def nodes(cls, a: float, b: float, n: int) -> np.ndarray:
        t = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))[::-1]
        return 0.5 * (a + b) + 0.5 * (b - a) * t

    @classmethod
    def fit(cls, a: float, b: float, values: np.ndarray) -> "ChebPanel":
        values = np.asarray(values)
        n = len(values)
        theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
        # discrete cosine transform of the values at descending first-kind nodes
        v = values[::-1]
        coeffs = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ v)
        coeffs[0] *= 0.5
        return cls(a, b, coeffs)

    def _map(self, x):
        return (2.0 * np.asarray(x, dtype=float) - (self.a + self.b)) / (self.b - self.a)

    def __call__(self, x):
        return _cheb.chebval(self._map(x), self.coeffs)

    def derivative(self) -> "ChebPanel":
        dc = _cheb.chebder(self.coeffs) * (2.0 / (self.b - self.a))
        return ChebPanel(self.a, self.b, dc)


@cache
def gauss_legendre(n: int):
    """Cached nodes/weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def graded_panels(a: float, b: float, singular_ends=(False, False), base: int = 8,
                  min_panel: float = 1e-9) -> list[tuple[float, float]]:
    """Split [a, b] into panels, geometrically graded toward singular endpoints.

    With no singular ends, returns ``base`` equal panels.  A graded end gets
    panels halving toward it, the last one between ``min_panel`` and
    ``2 min_panel`` long (the truncated endpoint sliver contributes
    O(min_panel log min_panel) for a log-integrable singularity, and smaller
    scales drown in roundoff of the chord k - s anyway).
    """
    if b <= a:
        raise ValueError("graded_panels: empty interval")
    left, right = singular_ends
    length = b - a
    if left and right:
        mid = 0.5 * (a + b)
        return (graded_panels(a, mid, (True, False), base, min_panel)
                + graded_panels(mid, b, (False, True), base, min_panel))
    levels = max(1, int(np.log(length / min_panel) / np.log(2.0)))
    if not left and not right:
        edges = list(np.linspace(a, b, base + 1))
    elif left:
        edges = [a] + [a + length * 0.5**j for j in range(levels, 0, -1)] + [b]
    else:
        edges = [a] + [b - length * 0.5**j for j in range(1, levels + 1)] + [b]
    # cap panel length so the smooth far end is still resolved
    cap = length / base
    refined: list[float] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        refined.append(lo)
        m = int(np.ceil((hi - lo) / cap))
        if m > 1:
            refined.extend(np.linspace(lo, hi, m + 1)[1:-1])
    refined.append(b)
    return list(zip(refined[:-1], refined[1:]))


def refine_near(panels: list[tuple[float, float]], point: float,
                min_size: float = 1e-9) -> list[tuple[float, float]]:
    """Bisect panels until each is shorter than its distance to ``point``.

    Used when a Cauchy kernel's evaluation point projects near the contour.
    """
    out: list[tuple[float, float]] = []
    stack = list(panels)
    while stack:
        lo, hi = stack.pop()
        mid = 0.5 * (lo + hi)
        dist = max(abs(mid - point) - 0.5 * (hi - lo), 0.0)
        if hi - lo <= max(0.5 * dist, min_size):
            out.append((lo, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(out)


def panel_quad(fun, panels, n: int = 16):
    """Composite Gauss-Legendre quadrature of ``fun`` over the panel list.

    ``fun`` is called once, on the nodes of all panels in panel order, and
    returns values of shape (..., nodes); the result has shape (...).
    """
    xg, wg = gauss_legendre(n)
    lo, hi = np.asarray(panels, dtype=float).reshape(-1, 2).T
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * xg
    vals = fun(x.ravel())
    vals = vals.reshape(vals.shape[:-1] + x.shape)
    return np.sum(half * (vals @ wg), axis=-1)

