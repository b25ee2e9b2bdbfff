"""The reflection data r1, r2 on the unit circle: the table that ``scatter``
samples and ``asym`` interpolates, kept apart from the marches that make it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .util import ChebPanel

EXCLUSION = 2e-3  # sample keep-out radius around the sixth roots of unity
ARC_EDGES = np.pi * np.arange(7) / 3.0  # kappa angles 0, 60, ..., 360 degrees


def _arc_weight(theta, a_idx):
    """(k - kappa_lo)(k - kappa_hi) for the arc's two endpoint roots of unity.

    Multiplying the scattering entries by this factor removes their simple
    poles at the arc endpoints, so the weighted entries interpolate spectrally
    (the nearest remaining singularity is a whole arc away).
    """
    k = np.exp(1j * np.asarray(theta, dtype=float))
    klo = np.exp(1j * ARC_EDGES[a_idx])
    khi = np.exp(1j * ARC_EDGES[a_idx + 1])
    return (k - klo) * (k - khi)


@dataclass
class ReflectionData:
    """Samples of (r1, r2, s11, sA11) at the angles ``theta`` = nodes(n_per_arc) on
    the six kappa-delimited arcs: flat arrays of 6 n_per_arc entries, arc 0 first.

    Interpolation runs through the weighted entries w*s12 = w*r1*s11 and
    w*s11 (likewise for r2), which are analytic across each closed arc; the
    ratio restores r1, r2 including their genuine poles (the r2 poles at
    +-omega^2 and the blow-up scale near +-1 set by the nearby s11 zero).
    The fits are built on first evaluation.
    """

    r1: np.ndarray
    r2: np.ndarray
    s11: np.ndarray
    sA11: np.ndarray

    BRIDGE_HALF = 0.30   # half-width of the kappa-centered refit windows
    BRIDGE_USE = 0.10    # dispatch to a bridge fit within this distance of kappa
    #: the arcs' sampled intervals, EXCLUSION in from the roots at either end
    ARCS = tuple((ARC_EDGES[a] + EXCLUSION, ARC_EDGES[a + 1] - EXCLUSION) for a in range(6))

    @classmethod
    def nodes(cls, n_per_arc: int) -> np.ndarray:
        """The sample angles: n_per_arc Chebyshev nodes on each of cls.ARCS in turn."""
        return np.concatenate([ChebPanel.nodes(lo, hi, n_per_arc) for lo, hi in cls.ARCS])

    @property
    def n_per_arc(self) -> int:
        return len(self.r1) // 6

    @cached_property
    def theta(self) -> np.ndarray:
        return self.nodes(self.n_per_arc)

    @cached_property
    def _panels(self):
        """Twelve ChebPanels per weighted entry: the six arc fits on theta,
        then the six kappa-centered least-squares bridges on the angle from
        their root, which span the node exclusion gaps, so that evaluation
        near a kappa is interpolation (nodes on both sides), not
        extrapolation of an arc fit beyond its domain."""
        panels = {"n1": [], "d1": [], "n2": [], "d2": []}
        n = self.n_per_arc
        for a, (lo, hi) in enumerate(self.ARCS):
            arc = slice(a * n, (a + 1) * n)
            w = _arc_weight(self.theta[arc], a)
            panels["n1"].append(ChebPanel.fit(lo, hi, w * self.r1[arc] * self.s11[arc]))
            panels["d1"].append(ChebPanel.fit(lo, hi, w * self.s11[arc]))
            panels["n2"].append(ChebPanel.fit(lo, hi, w * self.r2[arc] * self.sA11[arc]))
            panels["d2"].append(ChebPanel.fit(lo, hi, w * self.sA11[arc]))
        vals = {"n1": self.r1 * self.s11, "d1": self.s11,
                "n2": self.r2 * self.sA11, "d2": self.sA11}
        h = self.BRIDGE_HALF
        for kap in ARC_EDGES[:6]:
            dth = (self.theta - kap + np.pi) % (2 * np.pi) - np.pi
            sel = np.abs(dth) <= h
            order = np.argsort(dth[sel])
            ths = dth[sel][order]
            w = np.exp(1j * (kap + ths)) - np.exp(1j * kap)
            cnt = np.count_nonzero(sel)
            deg = min(max(8, int(0.55 * cnt)), cnt - 1)  # no more coefficients than nodes
            for key, v in vals.items():
                coeffs = np.polynomial.chebyshev.chebfit(ths / h, v[sel][order] * w, deg)
                # ChebPanel's map (2x - (-h + h)) / (h - -h) is x / h exactly
                panels[key].append(ChebPanel(-h, h, coeffs))
        return panels

    def _eval_weighted(self, key, th):
        """Weighted entry at angles th in [0, 2 pi): bridge 6 + j on the angle
        from kappa_j within BRIDGE_USE of it, else the arc fit on theta.

        The weight differs between the two, but numerator and denominator of
        any reflection ratio take the same panel at the same angle, so the
        weights cancel in _ratio.
        """
        dk = (th[:, None] - ARC_EDGES[None, :6] + np.pi) % (2 * np.pi) - np.pi
        jmin = np.argmin(np.abs(dk), axis=1)
        dmin = dk[np.arange(len(th)), jmin]
        bridge = np.abs(dmin) <= self.BRIDGE_USE
        panel = np.where(bridge, 6 + jmin, np.minimum((th / (np.pi / 3)).astype(int), 5))
        x = np.where(bridge, dmin, th)
        out = np.empty(th.shape, dtype=complex)
        for p in np.unique(panel):
            sel = panel == p
            out[sel] = self._panels[key][p](x[sel])
        return out

    def _ratio(self, theta, num, den):
        """num / den at the angles theta: a scalar for a scalar, an array of
        theta's length for a 1-d array (length 1 included)."""
        theta = np.asarray(theta, dtype=float)
        th = np.mod(np.atleast_1d(theta), 2 * np.pi)
        out = self._eval_weighted(num, th) / self._eval_weighted(den, th)
        return out[0] if theta.ndim == 0 else out

    def r1_at(self, theta):
        return self._ratio(theta, "n1", "d1")

    def r2_at(self, theta):
        return self._ratio(theta, "n2", "d2")

    def circle_identity_residual(self) -> float:
        """max |f |s11|^2 - 1| over the nodes, f = 1 + r1 r2(theta) + r1 r2(2 pi/3 - theta):
        the partners of arc 0, ..., 5 are arc 1, 0, 5, 4, 3, 2's nodes, reversed."""
        rr = (self.r1 * self.r2).reshape(6, -1)
        f = 1 + rr + rr[[1, 0, 5, 4, 3, 2], ::-1]
        return float(np.max(np.abs(f.ravel() * np.abs(self.s11) ** 2 - 1)))
