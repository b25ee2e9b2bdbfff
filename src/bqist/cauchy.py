"""Cauchy integrals on unit-circle arcs: the delta factors, log-kernel chi
integrals, and the nu exponents.

Branch conventions for the two log families (s = e^{i theta_s}, theta_s in
[pi/2, 2 pi/3]):

* ln_s(k - s) has its cut along the circle arc from i to s plus the ray
  (i, i*inf).  On the unit circle off the cut, its argument is
  (arg_i(k) + theta_s + pi) / 2 with arg_i(k) in (pi/2, 5 pi/2); off the
  circle it is Arg(k - s) + 2 pi, except Arg(k - s) itself where |k| > 1,
  Re k < 0 and Im k > Im s.

* tilde-ln_s(k - s) has its cut along the circle arc from s to -1 plus the
  ray (-inf, 0).  On the circle, its argument is (phi_k + theta_s - pi) / 2
  with position angle phi_k in (-pi, theta_s); off the circle it is
  Arg(k - s), except Arg(k - s) + 2 pi where |k| > 1, Re k < 0 and
  0 < Im k < Im s.

Both off-circle rules are the continuation from k = 1 along cut-avoiding
paths, in closed form.

The densities ln f and ln f(omega^2 .) are evaluated through the smooth
cofactor representation ln f = ln c + 2 ln(2 sin((2 pi/3 - theta)/2)) near the
double zero at omega, where the raw combination loses all relative accuracy.

On the unit circle f = 1 + r1 r2(theta) + r1 r2(2 pi/3 - theta) is 1/|s11|^2,
that is ln f = -2 ln|s11|.  PAPER.md holds only the paper's abstract, so this
identity is stated as measured, by two tests in tests/test_scattering.py:
test_f_times_abs_s11_squared_is_one_on_the_table (the stored table's node
pairs, 9.2e-13) and test_f_times_abs_s11_squared_is_one_off_the_table (direct
marches on three datasets, at most 1.2e-10, reached within 1.5e-3 of a sixth
root of unity, where |s11|^2 magnifies the cancellation in f).
_LayerCofactor still builds ln f from f_raw: -2 ln|s11| from the weighted s11
fit wins near omega but loses inside the arc (2.2e-11 against 1.3e-14 at
u = 1e-2 on the README data), so it waits for a reflection interpolant that
resolves s11 to about 1e-13 on the arc's last 0.3 rad.

The chi integrals are integrated by parts into the Cauchy integral of their
density, the same bounded integral as delta's, plus branch logs at the arc
ends; no density is ever differentiated.

Every arc integral goes through one panel rule (_arc_panels) and one
quadrature (_cauchy_integral), on arc j as SectorArcs.arc(j) gives it for
delta_j and chi_j; SectorArcs.image gives the saddle images at its ends.
delta takes an array of points: their panels are shared, the density is
evaluated once, and the kernel is a (points x nodes) product.  delta is not
evaluated within BOUNDARY_TOL of its arc; its boundary values there are
limits from either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NumericalError
from .reflection import ReflectionData
from .spectral import OMEGA, SaddleSet, on_unit_circle, saddle_points
from .util import ChebPanel, graded_panels, panel_quad, refine_near

TWO_THIRDS_PI = 2 * np.pi / 3
ARC_LO = np.pi / 2

BOUNDARY_TOL = 1e-6


def check_positive(vals, label: str, var: str, at) -> None:
    """NumericalError unless ``vals``, the log argument ``label`` at ``var`` = ``at``,
    are positive: Re > 0 at each and max |Im| at most 1e-6 max(1, max Re); a NaN fails."""
    re = np.real(vals)
    if not np.all(re > 0):
        raise NumericalError(f"{label} is nonpositive near {var} = {at[np.argmin(re)]:.6g}")
    im = np.max(np.abs(np.imag(vals)))
    if not im <= 1e-6 * max(1.0, np.max(re)):
        raise NumericalError(f"{label} has imaginary residual {im:.2e}")


# ---------------------------------------------------------------------------
# circle functions built from reflection data
# ---------------------------------------------------------------------------


class _LayerCofactor:
    """ln f at distance u from a double zero of f, through the smooth cofactor
    c(u) = f/(2 sin(u/2))^2.

    f vanishes to second order but with a boundary layer (width set by the
    nearby zero of s11, i.e. by the data amplitude), so ln c is fitted as a
    Chebyshev series in tau = ln u on [u_min, u_max].  Below u_min (where the
    raw combination 1 + r1 r2 + ... loses all relative accuracy) the fit is
    continued by a cubic in u, consistent with the analyticity of c at u = 0.
    """

    U_MIN = 1.5e-4
    U_MAX = 0.56
    N_FIT = 80  # Chebyshev nodes in tau

    def __init__(self, f_at_distance, label: str):
        u = np.exp(ChebPanel.nodes(np.log(self.U_MIN), np.log(self.U_MAX), self.N_FIT))
        f = f_at_distance(u)
        check_positive(f, label, "u", u)
        lnc = np.log(np.real(f) / (2 * np.sin(0.5 * u)) ** 2)
        self.fit = ChebPanel.fit(np.log(self.U_MIN), np.log(self.U_MAX), lnc)
        # continuation below U_MIN: c is analytic at u = 0 when f really has
        # its double zero (cubic in u), but degenerates to f(omega)/u^2 when
        # the data's reflection is too small to produce one (then f itself is
        # the analytic object); the floor log-slope discriminates
        us = self.U_MIN * np.array([1.0, 1.5, 2.25, 3.375])
        vals = np.real(self.fit(np.log(us)))
        slope = float(np.real(self.fit.derivative()(np.log(self.U_MIN))))
        self.quadratic_zero = slope > -1.0
        if self.quadratic_zero:
            self.poly = np.polynomial.polynomial.Polynomial.fit(us, vals, 3)
        else:
            fvals = np.exp(vals) * (2 * np.sin(0.5 * us)) ** 2
            self.poly = np.polynomial.polynomial.Polynomial.fit(us, fvals, 3)

    def ln_f(self, u):
        """ln c(u) + 2 ln(2 sin(u/2)) for u > 0."""
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        small = u < self.U_MIN
        if np.any(~small):
            out[~small] = np.real(self.fit(np.log(u[~small])))
        if np.any(small):
            if self.quadratic_zero:
                out[small] = np.real(self.poly(u[small]))
            else:
                out[small] = (np.log(np.real(self.poly(u[small])))
                              - 2 * np.log(2 * np.sin(0.5 * u[small])))
        return out + 2 * np.log(2 * np.sin(0.5 * u))


class CircleFunctions:
    """Interpolants of the arc densities derived from (r1, r2).

    g1   = ln(1 + r1 r2)  on [pi/2, 2 pi/3]
    lnF  = ln f            on [pi/2, 2 pi/3)  (layer cofactor at omega)
    lnF2 = ln f(omega^2 .) on [pi/2, 2 pi/3)  (layer cofactor at 1, lower side)
    """

    N_FIT = 96  # Chebyshev nodes of the g1 fit

    def __init__(self, refl: ReflectionData):
        self.refl = refl
        self._fit()

    # -- raw products ------------------------------------------------------

    def r1r2(self, theta):
        return self.refl.r1_at(theta) * self.refl.r2_at(theta)

    def f_raw(self, theta):
        """f(e^{i theta}) from the defining combination (cancellation-limited)."""
        return 1.0 + self.r1r2(theta) + self.r1r2(TWO_THIRDS_PI - theta)

    # -- fits ----------------------------------------------------------------

    def _fit(self):
        lo, hi = ARC_LO - 0.03, TWO_THIRDS_PI
        th = ChebPanel.nodes(lo, hi, self.N_FIT)
        one_p = 1.0 + self.r1r2(th)
        check_positive(one_p, "1 + r1 r2", "theta", th)
        self.g1 = ChebPanel.fit(lo, hi, np.log(one_p.real))
        # distance-from-zero profiles of f at omega (from below) and 1 (from below)
        self.layer_omega = _LayerCofactor(lambda u: self.f_raw(TWO_THIRDS_PI - u), "f(2pi/3 - u)")
        self.layer_one = _LayerCofactor(lambda u: self.f_raw(-u), "f(-u)")

    # -- density evaluations -------------------------------------------------

    def ln_f(self, theta):
        return self.layer_omega.ln_f(TWO_THIRDS_PI - np.asarray(theta, dtype=float))

    def ln_f2(self, theta):
        return self.layer_one.ln_f(TWO_THIRDS_PI - np.asarray(theta, dtype=float))

    def density(self, name: str):
        return {"g1": self.g1, "lnF": self.ln_f, "lnF2": self.ln_f2}[name]


# ---------------------------------------------------------------------------
# branch-resolved logarithms
# ---------------------------------------------------------------------------


def _arg_i(phi: float) -> float:
    """Map a position angle into (pi/2, 5 pi/2]."""
    return phi if phi > np.pi / 2 else phi + 2 * np.pi


def ln_branch(k: complex, s: complex, tilde: bool = False) -> complex:
    """ln_s(k - s) or tilde-ln_s(k - s) per the documented cuts."""
    k = complex(k)
    s = complex(s)
    theta_s = float(np.angle(s))
    mag = np.log(abs(k - s))
    phi = float(np.angle(k))
    if on_unit_circle(k):
        if not tilde:
            # off the cut arc [pi/2, theta_s]
            if ARC_LO - 1e-14 <= phi <= theta_s + 1e-14:
                raise NumericalError("ln_branch: k on the cut of ln_s")
            return mag + 0.5j * (_arg_i(phi) + theta_s + np.pi)
        if not (-np.pi < phi < theta_s):
            raise NumericalError("ln_branch: k on the cut of tilde-ln_s")
        return mag + 0.5j * (phi + theta_s - np.pi)
    # the principal Arg(k - s) jumps on {Im k = Im s, Re k < Re s}, which lies
    # in {|k| > 1, Re k < 0}; the region rule moves that jump onto the cut
    far_left = abs(k) > 1.0 and k.real < 0
    if tilde:
        turns = far_left and 0 < k.imag < s.imag
    else:
        turns = not (far_left and k.imag > s.imag)
    return mag + 1j * (np.angle(k - s) + 2 * np.pi * turns)


# ---------------------------------------------------------------------------
# arcs per zeta
# ---------------------------------------------------------------------------


_ARC_SPEC = {
    # j: (arc, density, sign of the (1/2 pi i) integral), shared by delta_j and chi_j
    1: ("lo", "g1", -1.0),
    2: ("mid", "g1", +1.0),
    3: ("mid", "lnF", +1.0),
    4: ("hi", "lnF", +1.0),
    5: ("hi", "lnF2", +1.0),
}


@dataclass(frozen=True)
class SectorArcs:
    """Saddle images at a given zeta and their arguments, the integration arcs' ends."""

    zeta: float
    saddles: SaddleSet
    wk4: complex   # omega k4
    w2k2: complex  # omega^2 k2
    a4: float  # arg(omega k4) in (pi/2, 2 pi/3)
    a2: float  # arg(omega^2 k2) in (a4, 2 pi/3)

    @classmethod
    def from_zeta(cls, zeta: float) -> "SectorArcs":
        sad = saddle_points(zeta)
        wk4, w2k2 = OMEGA * sad.k4, OMEGA**2 * sad.k2
        a4, a2 = float(np.angle(wk4)), float(np.angle(w2k2))
        assert ARC_LO < a4 < a2 < TWO_THIRDS_PI, (a4, a2)
        return cls(zeta=zeta, saddles=sad, wk4=wk4, w2k2=w2k2, a4=a4, a2=a2)

    def arc(self, j: int) -> tuple[float, float, str, float]:
        """(lo, hi, density name, sign) of arc j, the arc of delta_j and chi_j."""
        name, density, sign = _ARC_SPEC[j]
        ends = {"lo": (ARC_LO, self.a4), "mid": (self.a4, self.a2), "hi": (self.a2, TWO_THIRDS_PI)}
        return (*ends[name], density, sign)

    def image(self, term: int) -> tuple[complex, float]:
        """(saddle image, its argument) of oscillation term 1 (omega k4) or 2 (omega^2 k2)."""
        return {1: (self.wk4, self.a4), 2: (self.w2k2, self.a2)}[term]


def _arc_distance(k: complex, lo: float, hi: float) -> float:
    """Distance from k to the arc {e^{i theta}, theta in [lo, hi]}."""
    phi = float(np.angle(k))
    for cand in (phi, phi + 2 * np.pi, phi - 2 * np.pi):
        if lo <= cand <= hi:
            return abs(abs(k) - 1.0)
    d1 = abs(k - np.exp(1j * lo))
    d2 = abs(k - np.exp(1j * hi))
    return min(d1, d2)


def _arc_panels(lo, hi, ks):
    """Panels on [lo, hi] for Cauchy integrals at the points ks: graded toward
    omega when hi is omega's angle, where ln f diverges, and refined near the
    projection of every k within 0.3 rad of the arc."""
    panels = graded_panels(lo, hi, (False, hi == TWO_THIRDS_PI), min_panel=1e-11)
    for k in ks:
        phi0 = float(np.angle(k))
        for cand in (phi0, phi0 + 2 * np.pi, phi0 - 2 * np.pi):
            if lo - 0.3 <= cand <= hi + 0.3:
                gap = max(abs(abs(k) - 1.0), 1e-8)
                panels = refine_near(panels, cand, min_size=max(min(1e-5, gap / 4), 1e-8))
    return panels


def _cauchy_integral(dens, k, panels, c=0.0):
    """int (g(theta) - c) i s/(s - k) dtheta over the panels, s = e^{i theta},
    for each point of k (any shape); the density is evaluated once.

    With c = g at k (an arc end) the subtraction removes the kernel's pole.
    """
    k = np.asarray(k)[..., None]

    def integrand(th):
        s = np.exp(1j * th)
        return (dens(th) - c) * 1j * s / (s - k)

    return panel_quad(integrand, panels)


def delta(j: int, arcs: SectorArcs, cf: CircleFunctions, k):
    """delta_j(zeta, k) at one point or an array of points, by one quadrature of
    its defining arc integral on panels shared by all the points."""
    lo, hi, dens_name, sign = arcs.arc(j)
    k = np.asarray(k, dtype=complex)
    for kk in k.ravel():
        if _arc_distance(kk, lo, hi) < BOUNDARY_TOL:
            raise NumericalError(f"delta_{j}: k={kk} within {BOUNDARY_TOL:.0e} of the arc")
    val = _cauchy_integral(cf.density(dens_name), k, _arc_panels(lo, hi, k.ravel()))
    return np.exp(sign * val / (2j * np.pi))


# ---------------------------------------------------------------------------
# chi integrals
# ---------------------------------------------------------------------------

def chi(j: int, arcs: SectorArcs, cf: CircleFunctions, k, tilde: bool = False) -> complex:
    """chi_j(zeta, k) = sign/(2 pi i) int ln_s(k - s) dg over arc j, s = e^{i theta}
    (tilde-ln_s for the tilde variant), with explicit branch bookkeeping.

    Integrated by parts, with c = g(theta_k) when k is an arc end e^{i theta_k}
    and c = 0 otherwise:

        chi_j = sign/(2 pi i) [B - int (g - c) i s/(s - k) dtheta],

    where B is (g - c) ln_s(k - s) at the upper end minus that at the lower
    end.  At omega, where ln f diverges, the end term is -c ln_omega(k - omega),
    the eps -> 0 limit of the integral cut at 2 pi/3 - eps with its divergent
    term g(2 pi/3 - eps) ln_omega(k - omega) subtracted.
    """
    lo, hi, dens_name, sign = arcs.arc(j)
    dens = cf.density(dens_name)
    k = complex(k)
    theta_k = next((t for t in (lo, hi) if abs(np.exp(1j * t) - k) < 1e-7), None)
    c = 0.0 if theta_k is None else float(dens(theta_k))
    ends = 0j
    for theta, orient in ((lo, -1.0), (hi, 1.0)):
        if theta == theta_k:
            continue
        jump = -c if theta == TWO_THIRDS_PI else float(dens(theta)) - c
        if jump:
            ends += orient * jump * ln_branch(k, np.exp(1j * theta), tilde=tilde)

    panels = _arc_panels(lo, hi, [k] if theta_k is None else [])
    return sign * (ends - _cauchy_integral(dens, k, panels, c)) / (2j * np.pi)


# ---------------------------------------------------------------------------
# nu exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuBundle:
    """Log exponents at the saddle images, plus the two hat combinations."""

    nu1: float
    nu2: float
    nu3: float
    nu4: float
    nu5: float

    @property
    def nu_hat1(self) -> float:
        return self.nu3 - self.nu1

    @property
    def nu_hat2(self) -> float:
        return self.nu2 + self.nu5 - self.nu4


def nu_bundle(arcs: SectorArcs, cf: CircleFunctions) -> NuBundle:
    """nu1..nu5 = -1/(2 pi) times g1 at a4 and a2, ln f at a4 and a2, and ln f at
    omega k2, whose position angle lies in (-pi/12, 0) (saddle_points)."""
    inv2pi = 1.0 / (2 * np.pi)
    th_wk2 = float(np.angle(OMEGA * arcs.saddles.k2))
    logs = (np.real(cf.g1(arcs.a4)), np.real(cf.g1(arcs.a2)), cf.ln_f(arcs.a4),
            cf.ln_f(arcs.a2), cf.layer_one.ln_f(-th_wk2))
    return NuBundle(*(-inv2pi * float(v) for v in logs))
