"""Direct scattering for the Boussinesq Lax operator on a truncated line.

The four Volterra solutions are marched as the equivalent linear ODE systems
(columns decouple), and the scattering matrices are read off from the terminal
values via s = e^{L ad(diag l)} X(-L).  All k-dependent work is batched.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .config import Tolerances
from .spectral import KAPPA, OMEGA, SQRT3, phase_values

DEGENERATE_TOL = 1e-8
EXCLUSION = 2e-3  # sample keep-out radius around the sixth roots of unity


class DegenerateSpectralPointError(ValueError):
    """k is too close to a sixth root of unity: P(k) is numerically singular."""


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


@dataclass
class InitialData:
    """Samples of (u0, u1) on a uniform grid [-L, L], with v0 = int_-inf^x u1.

    The grid has an even number of intervals so the RK4 marcher can use the
    odd-index points as midpoints.
    """

    x: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    du0: np.ndarray
    L: float
    h: float
    label: str = ""

    def __post_init__(self):
        n = len(self.x)
        if n % 2 == 0:
            raise ValueError("InitialData grid must have an odd number of points")
        if not np.allclose(np.diff(self.x), self.h, rtol=0, atol=1e-12 * max(1.0, self.h)):
            raise ValueError("InitialData grid must be uniform")

    @property
    def is_zero(self) -> bool:
        return not (np.any(self.u0) or np.any(self.u1))

    def mass(self) -> float:
        return float(np.trapezoid(self.u1, self.x))

    def tail_max(self) -> float:
        edge = slice(0, 8), slice(-8, None)
        vals = [np.abs(self.u0[s]).max() + np.abs(self.u1[s]).max() for s in edge]
        return float(max(vals))

    def validate(self, mass_tol: float, tail_tol: float) -> None:
        m = abs(self.mass())
        if m > mass_tol:
            raise ValueError(f"mass condition violated: |int u1 dx| = {m:.3e} > {mass_tol:.1e}")
        t = self.tail_max()
        if t > tail_tol:
            raise ValueError(f"initial data not numerically compactly supported: tail {t:.3e}")


def _grid(L: float, n: int):
    if n % 2 == 0:
        n += 1
    x = np.linspace(-L, L, n)
    return x, x[1] - x[0]


def from_arrays(x, u0, u1, label="samples") -> InitialData:
    x = np.asarray(x, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if len(x) % 2 == 0:
        x, u0, u1 = x[:-1], u0[:-1], u1[:-1]
    h = x[1] - x[0]
    v0 = np.concatenate([[0.0], np.cumsum(0.5 * (u1[1:] + u1[:-1]) * np.diff(x))])
    du0 = np.gradient(u0, x, edge_order=2)
    return InitialData(x=x, u0=u0, u1=u1, v0=v0, du0=du0, L=float(abs(x[0])), h=float(h),
                       label=label)


def zero_data(L: float = 20.0, n: int = 513) -> InitialData:
    x, h = _grid(L, n)
    z = np.zeros_like(x)
    return InitialData(x, z.copy(), z.copy(), z.copy(), z.copy(), L, h, label="zero")


def gaussian(amplitude: float, width: float, L: float = 30.0, n: int = 4097,
             u1_mode: str = "minus_du0") -> InitialData:
    """u0 = a exp(-(x/w)^2); u1 = -d/dx u0 (mass-free) or zero."""
    x, h = _grid(L, n)
    u0 = amplitude * np.exp(-((x / width) ** 2))
    du0 = u0 * (-2.0 * x / width**2)
    if u1_mode == "minus_du0":
        u1 = -du0
        v0 = -u0
    elif u1_mode == "zero":
        u1 = np.zeros_like(x)
        v0 = np.zeros_like(x)
    else:
        raise ValueError(f"unknown u1_mode {u1_mode!r}")
    return InitialData(x, u0, u1, v0, du0, L, h, label=f"gaussian(a={amplitude},w={width})")


def band_limit_mask(xi, edge: float = 0.60, sigma: float = 0.054) -> np.ndarray:
    """Spectral taper: indicator(|xi| <= edge) mollified by a Gaussian of width sigma.

    The Gaussian edges make both the stopband leakage (beyond edge + ~5 sigma)
    and the spatial tails of the filtered data (envelope e^{-sigma^2 x^2 / 2})
    drop below 1e-12 for desk-scale grids.
    """
    from math import erf

    verf = np.vectorize(erf)
    xi = np.asarray(xi, dtype=float)
    s = np.sqrt(2.0) * sigma
    return 0.5 * (verf((edge - xi) / s) + verf((edge + xi) / s))


def gaussian_bandlimited(amplitude: float, width: float, L: float = 120.0, n: int = 16385,
                         edge: float = 0.60, sigma: float = 0.054,
                         u1_mode: str = "minus_du0") -> InitialData:
    """Gaussian with its spectrum smoothly confined below the unstable band.

    Deterministic given the grid: the taper acts on the FFT of the sampled
    Gaussian and the result is transformed back.
    """
    x, h = _grid(L, n)
    # periodic FFT on [-L, L); the last sample duplicates the first up to 1e-200 tails
    xs = x[:-1]
    gs = amplitude * np.exp(-((xs / width) ** 2))
    xi = 2 * np.pi * np.fft.fftfreq(len(xs), d=h)
    mask = band_limit_mask(np.abs(xi), edge, sigma)
    ghat = np.fft.fft(gs) * mask
    u0s = np.real(np.fft.ifft(ghat))
    du0s = np.real(np.fft.ifft(1j * xi * ghat))
    u0 = np.concatenate([u0s, u0s[:1]])
    du0 = np.concatenate([du0s, du0s[:1]])
    if u1_mode == "minus_du0":
        u1 = -du0
        v0 = -u0
    elif u1_mode == "zero":
        u1 = np.zeros_like(u0)
        v0 = np.zeros_like(u0)
    else:
        raise ValueError(f"unknown u1_mode {u1_mode!r}")
    return InitialData(x, u0, u1, v0, du0, L, h,
                       label=f"gaussian_bl(a={amplitude},w={width})")


def sech2(amplitude: float, width: float, L: float = 40.0, n: int = 4097) -> InitialData:
    x, h = _grid(L, n)
    u0 = amplitude / np.cosh(x / width) ** 2
    du0 = -2.0 * u0 * np.tanh(x / width) / width
    u1 = np.zeros_like(x)
    return InitialData(x, u0, u1, u1.copy(), du0, L, h, label=f"sech2(a={amplitude},w={width})")


NAMED_FORMS = {
    "zero": zero_data,
    "gaussian": gaussian,
    "gaussian_bl": gaussian_bandlimited,
    "sech2": sech2,
}


def load_csv(path) -> InitialData:
    xs, u0s, u1s = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            xs.append(float(row["x"]))
            u0s.append(float(row["u0"]))
            u1s.append(float(row["u1"]))
    return from_arrays(np.array(xs), np.array(u0s), np.array(u1s), label=str(path))


# ---------------------------------------------------------------------------
# potential and Volterra marching
# ---------------------------------------------------------------------------


def _check_degenerate(k):
    k = np.asarray(k, dtype=complex)
    d = np.min(np.abs(k[..., None] - KAPPA), axis=-1)
    if np.any(d < DEGENERATE_TOL):
        bad = np.asarray(k)[d < DEGENERATE_TOL]
        raise DegenerateSpectralPointError(
            f"k within {DEGENERATE_TOL:.0e} of a sixth root of unity: {bad[:4]}")


def potential_frame(k):
    """k-dependent matrices (M1, M2) with U(x,k) = w31(x) M1 + w32(x) M2.

    w31 = -u0'/4 - i v0/(4 sqrt 3), w32 = -u0/2; M_j = P^-1 E_{3j} P.
    """
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    _check_degenerate(k)
    l = phase_values(k).l  # (3, nk)
    nk = k.shape[0]
    P = np.empty((nk, 3, 3), dtype=complex)
    P[:, 0, :] = 1.0
    P[:, 1, :] = l.T
    P[:, 2, :] = (l**2).T
    Pinv = np.linalg.inv(P)
    E31 = np.zeros((3, 3), dtype=complex)
    E31[2, 0] = 1.0
    E32 = np.zeros((3, 3), dtype=complex)
    E32[2, 1] = 1.0
    M1 = Pinv @ E31 @ P
    M2 = Pinv @ E32 @ P
    return M1, M2


def potential_weights(data: InitialData):
    w31 = -data.du0 / 4.0 - 1j * data.v0 / (4.0 * SQRT3)
    w32 = -data.u0 / 2.0
    return w31, w32


_WHICH = {
    "X": (+1, False, +1),   # sign of [L,.], transpose potential?, march direction (from +L)
    "XA": (-1, True, +1),
    "Y": (+1, False, -1),
    "YA": (-1, True, -1),
}


def march_volterra(data: InitialData, k, which: str = "X", keep_trajectory: bool = False,
                   cols=None):
    """March the Volterra solution `which` across the grid with batched RK4.

    Columns decouple, so ``cols`` restricts the march to a subset (avoids the
    exponential growth of unwanted columns at spectral points far from the
    unit circle).  Returns terminal matrices of shape (nk, 3, len(cols)), plus
    the trajectory at even grid indices if requested.
    """
    try:
        sign, transpose, direction = _WHICH[which]
    except KeyError:
        raise ValueError(f"unknown Volterra system {which!r}") from None
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    M1, M2 = potential_frame(k)
    if transpose:
        M1 = np.swapaxes(M1, 1, 2).copy()
        M2 = np.swapaxes(M2, 1, 2).copy()
    l = phase_values(k).l.T  # (nk, 3)
    w31, w32 = potential_weights(data)
    if transpose:
        w31 = -w31
        w32 = -w32
    n = len(data.x)
    nk = k.shape[0]
    cols = tuple(range(3)) if cols is None else tuple(cols)
    X = np.broadcast_to(np.eye(3, dtype=complex)[:, cols], (nk, 3, len(cols))).copy()
    traj = None
    if keep_trajectory:
        traj = np.empty(((n + 1) // 2, nk, 3, len(cols)), dtype=complex)

    lcol = l[:, :, None]
    lrow = l[:, None, list(cols)]

    def F(ui31, ui32, Xc):
        U = ui31 * M1 + ui32 * M2
        comm = lcol * Xc - Xc * lrow
        return sign * comm + U @ Xc

    step = -2 * data.h if direction > 0 else 2 * data.h
    idx = range(n - 1, 0, -2) if direction > 0 else range(0, n - 1, 2)
    pos = 0
    if keep_trajectory:
        traj[-1 if direction > 0 else 0] = X
    for i in idx:
        if direction > 0:
            i0, im, i1 = i, i - 1, i - 2
        else:
            i0, im, i1 = i, i + 1, i + 2
        a0 = (w31[i0], w32[i0])
        am = (w31[im], w32[im])
        a1 = (w31[i1], w32[i1])
        k1 = F(a0[0], a0[1], X)
        k2 = F(am[0], am[1], X + 0.5 * step * k1)
        k3 = F(am[0], am[1], X + 0.5 * step * k2)
        k4 = F(a1[0], a1[1], X + step * k3)
        X = X + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        pos += 1
        if keep_trajectory:
            j = ((n - 1) // 2 - pos) if direction > 0 else pos
            traj[j] = X
    if keep_trajectory:
        return X, traj
    return X


@dataclass(frozen=True)
class ScatteringMatrix:
    """s(k) and s^A(k), batched over k (leading axis)."""

    k: np.ndarray
    s: np.ndarray
    sA: np.ndarray


def scattering_matrices(data: InitialData, k) -> ScatteringMatrix:
    """Terminal-value formula: s = e^{L ad(diag l)} X(-L), similarly for s^A."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    X = march_volterra(data, k, "X")
    XA = march_volterra(data, k, "XA")
    l = phase_values(k).l.T  # (nk, 3)
    ediff = l[:, :, None] - l[:, None, :]
    s = np.exp(data.L * ediff) * X
    sA = np.exp(-data.L * ediff) * XA
    return ScatteringMatrix(k=k, s=s, sA=sA)


def s11_values(data: InitialData, k) -> np.ndarray:
    """s11 alone, from a column-1 march (stable at all admissible k)."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    X1 = march_volterra(data, k, "X", cols=(0,))
    return X1[:, 0, 0]


def r1_values(data: InitialData, k) -> np.ndarray:
    """r1 alone (valid off the unit circle wherever its two columns are tame)."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    X = march_volterra(data, k, "X", cols=(0, 1))
    l = phase_values(k).l.T
    phase12 = np.exp(data.L * (l[:, 0] - l[:, 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = phase12 * X[:, 0, 1] / X[:, 0, 0]
    return np.where(np.abs(X[:, 0, 0]) < 1e-12, np.nan + 0j, r1)


def reflection_values(data: InitialData, k):
    """(r1, r2) at the given spectral points; NaN where s11 (resp. sA11) vanishes.

    Only the first two Volterra columns enter, so the (possibly exploding)
    third column is never marched.
    """
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    X = march_volterra(data, k, "X", cols=(0, 1))
    XA = march_volterra(data, k, "XA", cols=(0, 1))
    l = phase_values(k).l.T
    phase12 = np.exp(data.L * (l[:, 0] - l[:, 1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = phase12 * X[:, 0, 1] / X[:, 0, 0]
        r2 = XA[:, 0, 1] / (phase12 * XA[:, 0, 0])
    bad1 = np.abs(X[:, 0, 0]) < 1e-12
    bad2 = np.abs(XA[:, 0, 0]) < 1e-12
    r1 = np.where(bad1, np.nan + 0j, r1)
    r2 = np.where(bad2, np.nan + 0j, r2)
    return r1, r2


# ---------------------------------------------------------------------------
# reflection data on circle arcs
# ---------------------------------------------------------------------------

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
    """Chebyshev samples of (r1, r2, s11, sA11) on the six kappa-delimited arcs.

    Interpolation runs through the weighted entries w*s12 = w*r1*s11 and
    w*s11 (likewise for r2), which are analytic across each closed arc; the
    ratio restores r1, r2 including their genuine poles (the r2 poles at
    +-omega^2 and the blow-up scale near +-1 set by the nearby s11 zero).
    """

    nodes: list      # per-arc theta arrays
    r1: list         # per-arc complex values
    r2: list
    s11: list
    sA11: list
    n_per_arc: int
    _fits: dict = field(default_factory=dict, repr=False)

    BRIDGE_HALF = 0.30   # half-width of the kappa-centered refit windows
    BRIDGE_USE = 0.10    # dispatch to a bridge fit within this distance of kappa

    def _build_interpolants(self):
        from .util import ChebPanel

        fits = {"n1": [], "d1": [], "n2": [], "d2": []}
        for a in range(6):
            th = self.nodes[a]
            lo, hi = ARC_EDGES[a] + EXCLUSION, ARC_EDGES[a + 1] - EXCLUSION
            w = _arc_weight(th, a)
            fits["n1"].append(ChebPanel.fit(lo, hi, w * self.r1[a] * self.s11[a]))
            fits["d1"].append(ChebPanel.fit(lo, hi, w * self.s11[a]))
            fits["n2"].append(ChebPanel.fit(lo, hi, w * self.r2[a] * self.sA11[a]))
            fits["d2"].append(ChebPanel.fit(lo, hi, w * self.sA11[a]))
        self._fits = fits
        # kappa-centered least-squares refits bridging the node exclusion gaps:
        # evaluation near a kappa is then interpolation (nodes on both sides),
        # not extrapolation of an arc fit beyond its domain
        allth = np.concatenate(self.nodes)
        vals = {
            "n1": np.concatenate([r * s for r, s in zip(self.r1, self.s11)]),
            "d1": np.concatenate(self.s11),
            "n2": np.concatenate([r * s for r, s in zip(self.r2, self.sA11)]),
            "d2": np.concatenate(self.sA11),
        }
        self._bridges = []
        for j in range(6):
            kap = ARC_EDGES[j]
            dth = (allth - kap + np.pi) % (2 * np.pi) - np.pi
            sel = np.abs(dth) <= self.BRIDGE_HALF
            ths = dth[sel]
            order = np.argsort(ths)
            ths = ths[order]
            kpt = np.exp(1j * (kap + ths))
            w = kpt - np.exp(1j * kap)
            deg = max(8, int(0.55 * np.count_nonzero(sel)))
            bridge = {}
            for key in fits:
                v = vals[key][sel][order] * w
                coef = np.polynomial.chebyshev.chebfit(ths / self.BRIDGE_HALF, v, deg)
                bridge[key] = coef
            self._bridges.append(bridge)

    def _arc_of(self, theta):
        th = np.mod(theta, 2 * np.pi)
        return np.minimum((th / (np.pi / 3)).astype(int), 5), th

    def _eval_weighted(self, key, th):
        """Weighted entry at angles th (arc or bridge fit by proximity to kappa).

        The weight differs between the two paths, but numerator and
        denominator of any reflection ratio take the same path at the same
        angle, so the weights cancel in _ratio.
        """
        out = np.empty(th.shape, dtype=complex)
        dk = (th[:, None] - ARC_EDGES[None, :6] + np.pi) % (2 * np.pi) - np.pi
        jmin = np.argmin(np.abs(dk), axis=1)
        dmin = np.abs(dk[np.arange(len(th)), jmin])
        use_bridge = dmin <= self.BRIDGE_USE
        idx = np.minimum((th / (np.pi / 3)).astype(int), 5)
        for a in np.unique(idx[~use_bridge]):
            sel = (~use_bridge) & (idx == a)
            out[sel] = self._fits[key][a](th[sel])
        for j in np.unique(jmin[use_bridge]):
            sel = use_bridge & (jmin == j)
            out[sel] = np.polynomial.chebyshev.chebval(
                dk[sel, j] / self.BRIDGE_HALF, self._bridges[j][key])
        return out

    def _ratio(self, theta, num, den):
        if not self._fits:
            self._build_interpolants()
        _, th = self._arc_of(np.atleast_1d(np.asarray(theta, dtype=float)))
        out = self._eval_weighted(num, th) / self._eval_weighted(den, th)
        return out if out.shape != (1,) else out[0]

    def r1_at(self, theta):
        return self._ratio(theta, "n1", "d1")

    def r2_at(self, theta):
        return self._ratio(theta, "n2", "d2")


def reflection_coefficients(data: InitialData, n_per_arc: int = 56) -> ReflectionData:
    """Sample the reflection data at Chebyshev nodes of the six arcs."""
    from .util import ChebPanel

    nodes = []
    for a_idx in range(6):
        lo, hi = ARC_EDGES[a_idx] + EXCLUSION, ARC_EDGES[a_idx + 1] - EXCLUSION
        nodes.append(ChebPanel.nodes(lo, hi, n_per_arc))
    allth = np.concatenate(nodes)
    sm = scattering_matrices(data, np.exp(1j * allth))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1all = sm.s[:, 0, 1] / sm.s[:, 0, 0]
        r2all = sm.sA[:, 0, 1] / sm.sA[:, 0, 0]
    r1l, r2l, s11l, sA11l = [], [], [], []
    for a_idx in range(6):
        sl = slice(a_idx * n_per_arc, (a_idx + 1) * n_per_arc)
        r1l.append(r1all[sl])
        r2l.append(r2all[sl])
        s11l.append(sm.s[sl, 0, 0])
        sA11l.append(sm.sA[sl, 0, 0])
    return ReflectionData(nodes=nodes, r1=r1l, r2=r2l, s11=s11l, sA11=sA11l,
                          n_per_arc=n_per_arc)


# ---------------------------------------------------------------------------
# zeros of s11 and residue constants
# ---------------------------------------------------------------------------


@dataclass
class SolitonData:
    """Zeros of s11 in the admissible region with residue-derived constants."""

    zeros: list
    c: list
    d: list  # d constants for nonreal zeros, None for real ones

    @property
    def is_empty(self) -> bool:
        return len(self.zeros) == 0


def _s11_and_slope(data, k, h=1e-6):
    """s11(k) and its central difference along a direction interior to the
    analyticity domain, from one march at [k, k + dk, k - dk]."""
    k = complex(k)
    direction = 1.0 + 0j if abs(k.imag) < 1e-12 else k / abs(k)
    dk = h * direction
    f, fp, fm = s11_values(data, np.array([k, k + dk, k - dk]))
    return complex(f), complex((fp - fm) / (2 * dk))


def ds11_dk(data: InitialData, k0: complex, h: float = 1e-6) -> complex:
    """Central difference along a direction interior to the analyticity domain."""
    return _s11_and_slope(data, k0, h)[1]


def _newton_polish(data, k0, tol=1e-11, maxit=40):
    k = complex(k0)
    for _ in range(maxit):
        f, df = _s11_and_slope(data, k)
        if abs(f) < tol:
            return k
        if df == 0:
            break
        k = k - f / df
    return k


def _real_axis_zeros(data, lo, hi, n=160, tol: Tolerances = Tolerances()):
    """Zeros of s11 on a real segment.

    s11 is not real-valued there (it carries a slowly varying phase), but its
    real and imaginary parts vanish together at admissible zeros; a complex
    Newton polish started from the secant root of each sign change of the
    real part locates them.
    """
    ks = np.linspace(lo, hi, n)
    re = s11_values(data, ks.astype(complex)).real
    out = []
    for i in np.flatnonzero((re[:-1] == 0.0) | (re[:-1] * re[1:] < 0)):
        start = ks[i]
        if re[i] != 0.0:
            start -= re[i] * (ks[i + 1] - ks[i]) / (re[i + 1] - re[i])
        kz = _newton_polish(data, start)
        if abs(s11_values(data, kz)[0]) > tol.zero_residual:
            continue  # real-part crossing without a genuine zero
        if abs(kz.imag) > 1e-6:
            raise RuntimeError(f"zero off the real segment at {kz}")
        out.append(complex(kz.real, 0.0))
    return out


def _winding_number(data, corners, n_side=96):
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        pts.append(a + (b - a) * np.linspace(0, 1, n_side, endpoint=False))
    kk = np.concatenate(pts)
    vals = s11_values(data, kk)
    if np.min(np.abs(vals)) < 1e-9:
        raise RuntimeError("zero too close to search-box boundary")
    ang = np.unwrap(np.angle(np.concatenate([vals, vals[:1]])))
    w = (ang[-1] - ang[0]) / (2 * np.pi)
    wi = int(np.round(w))
    if abs(w - wi) > 0.1:
        raise RuntimeError(f"unresolved winding number {w:.3f}")
    return wi


def _box_zeros(data, re_lo, re_hi, im_lo, im_hi, depth=0, max_depth=9):
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    w = _winding_number(data, corners)
    if w == 0:
        return []
    if w == 1 and max(re_hi - re_lo, im_hi - im_lo) < 2e-2:
        guess = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
        return [_newton_polish(data, guess)]
    if depth >= max_depth:
        raise RuntimeError("unresolved zero cluster")
    # off-center split so subdivision lines do not land on zeros (e.g. the
    # real axis, where real-segment zeros live)
    rm = re_lo + 0.5211 * (re_hi - re_lo)
    im_ = im_lo + 0.4817 * (im_hi - im_lo)
    out = []
    for box in [(re_lo, rm, im_lo, im_), (rm, re_hi, im_lo, im_),
                (re_lo, rm, im_, im_hi), (rm, re_hi, im_, im_hi)]:
        out.extend(_box_zeros(data, *box, depth=depth + 1, max_depth=max_depth))
    return out


DEFAULT_REGION = {
    "real_segments": [(1.02, 4.0), (-0.98, -0.05)],
    "boxes": [
        # right part of the regular region: |k| > 1, 0 < arg k < pi/6 (inscribed box)
        (1.05, 3.0, 0.02, 0.75),
        # left part: |k| < 1, pi < arg k < 7 pi/6 (inscribed box)
        (-0.95, -0.30, -0.45, -0.02),
    ],
}


def find_s11_zeros(data: InitialData, region: dict | None = None,
                   tol: Tolerances = Tolerances()) -> list:
    """Zeros of s11 in the admissible region (real-segment Newton + winding boxes)."""
    if data.is_zero:
        return []
    region = region or DEFAULT_REGION
    zeros: list[complex] = []
    for lo, hi in region.get("real_segments", []):
        zeros.extend(_real_axis_zeros(data, lo, hi, tol=tol))
    for re_lo, re_hi, im_lo, im_hi in region.get("boxes", []):
        zeros.extend(_box_zeros(data, re_lo, re_hi, im_lo, im_hi))
    cleaned = []
    for z in zeros:
        if abs(z.imag) < 1e-9:
            z = complex(z.real, 0.0)
        if all(abs(z - w) > 1e-6 for w in cleaned):
            resid = abs(s11_values(data, z)[0])
            if resid > tol.zero_residual:
                raise RuntimeError(f"zero candidate {z} has residual {resid:.2e}")
            cleaned.append(z)
    return cleaned


def soliton_d(k0: complex, c: complex):
    """Soliton constant d = (kbar^2 - 1) / (omega^2 (omega^2 - kbar^2)) conj(c).

    Defined at a nonreal zero k0 with residue constant c; None at a real zero.
    """
    if abs(k0.imag) < 1e-12:
        return None
    kb = np.conj(k0)
    return (kb**2 - 1) / (OMEGA**2 * (OMEGA**2 - kb**2)) * np.conj(c)


def residue_constants(data: InitialData, zeros, tol: Tolerances = Tolerances()) -> SolitonData:
    """Compact-support residue constants c = -s13/s11' (nonreal), -s12/s11' (real)."""
    data.validate(tol.mass_condition, tol.tail)
    cs, ds, kept = [], [], []
    for k0 in zeros:
        k0 = complex(k0)
        dek = ds11_dk(data, k0)
        if abs(dek) < 1e-10:
            raise RuntimeError(f"zero at {k0} is not numerically simple (|s11'|={abs(dek):.2e})")
        sm = scattering_matrices(data, np.array([k0]))
        c = -complex(sm.s[0, 0, 1 if abs(k0.imag) < 1e-12 else 2]) / dek
        if abs(c) < 1e-13:
            continue  # removable pole
        cs.append(c)
        ds.append(soliton_d(k0, c))
        kept.append(k0)
    return SolitonData(zeros=kept, c=cs, d=ds)


def nonsingularity_value(k0: complex, c: complex) -> complex:
    """i (omega^2 k0^2 - omega) c, which must avoid the negative real axis."""
    return 1j * (OMEGA**2 * k0**2 - OMEGA) * c


# ---------------------------------------------------------------------------
# assumption validators
# ---------------------------------------------------------------------------


def assumption_validators(data: InitialData, refl: ReflectionData | None = None,
                          solitons: SolitonData | None = None,
                          tol: Tolerances = Tolerances()) -> dict:
    """Report-style checks of the three standing assumptions.

    The genericity margins are heuristic (flagged as such in the report); the
    mass condition is checked first and is a hard failure.
    """
    report: dict = {"heuristic_thresholds": True}
    m = abs(data.mass())
    report["mass_condition"] = {"value": m, "ok": bool(m <= tol.mass_condition)}
    if not report["mass_condition"]["ok"]:
        report["ok"] = False
        return report

    if data.is_zero:
        report["no_high_frequency"] = {"sup_r1_segment": 0.0, "ok": True}
        report["genericity_pm1"] = {"ok": True, "probes": {}}
        report["soliton_set"] = {"ok": True, "zeros": []}
        report["ok"] = True
        return report

    # (iii) r1 on the segment (0, i)
    ys = np.linspace(0.06, 0.985, 40)
    r1seg = r1_values(data, 1j * ys)
    sup = float(np.nanmax(np.abs(r1seg)))
    report["no_high_frequency"] = {"sup_r1_segment": sup,
                                   "ok": bool(sup <= tol.r1_segment),
                                   "tol": tol.r1_segment}

    # (ii) generic behavior near k = +-1: scaled entries have finite nonzero limits
    at = [(kstar, rad) for kstar in (1.0, -1.0) for rad in (1e-2, 5e-3)]
    kprobes = np.array([kstar + rad * np.exp(1j * np.pi / 3) for kstar, rad in at])
    sm = scattering_matrices(data, kprobes)
    probes = {}
    for (kstar, rad), kprobe, s, sA in zip(at, kprobes, sm.s, sm.sA):
        dk = kprobe - kstar
        vals = {
            "(k-k*)s11": dk * s[0, 0],
            "(k-k*)s13": dk * s[0, 2],
            "s31": s[2, 0],
            "s33": s[2, 2],
            "(k-k*)sA11": dk * sA[0, 0],
            "(k-k*)sA31": dk * sA[2, 0],
            "sA13": sA[0, 2],
            "sA33": sA[2, 2],
        }
        probes[f"k={kstar}, rad={rad}"] = {kk: abs(v) for kk, v in vals.items()}
    ok2 = True
    for kstar in (1.0, -1.0):
        near, far = (probes[f"k={kstar}, rad=0.005"], probes[f"k={kstar}, rad=0.01"])
        for key in near:
            mag_n, mag_f = near[key], far[key]
            if mag_n < 1e-6 or not (0.2 < mag_n / max(mag_f, 1e-300) < 5.0):
                ok2 = False
    report["genericity_pm1"] = {"ok": bool(ok2), "probes": probes}

    # (i) soliton set location / simplicity / nonsingularity
    zeros_ok = True
    zinfo = []
    if solitons is not None:
        for k0, c in zip(solitons.zeros, solitons.c):
            inside = _in_admissible_region(k0)
            entry = {"k0": k0, "region_ok": inside}
            if abs(k0.imag) < 1e-12:
                val = nonsingularity_value(k0, c)
                nonsing = not (abs(val.imag) < 1e-10 and val.real < 0)
                entry["nonsingularity"] = nonsing
                zeros_ok &= nonsing
            zeros_ok &= inside
            zinfo.append(entry)
    report["soliton_set"] = {"ok": bool(zeros_ok), "zeros": zinfo}

    report["ok"] = bool(report["mass_condition"]["ok"]
                        and report["no_high_frequency"]["ok"]
                        and report["genericity_pm1"]["ok"]
                        and report["soliton_set"]["ok"])
    return report


def _in_admissible_region(k0: complex) -> bool:
    if abs(k0.imag) < 1e-12:
        return (-1 < k0.real < 0) or (k0.real > 1)
    ang = np.angle(k0)
    mod = abs(k0)
    # regular region: {|k|>1, 0 < arg k < pi/6} or {|k|<1, -pi < arg k < -5 pi/6}
    right = (mod > 1) and (0 < ang < np.pi / 6)
    left = (mod < 1) and (-np.pi < ang < -np.pi * 5 / 6)
    return bool(right or left)
