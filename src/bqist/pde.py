"""Desk-scale reference evolution: exact one-soliton profiles and a filtered
Fourier pseudospectral time stepper.

The equation is evolved as the first-order system u_t = w_x,
w_t = (u + u^2 + u_xx)_x.  In Fourier variables the linear part is the  2x2
matrix A(xi) = [[0, i xi], [i xi (1 - xi^2), 0]] with eigenvalues
+- i xi sqrt(1 - xi^2): oscillatory below |xi| = 1, exponentially unstable
above.  A hard spectral filter at ``cutoff`` < 1 keeps the evolution inside
the stable band; the grid Nyquist must be at least twice the cutoff so the
quadratic term is alias-free before it is cut back to the band.  ``evolve``
therefore steps on the smallest grid that meets that rule (Orszag, J. Atmos.
Sci. 28, 1971; Boyd, Chebyshev and Fourier Spectral Methods, 2001, ch. 11)
and zero-pads back to the stored grid at each snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEC, ConfigError, NumericalError, whole_steps
from .initial_data import InitialData

DEFAULT_CUTOFF = SPEC["pde"]["cutoff"].default


def soliton_profile(v: float, x0: float = 0.0, L: float = 40.0, n: int = 4097) -> InitialData:
    """Right-moving one-soliton initial data for speed v > 1.

    U = a sech^2(b (x - x0)) solves the traveling-wave reduction
    v^2 U = U + U^2 + U'' iff b = sqrt(v^2-1)/2 and a = 3(v^2-1)/2.
    """
    if v <= 1:
        raise ValueError("soliton speed must exceed 1")
    a = 1.5 * (v * v - 1.0)
    b = 0.5 * np.sqrt(v * v - 1.0)
    x = np.linspace(-L, L, n)
    s = 1.0 / np.cosh(b * (x - x0))
    u0 = a * s**2
    du0 = -2.0 * a * b * s**2 * np.tanh(b * (x - x0))
    u1 = -v * du0
    v0 = -v * u0
    return InitialData(x=x, u0=u0, u1=u1, v0=v0, du0=du0)


@dataclass
class FieldSnapshot:
    """u and u_t on the periodic grid at one time."""

    x: np.ndarray
    u: np.ndarray
    u_t: np.ndarray
    t: float

    def uhat(self) -> np.ndarray:
        # the stored grid duplicates the first point at the right edge
        return np.fft.rfft(self.u[:-1])

    def eval_at(self, xq) -> np.ndarray:
        """Trigonometric (exact, band-limited) evaluation off the grid."""
        xq = np.asarray(xq, dtype=float)
        n = len(self.x) - 1
        xi = 2 * np.pi * np.fft.rfftfreq(n, d=self.x[1] - self.x[0])
        coeff = self.uhat() / n
        phase = np.exp(1j * np.outer(xq - self.x[0], xi))
        weights = np.full(len(xi), 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        return np.real(phase @ (weights * coeff))


def _propagator(xi, tau):
    """Entries (c, i xi s, i xi (1 - xi^2) s) of e^{A tau} = [[c, i xi s],
    [i xi (1 - xi^2) s, c]], cos/sinc form on the filtered band (1 - xi^2 > 0)."""
    mu = xi * np.sqrt(np.maximum(1.0 - xi**2, 0.0))
    c = np.cos(mu * tau)
    s = np.where(mu != 0.0, np.divide(np.sin(mu * tau), np.where(mu != 0, mu, 1.0)), tau)
    ixi = 1j * xi
    return c, ixi * s, ixi * (1 - xi**2) * s


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def alias_free_size(n: int, nyq: float, cutoff: float) -> int:
    """Smallest 5-smooth m < n whose grid Nyquist ``nyq * (m / n)`` is at least
    2 * cutoff, or n itself when there is none.

    ``nyq`` is the Nyquist pi / h of the n-point grid, so ``nyq * (m / n)`` is
    that of the m-point grid with the same period; it carries the filtered
    band and the band's square without aliasing.
    """
    m = max(1, int(2 * cutoff / nyq * n))  # at or below the bound
    while m < n and not (nyq * (m / n) >= 2 * cutoff and _is_5_smooth(m)):
        m += 1
    return m


@np.errstate(over="ignore", invalid="ignore")  # a non-finite field fails below
def evolve(data: InitialData, T: float, dt: float, cutoff: float = DEFAULT_CUTOFF,
           snapshot_times=None) -> list[FieldSnapshot]:
    """Integrate forward to time T > 0 with integrating-factor RK4 (Lawson,
    SIAM J. Numer. Anal. 4, 1967).

    Returns snapshots at ``snapshot_times`` (default: [T]), each a whole number
    of steps in (0, T] (config.whole_steps), else ValueError.  To run backward,
    evolve the time-reversed data (u1 and v0 negated).  The initial data is
    cut to the filtered band |xi| <= cutoff, the quadratic term is
    alias-free by the Nyquist >= 2 * cutoff requirement, and only the band's
    modes are stepped: each stage's (u^2)_x is cut back to them.  The
    nonlinearity enters the w equation only, so each RK stage needs the u
    field of its stage value and nothing else: stages 1 and 3 (the state's and
    e^{A dt/2}'s, free of k2) are transformed as one batch, and stages 2 and 4
    (from k1 and k3) as another.  The stage fields live on the m-point grid of
    ``alias_free_size`` (irfft zero-pads the band to its m//2 + 1 modes), and
    irfft(..., n=n) zero-pads each snapshot back to the n-point grid of ``data``.
    """
    n = len(data.x) - 1
    h = data.h
    nyq = np.pi / h
    if not nyq >= 2 * cutoff:  # also refuses a NaN cutoff
        raise ConfigError(f"grid Nyquist {nyq:.2f} below 2 x cutoff {2 * cutoff:.2f}: "
                          "raise pde.n, or lower pde.L or pde.cutoff")
    if not T > 0:
        raise ValueError(f"evolve steps forward only: T = {T!r} must be positive")
    nsteps = whole_steps(T, dt)
    times = sorted(set(float(t) for t in ([T] if snapshot_times is None else snapshot_times)))
    at_step = {}  # step -> the snapshot times it reaches
    for t in times:
        at_step.setdefault(whole_steps(t, dt) if t > 0 else 0, []).append(t)
    if not all(1 <= k <= nsteps for k in at_step):
        raise ValueError(f"snapshot times {times} must lie in (0, T = {T!r}]")

    m = alias_free_size(n, nyq, cutoff)
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=h)
    xi = xi[:np.count_nonzero(xi <= cutoff)]  # the band; irfft zero-pads the rest
    K = len(xi)
    ixi = 1j * xi
    # an m-point transform of the band is m/n times the n-point one
    uh = np.fft.rfft(data.u0[:-1])[:K] * (m / n)
    wh = np.fft.rfft(data.v0[:-1])[:K] * (m / n)
    if not (np.isfinite(uh).all() and np.isfinite(wh).all()):
        raise NumericalError("the transformed initial data are not finite")

    cf, af, bf = _propagator(xi, dt)
    ch, ah, _ = _propagator(xi, dt / 2)  # the w stage values are never needed
    # the rows (eu, fu, fw): u of e^{A dt/2} y, and u and w of e^{A dt} y, for y = (uh, wh)
    prop = np.array([(ch, ah), (cf, af), (bf, cf)])

    def nonlin(u):
        return ixi * np.fft.rfft(u * u)[..., :K]

    out = []
    sup_prev = max(np.max(np.abs(data.u0)), 1e-30)
    for done in range(nsteps + 1):  # (uh, wh) is the state after `done` steps
        eu, fu, fw = prop[:, 0] * uh + prop[:, 1] * wh
        fields = np.fft.irfft(np.stack((uh, eu)), n=m)  # stage 1's, the state's, and stage 3's
        if done:  # the blow-up check
            sup = np.abs(fields[0]).max()
            if not np.isfinite(sup):
                raise NumericalError(f"the field is not finite at t={done * dt:.3f}")
            if sup > 2.0 * max(sup_prev, 1e-12) and sup > 1e-8:
                band = np.floor(10 * xi[np.argmax(np.abs(uh))]) / 10
                raise NumericalError(f"instability detected at t={done * dt:.3f}: |u hat| is "
                                     f"largest in the band [{band:.1f}, {band + 0.1:.1f}) of xi")
            sup_prev = max(sup, 1e-30)
        for t in at_step.get(done, ()):
            u = np.fft.irfft(uh * (n / m), n=n)
            u_t = np.fft.irfft(ixi * (wh * (n / m)), n=n)
            out.append(FieldSnapshot(x=data.x.copy(), u=np.append(u, u[0]),
                                     u_t=np.append(u_t, u_t[0]), t=t))
        if done == nsteps:
            return out
        k1, k3 = nonlin(fields)
        k2, k4 = nonlin(np.fft.irfft(np.stack((eu + 0.5 * dt * (ah * k1),
                                               fu + dt * (ah * k3))), n=m))
        k23 = k2 + k3
        uh = fu + (dt / 6.0) * (af * k1 + 2 * (ah * k23))
        wh = fw + (dt / 6.0) * (cf * k1 + 2 * (ch * k23) + k4)


# ---------------------------------------------------------------------------
# comparison against the leading-order formula
# ---------------------------------------------------------------------------


def compare(zetas, u_asym, snapshots: list[FieldSnapshot]) -> dict:
    """Windowed error report: the rows of u_asym at the points ``zetas`` against
    the PDE snapshots, one row per snapshot.

    Returns pointwise/envelope errors per snapshot, the fitted envelope decay
    exponent of the PDE field, and error ratios between consecutive times.
    """
    zetas = np.asarray(zetas, dtype=float)
    rows = []
    for snap, u_a in zip(snapshots, u_asym, strict=True):
        xq = zetas * snap.t
        if xq.max() >= snap.x[-1]:
            raise ConfigError(f"zeta window leaves the unwrapped domain at t={snap.t}: "
                              f"x={xq.max():.1f} >= {snap.x[-1]:.1f}; rerun evolve")
        u_pde = snap.eval_at(xq)
        err = np.abs(u_pde - u_a)
        rows.append({
            "t": snap.t,
            "max_err": float(np.max(err)),
            "rms_err": float(np.sqrt(np.mean(err**2))),
            "envelope_pde": float(np.max(np.abs(u_pde))),
            "envelope_asym": float(np.max(np.abs(u_a))),
        })
    ts = np.array([r["t"] for r in rows], dtype=float)
    env = np.array([r["envelope_pde"] for r in rows], dtype=float)
    if len(ts) >= 2 and np.all(env > 0):
        slope = np.polyfit(np.log(ts), np.log(env), 1)[0]
    else:
        slope = np.nan
    ratios = [rows[i + 1]["max_err"] / rows[i]["max_err"]
              if rows[i]["max_err"] > 0 else np.nan
              for i in range(len(rows) - 1)]
    return {
        "rows": rows,
        "envelope_exponent": float(slope),
        "error_ratios": [float(r) for r in ratios],
    }
