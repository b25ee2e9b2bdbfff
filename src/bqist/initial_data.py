"""Initial data of the pipeline: samples of (u0, u1) on a uniform grid, from a
named closed form (NAMED_FORMS) or from a CSV file (load_csv).

RunConfig.load checks a named form's config against the signature of its
function here, and its u1_mode against U1_MODES, before any stage runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES, ConfigError, NumericalError, is_grid_size, read_columns

#: how a named form sets u1 from u0: u1 = -d/dx u0 (mass-free) or u1 = 0
U1_MODES = ("minus_du0", "zero")


@dataclass
class InitialData:
    """Samples of (u0, u1) on a uniform increasing grid from x[0] = -L (the
    named forms use [-L, L]), with v0 = int_-inf^x u1.

    Every constructor checks the grid rule, config.is_grid_size: an odd number
    of points, at least 3.
    """

    x: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    du0: np.ndarray

    @property
    def L(self) -> float:
        """-x[0]: the march ends there, where the terminal formula's
        e^{L ad(diag l)} needs it."""
        return float(-self.x[0])

    @property
    def h(self) -> float:
        """The grid step x[1] - x[0]."""
        return float(self.x[1] - self.x[0])

    @staticmethod
    def check_size(n: int) -> None:
        """ValueError unless n meets the grid rule (config.is_grid_size)."""
        if not is_grid_size(n):
            raise ValueError(f"the x grid needs an odd number, at least 3 points; it has {n}")

    def __post_init__(self):
        self.check_size(len(self.x))
        for name in ("u0", "u1", "v0", "du0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"InitialData {name} has non-finite values")
        if not self.h > 0:
            raise ValueError(f"InitialData grid must be increasing: x[1] - x[0] = {self.h!r}")
        if not np.all(np.abs(np.diff(self.x) - self.h) <= 1e-12 * max(1.0, self.h)):
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

    def check_mass(self) -> None:
        """NumericalError unless the data meet TOLERANCES' mass condition."""
        m, bound = abs(self.mass()), TOLERANCES["mass_condition"]
        if m > bound:
            raise NumericalError(f"mass condition violated: |int u1 dx| = {m:.3e} > {bound:.1e}")

    def validate(self) -> None:
        """NumericalError unless the data meet TOLERANCES' mass condition and tail bound."""
        self.check_mass()
        t = self.tail_max()
        if t > TOLERANCES["tail"]:
            raise NumericalError(f"initial data not numerically compactly supported: tail {t:.3e}")


def from_arrays(x, u0, u1) -> InitialData:
    x = np.asarray(x, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    InitialData.check_size(len(x))  # np.gradient needs 3 points
    v0 = np.concatenate([[0.0], np.cumsum(0.5 * (u1[1:] + u1[:-1]) * np.diff(x))])
    du0 = np.gradient(u0, x, edge_order=2)
    return InitialData(x=x, u0=u0, u1=u1, v0=v0, du0=du0)


def zero_data(L: float = 20.0, n: int = 513) -> InitialData:
    x = np.linspace(-L, L, n)
    z = np.zeros_like(x)
    return InitialData(x, z.copy(), z.copy(), z.copy(), z.copy())


def _with_u1_mode(x, u0, du0, u1_mode: str) -> InitialData:
    """Initial data (u0, u1) with u1 = -d/dx u0 (mass-free, v0 = -u0) for
    ``u1_mode`` "minus_du0", or u1 = 0 for "zero"; ValueError for another mode."""
    if u1_mode not in U1_MODES:
        raise ValueError(f"unknown u1_mode {u1_mode!r}; choose from {U1_MODES}")
    if u1_mode == "minus_du0":
        return InitialData(x, u0, -du0, -u0, du0)
    return InitialData(x, u0, np.zeros_like(u0), np.zeros_like(u0), du0)


def gaussian(amplitude: float, width: float, L: float = 30.0, n: int = 4097,
             u1_mode: str = "minus_du0") -> InitialData:
    """u0 = a exp(-(x/w)^2); u1 = -d/dx u0 (mass-free) or zero."""
    x = np.linspace(-L, L, n)
    u0 = amplitude * np.exp(-((x / width) ** 2))
    return _with_u1_mode(x, u0, u0 * (-2.0 * x / width**2), u1_mode)


def band_limit_mask(xi) -> np.ndarray:
    """Spectral taper: indicator(|xi| <= edge) mollified by a Gaussian of width
    sigma, with edge = 0.60 and sigma = 0.054.

    The Gaussian edges make the stopband leakage (beyond edge + ~5 sigma) and
    the spatial tails of the filtered data (envelope e^{-sigma^2 x^2 / 2})
    decay fast, but the tails fall below 1e-12 only at about L = 120: for
    gaussian_bandlimited of amplitude 0.01 and width 2, tail_max() is 1.3e-6
    at L = 60 and 7.2e-14 at L = 120.
    """
    from math import erf

    edge, sigma = 0.60, 0.054
    verf = np.vectorize(erf)
    xi = np.asarray(xi, dtype=float)
    s = np.sqrt(2.0) * sigma
    return 0.5 * (verf((edge - xi) / s) + verf((edge + xi) / s))


def gaussian_bandlimited(amplitude: float, width: float, L: float = 120.0, n: int = 16385,
                         u1_mode: str = "minus_du0") -> InitialData:
    """Gaussian with its spectrum smoothly confined below the unstable band.

    Deterministic given the grid: the taper acts on the FFT of the sampled
    Gaussian and the result is transformed back.
    """
    InitialData.check_size(n)  # before the grid step x[1] - x[0] is read
    x = np.linspace(-L, L, n)
    h = x[1] - x[0]
    # periodic FFT on [-L, L); the last sample duplicates the first up to 1e-200 tails
    xs = x[:-1]
    gs = amplitude * np.exp(-((xs / width) ** 2))
    xi = 2 * np.pi * np.fft.fftfreq(len(xs), d=h)
    mask = band_limit_mask(np.abs(xi))
    ghat = np.fft.fft(gs) * mask
    u0s = np.real(np.fft.ifft(ghat))
    du0s = np.real(np.fft.ifft(1j * xi * ghat))
    return _with_u1_mode(x, np.concatenate([u0s, u0s[:1]]), np.concatenate([du0s, du0s[:1]]),
                         u1_mode)


NAMED_FORMS = {
    "zero": zero_data,
    "gaussian": gaussian,
    "gaussian_bl": gaussian_bandlimited,
}


def load_csv(path) -> InitialData:
    """Initial data from a CSV file with columns x, u0, u1; ConfigError if they are not."""
    col = read_columns(path, ("x", "u0", "u1"))
    try:
        return from_arrays(col["x"], col["u0"], col["u1"])
    except ValueError as exc:
        raise ConfigError(f"bad initial_data.csv {path}: {exc}") from exc
