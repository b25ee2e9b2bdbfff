"""Complex-plane geometry: cube/sixth roots of unity, linear phases, saddle points.

The spectral parameter lives on C \\ {0}.  Everything here is closed-form and
vectorizes over k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT3 = np.sqrt(3.0)

#: cube root of unity used throughout
OMEGA = np.exp(2j * np.pi / 3)

#: sixth roots of unity kappa_j = e^{i pi (j-1)/3}, j = 1..6
KAPPA = np.exp(1j * np.pi * np.arange(6) / 3)

#: lower edge of the admissible speed window zeta = x/t
ZETA_MIN = 1.0 / SQRT3
ZETA_MAX = 1.0


@dataclass(frozen=True)
class PhaseTriple:
    """Values l_j(k), z_j(k), j = 1, 2, 3 (j = 3 carries omega^3 = 1)."""

    l: np.ndarray
    z: np.ndarray


def phase_values(k) -> PhaseTriple:
    """l_j(k) = i (w^j k + (w^j k)^-1) / (2 sqrt 3), z_j likewise with squares.

    k may be a scalar or an ndarray; the j-axis is prepended.
    """
    k = np.asarray(k, dtype=complex)
    if np.any(k == 0):
        raise ValueError("phase_values: k = 0 is outside the domain")
    wj = OMEGA ** np.arange(1, 4)
    wk = wj.reshape((3,) + (1,) * k.ndim) * k
    l = 1j * (wk + 1.0 / wk) / (2 * SQRT3)
    z = 1j * (wk**2 + 1.0 / wk**2) / (4 * SQRT3)
    return PhaseTriple(l=l, z=z)


def on_unit_circle(k):
    """Whether each k lies on the unit circle, as the on-circle march step and
    the branch logs on their arcs take it: ||k| - 1| <= 1e-12."""
    return np.abs(np.abs(k) - 1.0) <= 1e-12


def is_real(k) -> bool:
    """Whether k is on the real axis, as the formulas for a real zero of s11
    (residue, soliton d, admissibility) take it: |Im k| < 1e-12."""
    return abs(complex(k).imag) < 1e-12


def _check_pair(i: int, j: int) -> None:
    if not (1 <= j < i <= 3):
        raise ValueError(f"phase index pair must satisfy 1 <= j < i <= 3, got ({i},{j})")


def phi(i: int, j: int, zeta: float, k):
    """Phase difference Phi_ij(zeta, k) = (l_i - l_j) zeta + (z_i - z_j)."""
    _check_pair(i, j)
    p = phase_values(k)
    return (p.l[i - 1] - p.l[j - 1]) * zeta + (p.z[i - 1] - p.z[j - 1])


@dataclass(frozen=True)
class SaddleSet:
    """The four critical points of Phi_21 at a given zeta; k1 = conj k2, k3 = conj k4."""

    zeta: float
    k1: complex
    k2: complex
    k3: complex
    k4: complex


def saddle_points(zeta: float) -> SaddleSet:
    """Closed-form saddle points of Phi_21 for zeta in (1/sqrt 3, 1).

    The real radicals are evaluated with nonnegative square roots; the stated
    argument windows then hold automatically and are asserted, not branched on.
    """
    if not (ZETA_MIN < zeta < ZETA_MAX):
        raise ValueError(f"zeta must lie in (1/sqrt(3), 1), got {zeta}")
    rad = np.sqrt(8.0 + zeta**2)
    inner2 = 4.0 - zeta**2 + zeta * rad
    inner4 = 4.0 - zeta**2 - zeta * rad
    if inner2 < 0 or inner4 < 0:
        from .config import NumericalError  # here: config imports this module
        raise NumericalError(f"saddle radicals negative at zeta={zeta}")
    k2 = 0.25 * (zeta - rad - 1j * np.sqrt(2.0) * np.sqrt(inner2))
    k4 = 0.25 * (zeta + rad - 1j * np.sqrt(2.0) * np.sqrt(inner4))
    assert -3 * np.pi / 4 < np.angle(k2) < -2 * np.pi / 3, np.angle(k2)
    assert -np.pi / 6 < np.angle(k4) < 0, np.angle(k4)
    return SaddleSet(zeta=zeta, k1=np.conj(k2), k2=k2, k3=np.conj(k4), k4=k4)

