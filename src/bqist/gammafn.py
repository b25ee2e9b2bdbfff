"""Complex log-gamma via a Lanczos approximation (g = 7, 9 coefficients).

Only the argument of Gamma(i nu) enters the asymptotic phases; the modulus has
the independent identity |Gamma(i nu)|^2 = 2 pi / (nu (e^{pi nu} - e^{-pi nu}))
used by the tests to validate this implementation.
"""

from __future__ import annotations

import numpy as np

_G = 7.0
_COEFFS = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def _log_sin_pi(z: complex) -> complex:
    # overflow-safe log sin(pi z): factor out the dominant exponential
    if z.imag > 0:
        # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z})
        return -1j * np.pi * z + 1j * np.pi / 2 + np.log1p(-np.exp(2j * np.pi * z)) - np.log(2)
    # sin(pi z) = (-i/2) e^{i pi z} (1 - e^{-2 i pi z})
    return 1j * np.pi * z - 1j * np.pi / 2 + np.log1p(-np.exp(-2j * np.pi * z)) - np.log(2)


def log_gamma(z: complex) -> complex:
    """log Gamma(z) for complex z, reflection formula for Re z < 0.5."""
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0.0 and z.real == np.floor(z.real):
            raise ValueError(f"log_gamma: pole at z = {z}")
        return np.log(np.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)
    zm1 = z - 1.0
    x = _COEFFS[0]
    for i in range(1, len(_COEFFS)):
        x += _COEFFS[i] / (zm1 + i)
    t = zm1 + _G + 0.5
    return 0.5 * np.log(2 * np.pi) + (zm1 + 0.5) * np.log(t) - t + np.log(x)


def arg_gamma(z: complex) -> float:
    """arg Gamma(z) from log_gamma (continuous near the imaginary axis)."""
    return float(np.imag(log_gamma(z)))
