"""Closed-form coefficients of the two cross-shaped model problems, whose
product identities criterion 5 and tests/test_asymptotics.py check."""

import numpy as np
from scipy.special import loggamma

from bqist.config import NumericalError


def model_beta(which: int, *qs) -> tuple[complex, complex]:
    """Closed-form (beta12, beta21) of the two cross-shaped model problems.

    which=1 takes (q1, q3); which=2 takes (q2, q4, q5, q6) subject to
    q4 = conj(q5) + q2 conj(q6).
    """
    root = np.exp(3j * np.pi / 4) * np.sqrt(2 * np.pi)
    rootc = np.conj(root)
    if which == 1:
        q1, q3 = (complex(q) for q in qs)
        if not 1 + abs(q1) ** 2 - abs(q3) > 0:
            raise NumericalError("model 1 requires 1 + |q1|^2 - |q3| > 0")
        arg3 = 1 + abs(q1) ** 2 - abs(q3) ** 2
        if arg3 <= 0:
            raise NumericalError("model 1 requires 1 + |q1|^2 - |q3|^2 > 0")
        nu1 = -np.log(1 + abs(q1) ** 2) / (2 * np.pi)
        nu3 = -np.log(arg3) / (2 * np.pi)
        hat = nu3 - nu1
        if hat == 0:
            return 0.0 + 0.0j, 0.0 + 0.0j
        den = np.expm1(2 * np.pi * hat)
        b12 = root * np.exp(3 * np.pi * hat / 2) * np.exp(2 * np.pi * nu1) * q3 / (
            den * np.exp(loggamma(-1j * hat)))
        b21 = rootc * np.exp(3 * np.pi * hat / 2) * np.conj(q3) / (
            den * np.exp(loggamma(1j * hat)))
        return complex(b12), complex(b21)
    if which == 2:
        q2, q4, q5, q6 = (complex(q) for q in qs)
        if abs(q4 - np.conj(q5) - q2 * np.conj(q6)) > 1e-9:
            raise ValueError("model 2 constraint q4 - conj(q5) - q2 conj(q6) = 0 violated")
        a24 = 1 + abs(q2) ** 2 - abs(q4) ** 2
        a56 = 1 - abs(q5) ** 2 - abs(q6) ** 2
        if a24 <= 0:
            raise NumericalError("model 2 requires 1 + |q2|^2 - |q4|^2 > 0")
        if a56 <= 0:
            raise NumericalError("model 2 requires 1 - |q5|^2 - |q6|^2 > 0")
        nu2 = -np.log(1 + abs(q2) ** 2) / (2 * np.pi)
        nu4 = -np.log(a24) / (2 * np.pi)
        nu5 = -np.log(a56) / (2 * np.pi)
        hat = nu2 + nu5 - nu4
        if hat == 0:
            return 0.0 + 0.0j, 0.0 + 0.0j
        den = np.exp(np.pi * hat) - np.exp(-np.pi * hat)
        b12 = root * np.exp(np.pi * hat / 2) * np.exp(2 * np.pi * (nu4 - nu2)) * (
            np.conj(q6) - np.conj(q2) * np.conj(q5)) / (den * np.exp(loggamma(-1j * hat)))
        b21 = rootc * np.exp(np.pi * hat / 2) * np.exp(2 * np.pi * nu2) * (
            q6 - q2 * q5) / (den * np.exp(loggamma(1j * hat)))
        return complex(b12), complex(b21)
    raise ValueError("which must be 1 or 2")
