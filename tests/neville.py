"""Neville extrapolation to eps -> 0, the limit oracle of the one-sided tests."""

import numpy as np


def richardson_limit(eps, vals):
    """Polynomial extrapolation of vals(eps) to eps -> 0 (Neville's scheme)."""
    eps = np.asarray(eps, dtype=float)
    tab = [complex(v) for v in vals]
    n = len(tab)
    for m in range(1, n):
        tab = [
            (eps[i + m] * tab[i] - eps[i] * tab[i + 1]) / (eps[i + m] - eps[i])
            for i in range(n - m)
        ]
    return tab[0]
