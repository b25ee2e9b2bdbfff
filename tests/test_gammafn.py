import numpy as np
from scipy.special import loggamma as scipy_loggamma

from bqist import gammafn


def test_real_values():
    assert abs(np.exp(gammafn.log_gamma(0.5)) - np.sqrt(np.pi)) < 1e-13
    assert abs(np.exp(gammafn.log_gamma(5.0)) - 24.0) < 1e-10


def abs_gamma_imag_axis(nu):
    """|Gamma(i nu)| from the identity |Gamma(i nu)|^2 = 2 pi / (nu (e^{pi nu} - e^{-pi nu}))."""
    return float(np.sqrt(2 * np.pi / (nu * (np.exp(np.pi * nu) - np.exp(-np.pi * nu)))))


def test_modulus_identity_on_imag_axis():
    for nu in (1e-4, 0.01, 0.2, 0.8, 2.5):
        lhs = abs(np.exp(gammafn.log_gamma(1j * nu)))
        assert abs(lhs - abs_gamma_imag_axis(nu)) < 1e-12 * max(1, lhs)


def test_against_scipy_oracle():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    pts = pts[np.abs(pts.imag) > 1e-3]
    for z in pts:
        mine = gammafn.log_gamma(complex(z))
        ref = scipy_loggamma(complex(z))
        assert abs(mine - ref) < 1e-11 * max(1.0, abs(ref))


def test_arg_gamma_near_zero():
    # Gamma(i nu) ~ 1/(i nu): argument approaches -pi/2 from above
    assert abs(gammafn.arg_gamma(1e-8j) + np.pi / 2) < 1e-6
