import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqist import spectral as sp

SQ3 = np.sqrt(3.0)


def test_unity_frame_invariants():
    assert abs(sp.OMEGA**3 - 1) < 1e-15 and abs(sp.OMEGA - 1) > 1
    assert np.allclose(sp.KAPPA, np.exp(1j * np.pi * np.arange(6) / 3))


def test_phase_values_at_one():
    p = sp.phase_values(1.0)
    assert abs(p.l[2] - 1j / SQ3) < 1e-15          # omega^3 k = 1
    assert abs(p.z[2] - 1j / (2 * SQ3)) < 1e-15
    assert abs(p.l[0] + 1j / (2 * SQ3)) < 1e-15    # omega + 1/omega = -1


def test_phase_values_rejects_origin():
    with pytest.raises(ValueError):
        sp.phase_values(0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 2 * np.pi), st.floats(0.2, 4.0))
def test_phase_sums_vanish(theta, rho):
    p = sp.phase_values(rho * np.exp(1j * theta))
    assert abs(p.l.sum()) < 1e-14 * max(1 / rho, rho)
    assert abs(p.z.sum()) < 1e-14 * max(1 / rho, rho) ** 2


def phi21_circle(zeta: float, theta):
    """Phi_21 on the unit circle: i (zeta - cos theta) sin theta (purely imaginary)."""
    theta = np.asarray(theta, dtype=float)
    return 1j * (zeta - np.cos(theta)) * np.sin(theta)


def test_phi_circle_formula():
    zeta = 0.7
    th = np.linspace(0.1, 6.2, 17)
    lhs = sp.phi(2, 1, zeta, np.exp(1j * th))
    assert np.max(np.abs(lhs - phi21_circle(zeta, th))) < 1e-14
    assert np.max(np.abs(np.real(lhs))) < 1e-15
    assert abs(sp.phi(2, 1, zeta, 1.0)) < 1e-15  # sin 0 = 0


def test_phi_rotation_relations():
    rng = np.random.default_rng(5)
    k = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    k = k[np.abs(k) > 0.05]
    zeta = 0.7
    r31 = sp.phi(3, 1, zeta, k) + sp.phi(2, 1, zeta, sp.OMEGA**2 * k)
    r32 = sp.phi(3, 2, zeta, k) - sp.phi(2, 1, zeta, sp.OMEGA * k)
    assert np.max(np.abs(r31)) < 1e-13
    assert np.max(np.abs(r32)) < 1e-13


def test_phi_conjugation_symmetry():
    # the Laurent coefficients of Phi_21 are real, so conjugation alone maps
    # Phi -> Phi; composed with inversion it flips the sign (on |k| = 1 this
    # is the pure imaginarity of Phi_21)
    rng = np.random.default_rng(6)
    k = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    k = k[np.abs(k) > 0.05]
    lhs = np.conj(sp.phi(2, 1, 0.8, 1 / np.conj(k)))
    assert np.max(np.abs(lhs + sp.phi(2, 1, 0.8, k))) < 1e-12
    assert np.max(np.abs(np.conj(sp.phi(2, 1, 0.8, np.conj(k))) - sp.phi(2, 1, 0.8, k))) < 1e-12


def test_phi_invalid_pair():
    with pytest.raises(ValueError):
        sp.phi(1, 2, 0.7, 1.0 + 0j)


def dphi21_dk(zeta, k):
    """Closed-form d/dk of Phi_21 = (l_2 - l_1) zeta + (z_2 - z_1)."""
    wk = sp.OMEGA ** np.arange(1, 3) * k
    dl = 1j * (wk - 1.0 / wk) / (2 * SQ3 * k)
    dz = 1j * (wk**2 - 1.0 / wk**2) / (2 * SQ3 * k)
    return (dl[1] - dl[0]) * zeta + (dz[1] - dz[0])


def test_saddle_points_basic():
    s = sp.saddle_points(0.7)
    assert abs(abs(s.k2) - 1) < 1e-12 and abs(abs(s.k4) - 1) < 1e-12
    assert s.k1 == np.conj(s.k2) and s.k3 == np.conj(s.k4)
    for k in (s.k1, s.k2, s.k3, s.k4):
        h = 1e-6 * max(1.0, abs(k))
        fd = (sp.phi(2, 1, 0.7, k + h) - sp.phi(2, 1, 0.7, k - h)) / (2 * h)
        assert abs(fd) < 1e-8
        assert abs(dphi21_dk(0.7, k)) < 1e-12


def test_saddle_arg_windows_across_sector():
    for zeta in (1 / np.sqrt(3) + 1e-6, 0.62, 0.8, 0.95, 1 - 1e-6):
        s = sp.saddle_points(zeta)
        assert -np.pi / 6 < np.angle(s.k4) < 0
        assert -3 * np.pi / 4 < np.angle(s.k2) < -2 * np.pi / 3


def test_saddle_domain_errors():
    for bad in (0.5, 1.0, 1 / np.sqrt(3), 1.2):
        with pytest.raises(ValueError):
            sp.saddle_points(bad)

