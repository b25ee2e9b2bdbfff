import numpy as np
import pytest
from scipy.integrate import simpson

from bqist import scattering as sc
from bqist.spectral import OMEGA, SQRT3, phase_values
from bqist.util import richardson_limit


def rtilde(k):
    return (OMEGA**2 - k**2) / (1 - OMEGA**2 * k**2)


# ---------------------------------------------------------------------------
# initial data and potential
# ---------------------------------------------------------------------------


def test_zero_data_trivial():
    d = sc.zero_data(L=15.0, n=513)
    k = np.array([np.exp(0.7j), 1.4 + 0.3j])
    sm = sc.scattering_matrices(d, k)
    assert np.max(np.abs(sm.s - np.eye(3))) == 0.0
    assert np.max(np.abs(sm.sA - np.eye(3))) == 0.0
    r1, r2 = sc.reflection_values(d, np.exp(1j * np.array([0.4, 2.0])))
    assert np.max(np.abs(r1)) == 0.0 and np.max(np.abs(r2)) == 0.0
    assert sc.find_s11_zeros(d) == []
    rep = sc.assumption_validators(d)
    assert rep["ok"]


def test_band_limited_construction(data_small):
    assert data_small.tail_max() < 1e-11
    assert abs(data_small.mass()) < 1e-12
    # spectrum confined below the unstable band
    xs = data_small.x[:-1]
    xi = 2 * np.pi * np.fft.rfftfreq(len(xs), d=data_small.h)
    spec = np.abs(np.fft.rfft(data_small.u0[:-1]))
    assert spec[xi > 0.95].max() < 1e-11 * spec.max()
    assert spec[xi > 1.0].max() < 1e-14 * spec.max()


def test_potential_middle_factor_entries():
    d = sc.gaussian(0.3, 1.5, L=20.0, n=513)
    k = np.array([0.8 + 0.4j])
    M1, M2 = sc.potential_frame(k)
    w31, w32 = sc.potential_weights(d)
    i = len(d.x) // 3
    U = w31[i] * M1[0] + w32[i] * M2[0]
    l = phase_values(k).l[:, 0]
    P = np.array([[1, 1, 1], l, l**2])
    W = P @ U @ np.linalg.inv(P)
    expected31 = -d.du0[i] / 4 - 1j * d.v0[i] / (4 * SQRT3)
    assert abs(W[2, 0] - expected31) < 1e-12
    assert abs(W[2, 1] + d.u0[i] / 2) < 1e-12
    assert np.max(np.abs(W[(0, 0, 1, 1, 2), (0, 1, 0, 1, 2)])) < 1e-12


def test_degenerate_point_flagged():
    d = sc.gaussian(0.1, 2.0, L=20.0, n=513)
    with pytest.raises(sc.DegenerateSpectralPointError):
        sc.potential_frame(np.array([1.0 + 1e-10j]))


# ---------------------------------------------------------------------------
# Volterra solutions
# ---------------------------------------------------------------------------


def test_volterra_boundary_and_zero_data():
    d0 = sc.zero_data(L=10.0, n=257)
    X = sc.march_volterra(d0, np.array([0.6 + 0.1j]), "X")
    assert np.max(np.abs(X - np.eye(3))) == 0.0
    d = sc.gaussian(0.2, 2.0, L=20.0, n=1025)
    _, traj = sc.march_volterra(d, np.array([np.exp(0.5j)]), "X", keep_trajectory=True)
    assert np.max(np.abs(traj[-1] - np.eye(3))) == 0.0  # X(L) = I exactly
    for which in ("Y", "YA"):
        _, traj = sc.march_volterra(d, np.array([np.exp(0.5j)]), which,
                                    keep_trajectory=True)
        assert np.max(np.abs(traj[0] - np.eye(3))) == 0.0  # I at the left edge


def test_volterra_residual_oracle(data_small):
    """Plug the marched X back into its integral equation (Simpson quadrature)."""
    d = sc.gaussian_bandlimited(0.05, 2.0, L=60.0, n=8193)
    rng = np.random.default_rng(7)
    k = np.exp(1j * rng.uniform(0.1, 1.9, 4))
    _, traj = sc.march_volterra(d, k, "X", keep_trajectory=True)
    xe = d.x[::2]
    M1, M2 = sc.potential_frame(k)
    w31, w32 = sc.potential_weights(d)
    w31e, w32e = w31[::2], w32[::2]
    l = phase_values(k).l.T
    worst = 0.0
    for xi in rng.choice(np.arange(100, len(xe) - 100), 5, replace=False):
        x0 = xe[xi]
        UX = (w31e[xi:, None, None, None] * M1[None]
              + w32e[xi:, None, None, None] * M2[None]) @ traj[xi:]
        ediff = l[:, :, None] - l[:, None, :]
        kern = np.exp((x0 - xe[xi:, None, None, None]) * ediff[None])
        I = simpson(kern * UX, x=xe[xi:], axis=0)
        worst = max(worst, np.max(np.abs(traj[xi] - (np.eye(3)[None] - I))))
    assert worst < 1e-8


def test_volterra_adjoint_residual(data_small):
    """Same oracle for the transposed system marched from the right."""
    d = sc.gaussian_bandlimited(0.05, 2.0, L=60.0, n=8193)
    k = np.exp(1j * np.array([0.8, 2.4]))
    _, traj = sc.march_volterra(d, k, "XA", keep_trajectory=True)
    xe = d.x[::2]
    M1, M2 = sc.potential_frame(k)
    M1t, M2t = np.swapaxes(M1, 1, 2), np.swapaxes(M2, 1, 2)
    w31, w32 = sc.potential_weights(d)
    w31e, w32e = w31[::2], w32[::2]
    l = phase_values(k).l.T
    xi = len(xe) // 3
    x0 = xe[xi]
    UX = (w31e[xi:, None, None, None] * M1t[None]
          + w32e[xi:, None, None, None] * M2t[None]) @ traj[xi:]
    ediff = l[:, :, None] - l[:, None, :]
    kern = np.exp(-(x0 - xe[xi:, None, None, None]) * ediff[None])
    I = simpson(kern * UX, x=xe[xi:], axis=0)
    assert np.max(np.abs(traj[xi] - (np.eye(3)[None] + I))) < 1e-8


def test_grid_refinement_stable():
    vals = []
    for n in (2049, 4097):
        d = sc.gaussian(0.1, 2.0, L=30.0, n=n)
        vals.append(sc.scattering_matrices(d, np.exp(1j * np.array([1.0]))).s[0, 0, 0])
    assert abs(vals[1] - vals[0]) < 1e-9


# ---------------------------------------------------------------------------
# scattering matrices and reflection coefficients
# ---------------------------------------------------------------------------


def test_s11_symmetries(data_small):
    rng = np.random.default_rng(3)
    th = rng.uniform(0.05, 2 * np.pi - 0.05, 14)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs((th[:, None] - kap + np.pi) % (2 * np.pi) - np.pi), axis=1) > 0.02][:8]
    k = np.exp(1j * th)
    sm = sc.scattering_matrices(data_small, k)
    sm_rot = sc.scattering_matrices(data_small, OMEGA / k)
    assert np.max(np.abs(sm.s[:, 0, 0] - sm_rot.s[:, 0, 0])) < 1e-8
    sm_inv = sc.scattering_matrices(data_small, 1 / np.conj(k))
    assert np.max(np.abs(sm.sA[:, 0, 0] - np.conj(sm_inv.s[:, 0, 0]))) < 1e-8


def test_circle_relation(data_acc):
    rng = np.random.default_rng(11)
    th = rng.uniform(0, 2 * np.pi, 40)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs((th[:, None] - kap + np.pi) % (2 * np.pi) - np.pi), axis=1) > 5e-3][:20]
    k = np.exp(1j * th)
    r1a, _ = sc.reflection_values(data_acc, 1 / (OMEGA * k))
    _, r2b = sc.reflection_values(data_acc, OMEGA * k)
    r1c, _ = sc.reflection_values(data_acc, OMEGA**2 * k)
    _, r2d = sc.reflection_values(data_acc, 1 / k)
    assert np.nanmax(np.abs(r1a + r2b + r1c * r2d)) < 1e-6


def test_conjugate_relation(data_acc):
    th = np.linspace(0.1, 2 * np.pi - 0.1, 15)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs(th[:, None] - kap), axis=1) > 0.02]
    k = np.exp(1j * th)
    r1, r2 = sc.reflection_values(data_acc, k)
    r1i, _ = sc.reflection_values(data_acc, 1 / np.conj(k))
    assert np.nanmax(np.abs(r2 - rtilde(k) * np.conj(r1i))) < 1e-6


def test_rtilde_identities():
    # the pole of one factor meets the zero of the other at the sixth roots of
    # unity, where floating-point cancellation is total; sample away from them
    th = np.linspace(0.05, 2 * np.pi - 0.05, 11)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs(th[:, None] - kap), axis=1) > 0.03]
    k = np.exp(1j * th)
    prod = rtilde(1 / (OMEGA * k)) * rtilde(1 / (OMEGA**2 * k))
    assert np.max(np.abs(rtilde(k) - prod)) < 1e-12
    assert np.max(np.abs(np.imag(rtilde(k)))) < 1e-12
    assert abs(rtilde(np.exp(2j * np.pi / 3))) < 1e-15
    assert abs(rtilde(1.0) + 1) < 1e-15


def test_endpoint_values(data_acc):
    eps = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    for kstar in (1.0, -1.0):
        th0 = 0.0 if kstar == 1.0 else np.pi
        k = np.exp(1j * (th0 + eps)) if kstar == 1.0 else np.exp(1j * (np.pi - eps))
        sm = sc.scattering_matrices(data_acc, k)
        p11 = richardson_limit(eps, (k - kstar) * sm.s[:, 0, 0])
        p12 = richardson_limit(eps, (k - kstar) * sm.s[:, 0, 1])
        q11 = richardson_limit(eps, (k - kstar) * sm.sA[:, 0, 0])
        q12 = richardson_limit(eps, (k - kstar) * sm.sA[:, 0, 1])
        assert abs(p12 / p11 - 1.0) < 1e-4
        assert abs(q12 / q11 + 1.0) < 1e-4


def test_r2_pole_and_zero_scaling(data_small):
    # simple pole at -omega^2 = e^{i pi/3}: (k - p) r2 stabilizes while r2 grows
    p = np.exp(1j * np.pi / 3)
    scaled, raw = [], []
    for eps in (4e-3, 2e-3):
        _, r2 = sc.reflection_values(data_small, p * np.exp(1j * eps))
        scaled.append(abs((p * np.exp(1j * eps) - p) * r2[0]))
        raw.append(abs(r2[0]))
    assert 0.5 < scaled[1] / scaled[0] < 2.0
    assert raw[1] > 1.5 * raw[0]
    vals = []
    for eps in (4e-3, 2e-3):
        _, r2 = sc.reflection_values(data_small, np.array([np.exp(1j * (2 * np.pi / 3 + eps))]))
        vals.append(abs(r2[0]))
    assert vals[1] < 0.6 * vals[0]  # simple zero at omega


def test_reflection_decay_at_infinity(data_small):
    mags = []
    for R in (5.0, 10.0, 20.0):
        r1 = sc.r1_values(data_small, np.array([-1j * R]))
        mags.append(abs(r1[0]))
    assert mags[2] < 1e-6 and mags[2] <= mags[1] <= mags[0]


def test_interpolant_accuracy(refl_small, data_small):
    th = np.array([1e-3, 2.5e-3, 0.02, 0.4, np.pi / 3 + 1.5e-3,
                   2 * np.pi / 3 - 1.2e-3, 2 * np.pi / 3 - 2e-4, 3.0, 4.0, 5.5])
    r1i = refl_small.r1_at(th)
    r2i = refl_small.r2_at(th)
    r1d, r2d = sc.reflection_values(data_small, np.exp(1j * th))
    assert np.max(np.abs(r1i - r1d)) < 1e-9
    assert np.max(np.abs(r2i - r2d)) < 1e-9


# ---------------------------------------------------------------------------
# zeros, residues, validators
# ---------------------------------------------------------------------------


def test_soliton_reflectionless(soliton_data):
    th = np.linspace(0.05, 2 * np.pi - 0.05, 30)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs((th[:, None] - kap + np.pi) % (2 * np.pi) - np.pi), axis=1) > 5e-3]
    r1, _ = sc.reflection_values(soliton_data, np.exp(1j * th))
    assert np.nanmax(np.abs(r1)) < 1e-3


def test_soliton_zero_location(soliton_zeros):
    v = 1.3
    assert len(soliton_zeros) == 1
    k0 = soliton_zeros[0]
    assert abs(k0.imag) < 1e-9
    assert abs(k0.real - (v + np.sqrt(v * v - 1))) < 1e-3


def test_soliton_residue_and_nonsingularity(soliton_data, soliton_zeros):
    sol = sc.residue_constants(soliton_data, soliton_zeros)
    assert len(sol.c) == 1 and abs(sol.c[0]) > 1e-6
    val = sc.nonsingularity_value(sol.zeros[0], sol.c[0])
    assert val.real > 0


def test_winding_box_cross_validates_real_zero(soliton_data, soliton_zeros):
    k0 = soliton_zeros[0].real
    found = sc._box_zeros(soliton_data, k0 - 0.15, k0 + 0.15, -0.1, 0.1)
    assert len(found) == 1
    assert abs(found[0] - k0) < 1e-6


def test_zero_persists_under_perturbation(soliton_data, soliton_zeros):
    k0 = soliton_zeros[0].real
    locs = []
    for fac in (0.98, 1.02):
        d = sc.from_arrays(soliton_data.x, fac * soliton_data.u0, fac * soliton_data.u1)
        zs = sc._real_axis_zeros(d, k0 - 0.3, k0 + 0.3, n=40)
        assert len(zs) == 1
        locs.append(zs[0].real)
    assert abs(locs[0] - k0) < 0.05 and abs(locs[1] - k0) < 0.05
    assert (locs[0] - k0) * (locs[1] - k0) < 0  # moves through k0 monotonically


def counted_marches(monkeypatch):
    """List that gains one entry per sc.march_volterra call from now on."""
    calls = []
    march = sc.march_volterra

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("which", "X"))
        return march(*args, **kwargs)

    monkeypatch.setattr(sc, "march_volterra", counting)
    return calls


def test_zero_search_marches(soliton_data, soliton_zeros, monkeypatch):
    # one march per grid, per Newton step, per residual check and per winding box
    calls = counted_marches(monkeypatch)
    zeros = sc.find_s11_zeros(soliton_data)
    assert zeros == soliton_zeros
    assert len(calls) <= 10


def test_validators_march_once_per_question(data_small, refl_small, monkeypatch):
    # the segment (0, i), then X and XA at the four genericity probes
    calls = counted_marches(monkeypatch)
    sc.assumption_validators(data_small, refl_small)
    assert calls == ["X", "X", "XA"]


def test_validators_band_limited_passes(data_small, refl_small):
    rep = sc.assumption_validators(data_small, refl_small)
    assert rep["mass_condition"]["ok"]
    assert rep["no_high_frequency"]["ok"]
    assert rep["genericity_pm1"]["ok"]
    assert rep["ok"]


def test_validator_discriminates_high_frequency(data_small):
    # a plain (non-band-limited) Gaussian carries far more segment reflection
    raw = sc.gaussian(0.1, 0.8, L=30.0, n=4097)
    ys = np.linspace(0.2, 0.95, 10)
    r1_raw = sc.r1_values(raw, 1j * ys)
    r1_bl = sc.r1_values(data_small, 1j * ys)
    assert np.nanmax(np.abs(r1_raw)) > 50 * np.nanmax(np.abs(r1_bl))


def test_validator_rejects_mass_violation():
    x = np.linspace(-20, 20, 513)
    u1 = 0.1 * np.exp(-(x**2))  # nonzero mass
    d = sc.from_arrays(x, np.zeros_like(x), u1)
    rep = sc.assumption_validators(d)
    assert not rep["ok"] and not rep["mass_condition"]["ok"]
    with pytest.raises(ValueError):
        sc.residue_constants(d, [2.0])
