import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bqist import initial_data as ini
from bqist import pde
from bqist.config import ConfigError, NumericalError


def spectral_deriv(f, h, order):
    n = len(f)
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=h)
    return np.fft.irfft((1j * xi) ** order * np.fft.rfft(f), n=n)


def test_soliton_profile_solves_traveling_ode():
    # coarse grid keeps the xi^4 roundoff amplification below the tolerance
    v = 1.3
    d = pde.soliton_profile(v, 0.0, L=60.0, n=1025)
    U = d.u0[:-1]
    res = (v * v * spectral_deriv(U, d.h, 2) - spectral_deriv(U, d.h, 2)
           - spectral_deriv(U * U, d.h, 2) - spectral_deriv(U, d.h, 4))
    assert np.max(np.abs(res)) < 1e-8


def test_soliton_profile_domain_and_mass():
    with pytest.raises(ValueError):
        pde.soliton_profile(0.9)
    d = pde.soliton_profile(1.2, 0.0, L=50.0, n=2049)
    assert abs(d.mass()) < 1e-12


def test_soliton_amplitude_continuous_in_speed():
    # fitted amplitude a(v) = 3 (v^2 - 1)/2 -> 0 as v -> 1+
    amps = [pde.soliton_profile(v, L=400.0, n=2049).u0.max()
            for v in (1.1, 1.05, 1.02)]
    assert amps[0] > amps[1] > amps[2]
    assert amps[2] < 0.07
    for v, a in zip((1.1, 1.05, 1.02), amps):
        assert abs(a - 1.5 * (v * v - 1)) < 1e-10


def test_evolve_zero_data():
    d = ini.zero_data(L=40.0, n=257)
    snap = pde.evolve(d, 5.0, dt=0.25)[-1]
    assert np.max(np.abs(snap.u)) == 0.0


def cos_sinc(xi, tau):
    """cos(mu tau) and sin(mu tau) / mu for mu = xi sqrt(1 - xi^2): e^{A tau} =
    [[c, i xi s], [i xi (1 - xi^2) s, c]] on the filtered band (1 - xi^2 > 0)."""
    mu = xi * np.sqrt(np.maximum(1.0 - xi**2, 0.0))
    s = np.where(mu != 0.0, np.divide(np.sin(mu * tau), np.where(mu != 0, mu, 1.0)), tau)
    return np.cos(mu * tau), s


def linear_evolution(data, T, cutoff=pde.DEFAULT_CUTOFF):
    """u at time T of the linearized equation, in closed form on the filtered
    band: the stored grid's spectrum, zero above the cutoff, propagated by e^{A T}."""
    n = len(data.x) - 1
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=data.h)
    mask = (np.abs(xi) <= cutoff).astype(float)
    c, s = cos_sinc(xi, T)
    uh = np.fft.rfft(data.u0[:-1]) * mask
    wh = np.fft.rfft(data.v0[:-1]) * mask
    u = np.fft.irfft(c * uh + 1j * xi * s * wh, n=n)
    return np.append(u, u[0])


def test_evolve_linear_oracle():
    d = ini.gaussian_bandlimited(1e-6, 2.0, L=120.0, n=4097)
    snap = pde.evolve(d, 8.0, dt=0.05)[-1]
    assert np.max(np.abs(snap.u - linear_evolution(d, 8.0))) < 1e-8


def test_evolve_translates_soliton():
    v = 1.02
    d = pde.soliton_profile(v, -20.0, L=256.0, n=2049)
    snap = pde.evolve(d, 40.0, dt=0.05)[-1]
    ref = pde.soliton_profile(v, -20.0 + v * 40.0, L=256.0, n=2049)
    assert np.max(np.abs(snap.u - ref.u0)) < 1e-4


def snapshot_mass(snap):
    return float(np.trapezoid(snap.u, dx=snap.x[1] - snap.x[0]))


def snapshot_data(snap):
    """(u, u_t) of a snapshot as initial data, with w recovered spectrally."""
    n = len(snap.x) - 1
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=snap.x[1] - snap.x[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        wh = np.where(xi > 0, np.fft.rfft(snap.u_t[:-1]) / (1j * xi), 0.0)
    v0 = np.fft.irfft(wh, n=n)
    du0 = np.fft.irfft(1j * xi * np.fft.rfft(snap.u[:-1]), n=n)
    return ini.InitialData(x=snap.x.copy(), u0=snap.u.copy(), u1=snap.u_t.copy(),
                          v0=np.append(v0, v0[0]), du0=np.append(du0, du0[0]))


def time_reversed(data):
    """``data`` with t -> -t: u1 and v0 negated.  Evolving it forward by T
    evolves ``data`` back by T, with u unchanged and u_t negated."""
    return dataclasses.replace(data, u1=-data.u1, v0=-data.v0)


def test_mass_conservation_and_reversal():
    d = ini.gaussian_bandlimited(0.1, 2.0, L=120.0, n=4097)
    snap = pde.evolve(d, 10.0, dt=0.05)[-1]
    assert abs(snapshot_mass(snap) - np.trapezoid(d.u0, d.x)) < 1e-8
    back = pde.evolve(time_reversed(snapshot_data(snap)), 10.0, dt=0.05)[-1]
    n = len(d.x) - 1
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=d.h)
    u0_masked = np.fft.irfft(np.fft.rfft(d.u0[:-1]) * (np.abs(xi) <= 0.9), n=n)
    assert np.max(np.abs(back.u[:-1] - u0_masked)) < 1e-6


def reference_evolve(data, T, dt, cutoff=0.9):
    """Generic IF-RK4 on the stored grid that carries both components through the
    full 2x2 propagator, with a zero u-part of the nonlinearity: the oracle for
    pde.evolve (bit-exact where evolve's compute grid is the stored grid)."""
    n = len(data.x) - 1
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=data.h)
    mask = (np.abs(xi) <= cutoff).astype(float)
    uh = np.fft.rfft(data.u0[:-1]) * mask
    wh = np.fft.rfft(data.v0[:-1]) * mask

    def apply_prop(c, s, uh_, wh_):
        return c * uh_ + 1j * xi * s * wh_, 1j * xi * (1 - xi**2) * s * uh_ + c * wh_

    def nonlin(uh_, wh_):
        u = np.fft.irfft(uh_, n=n)
        return np.zeros_like(uh_), 1j * xi * (np.fft.rfft(u * u) * mask)

    cf, sf = cos_sinc(xi, dt)
    ch, sh = cos_sinc(xi, dt / 2)
    for _ in range(int(round(T / dt))):
        k1u, k1w = nonlin(uh, wh)
        eu, ew = apply_prop(ch, sh, uh, wh)
        d1u, d1w = apply_prop(ch, sh, k1u, k1w)
        k2u, k2w = nonlin(eu + 0.5 * dt * d1u, ew + 0.5 * dt * d1w)
        k3u, k3w = nonlin(eu + 0.5 * dt * k2u, ew + 0.5 * dt * k2w)
        fu, fw = apply_prop(cf, sf, uh, wh)
        e3u, e3w = apply_prop(ch, sh, k3u, k3w)
        k4u, k4w = nonlin(fu + dt * e3u, fw + dt * e3w)
        f1u, f1w = apply_prop(cf, sf, k1u, k1w)
        h2u, h2w = apply_prop(ch, sh, k2u + k3u, k2w + k3w)
        uh = (fu + (dt / 6.0) * (f1u + 2 * h2u + k4u)) * mask
        wh = (fw + (dt / 6.0) * (f1w + 2 * h2w + k4w)) * mask
    return np.fft.irfft(uh, n=n), np.fft.irfft(1j * xi * wh, n=n)


def test_evolve_matches_generic_stepper():
    # bit-identical where the compute grid is the stored one (m == n) ...
    d = ini.gaussian_bandlimited(0.1, 2.0, L=40.0, n=49)
    assert pde.alias_free_size(48, np.pi / d.h, 0.9) == 48
    snap = pde.evolve(d, 6.0, dt=0.1)[-1]
    u, ut = reference_evolve(d, 6.0, 0.1)
    assert np.array_equal(snap.u[:-1], u) and np.array_equal(snap.u_t[:-1], ut)

    # ... and equal up to roundoff where it is smaller (m = 144 of 2048 and 4096)
    def assert_close(snap, u, ut):
        assert np.max(np.abs(snap.u[:-1] - u)) <= 1e-13 * np.max(np.abs(u))
        assert np.max(np.abs(snap.u_t[:-1] - ut)) <= 1e-13 * np.max(np.abs(ut))

    d = ini.gaussian_bandlimited(0.1, 2.0, L=120.0, n=2049)
    assert_close(pde.evolve(d, 6.0, dt=0.1)[-1], *reference_evolve(d, 6.0, 0.1))
    # the time-reversed run from an evolved state, as in the reversal test
    fwd = pde.evolve(ini.gaussian_bandlimited(0.1, 2.0, L=120.0, n=4097), 10.0, dt=0.05)[-1]
    rev = time_reversed(snapshot_data(fwd))
    assert_close(pde.evolve(rev, 10.0, dt=0.05)[-1], *reference_evolve(rev, 10.0, 0.05))


def test_alias_free_size_bound():
    # the compact, readme and long_time PDE grids, the blow-up test's grid, and
    # a cutoff at the Nyquist guard's edge, where only the stored grid qualifies
    for L, n, cutoff, expected in [(380.0, 4096, 0.9, 450), (760.0, 8192, 0.9, 900),
                                   (1520.0, 16384, 0.9, 1800), (40.0, 256, 2.5, 128),
                                   (40.0, 48, np.pi * 48 / 160, 48)]:
        m = pde.alias_free_size(n, np.pi / (2 * L / n), cutoff)
        assert m == expected and m <= n
        assert np.pi * m / (2 * L) >= 2 * cutoff * (1 - 1e-12)
    d = ini.zero_data(L=40.0, n=49)
    pde.evolve(d, 1.0, dt=0.5, cutoff=np.pi / d.h / 2)  # the guard lets it through


def test_evolve_steps_on_alias_free_grid(monkeypatch):
    # on a compact-shaped PDE grid a step makes 2 rfft and 2 irfft calls, all of
    # length m <= n/8 (stages 1 and 3, then 2 and 4, in one batched pair each);
    # the blow-up check of the last state takes one more irfft; only the two
    # initial transforms and the snapshot's two use n
    d = ini.gaussian_bandlimited(0.01, 2.0, L=380.0, n=4097)
    n, m = 4096, 450  # the smallest 5-smooth m with pi m / 760 >= 2 * 0.9
    assert m <= n // 8
    lengths = {"rfft": [], "irfft": []}
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def counting_rfft(a, *args, **kwargs):
        lengths["rfft"].append(np.shape(a)[-1])
        return rfft(a, *args, **kwargs)

    def counting_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        lengths["irfft"].append(out.shape[-1])
        return out

    monkeypatch.setattr(pde.np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(pde.np.fft, "irfft", counting_irfft)
    pde.evolve(d, 2.0, dt=0.1)
    assert sorted(lengths["rfft"]) == [m] * (2 * 20) + [n] * 2
    assert sorted(lengths["irfft"]) == [m] * (2 * 20 + 1) + [n] * 2


def test_evolve_inverse_transforms_per_step(monkeypatch):
    # stages 1 and 3 share one batched inverse FFT, and stages 2 and 4 another;
    # the blow-up check reads stage 1's field, the state's.  Plus the last
    # state's field for its check and the snapshot's u and u_t
    calls = []
    irfft = np.fft.irfft

    def counting(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(pde.np.fft, "irfft", counting)
    d = ini.gaussian_bandlimited(0.05, 2.0, L=60.0, n=1025)
    pde.evolve(d, 2.0, dt=0.1)
    assert len(calls) == 2 * 20 + 1 + 2


def test_filter_idempotent():
    d = ini.gaussian_bandlimited(0.05, 2.0, L=120.0, n=4097)
    once = pde.evolve(d, 1.0, dt=0.5)[-1]
    h1 = np.fft.rfft(once.u[:-1])
    mask = np.abs(2 * np.pi * np.fft.rfftfreq(len(once.u) - 1, d=d.h)) <= 0.9
    assert np.array_equal((h1 * mask) * mask, h1 * mask)  # bit-exact
    # the evolved state carries no content above the cutoff beyond roundoff
    assert np.max(np.abs(h1[~mask])) < 1e-14 * np.max(np.abs(h1))


def test_evolve_refuses_before_building_propagators(monkeypatch):
    # evolve steps forward only, to snapshots a whole number of dt steps in
    d = ini.gaussian_bandlimited(0.05, 2.0, L=60.0, n=1025)

    def no_propagator(*args):
        raise AssertionError("evolve built its propagators")

    monkeypatch.setattr(pde, "_propagator", no_propagator)
    for T, times in [(0.0, None), (-2.0, None), (2.0, [-1.0]), (2.0, [0.0]),
                     (2.0, [1.05]), (2.0, [1.0, 2.5])]:
        with pytest.raises(ValueError):
            pde.evolve(d, T, dt=0.1, snapshot_times=times)


def test_nyquist_guard():
    d = ini.zero_data(L=40.0, n=33)  # Nyquist ~ 1.26 < 1.8
    with pytest.raises(ValueError):
        pde.evolve(d, 1.0, dt=0.5)


def test_blowup_detector():
    # cutoff above the instability threshold lets |xi| > 1 modes grow; with a
    # large step the detector's doubling test trips, naming the time and the
    # band of the data's wavenumber 2.4, where |u hat| is largest
    x = np.linspace(-40, 40, 257)
    u0 = 1e-3 * np.cos(2.4 * x)
    d = ini.from_arrays(x, u0, np.zeros_like(x))
    with pytest.raises(NumericalError, match=r"instability detected at t=0\.800: \|u hat\| "
                                             r"is largest in the band \[2\.4, 2\.5\) of xi"):
        pde.evolve(d, 12.0, dt=0.4, cutoff=2.5)


def test_snapshot_trig_interpolation():
    d = ini.gaussian_bandlimited(0.05, 2.0, L=120.0, n=2049)
    snap = pde.evolve(d, 2.0, dt=0.1)[-1]
    sub = snap.x[200:210]
    assert np.max(np.abs(snap.eval_at(sub) - snap.u[200:210])) < 1e-10


def test_compare_self_is_zero():
    d = ini.gaussian_bandlimited(0.05, 2.0, L=200.0, n=2049)
    snaps = pde.evolve(d, 60.0, dt=0.1, snapshot_times=[60.0])

    zetas = np.linspace(0.65, 0.9, 40)
    rep = pde.compare(zetas, [snaps[0].eval_at(zetas * 60.0)], snaps)
    assert rep["rows"][0]["max_err"] < 1e-12


def test_compare_window_guard():
    d = ini.gaussian_bandlimited(0.05, 2.0, L=100.0, n=1025)
    snaps = pde.evolve(d, 120.0, dt=0.5, snapshot_times=[120.0])
    with pytest.raises(ConfigError, match="leaves the unwrapped domain at t=120.0.*rerun evolve"):
        pde.compare(np.linspace(0.65, 0.9, 10), [np.zeros(10)], snaps)


def test_import_leaves_scattering_unloaded():
    # pde takes InitialData from initial_data, which does not import scattering, so
    # compare never compiles scattering
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, bqist.pde; print('bqist.scattering' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
