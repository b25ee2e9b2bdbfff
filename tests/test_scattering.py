import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from bqist import cli, pde
from bqist import initial_data as ini
from bqist import reflection as rf
from bqist import scattering as sc
from bqist.config import TOLERANCES, NumericalError, RunConfig
from bqist.spectral import OMEGA, SQRT3, phase_values


def rtilde(k):
    return (OMEGA**2 - k**2) / (1 - OMEGA**2 * k**2)


# ---------------------------------------------------------------------------
# initial data and potential
# ---------------------------------------------------------------------------


def test_zero_data_trivial():
    d = ini.zero_data(L=15.0, n=513)
    k = np.array([np.exp(0.7j), 1.4 + 0.3j])
    for which in ("X", "XA"):
        assert np.max(np.abs(sc.scattering_columns(d, k, which) - np.eye(3))) == 0.0
        r, _ = sc.reflection_ratio(d, np.exp(1j * np.array([0.4, 2.0])), which)
        assert np.max(np.abs(r)) == 0.0
    assert sc.find_s11_zeros(d) == []
    rep = sc.assumption_validators(d)
    assert rep["ok"]


GRID_BUILDERS = {
    "zero_data": lambda n: ini.zero_data(L=20.0, n=n),
    "gaussian": lambda n: ini.gaussian(0.1, 2.0, n=n),
    "gaussian_bandlimited": lambda n: ini.gaussian_bandlimited(0.01, 2.0, L=60.0, n=n),
    "soliton_profile": lambda n: pde.soliton_profile(1.3, n=n),
    "from_arrays": lambda n: ini.from_arrays(np.linspace(-20.0, 20.0, n), np.zeros(n),
                                            np.zeros(n)),
}


@pytest.mark.parametrize("name", sorted(GRID_BUILDERS))
def test_constructors_share_the_grid_rule(name):
    """Every constructor takes its grid rule from InitialData: an odd number of
    points, at least 3."""
    build = GRID_BUILDERS[name]
    assert len(build(33).x) == 33
    with pytest.raises(ValueError, match="odd number"):
        build(32)
    for n in (0, 1):
        with pytest.raises(ValueError, match="3 points"):
            build(n)


def test_band_limited_construction(data_small):
    assert data_small.tail_max() < 1e-11
    assert abs(data_small.mass()) < 1e-12
    # spectrum confined below the unstable band
    xs = data_small.x[:-1]
    xi = 2 * np.pi * np.fft.rfftfreq(len(xs), d=data_small.h)
    spec = np.abs(np.fft.rfft(data_small.u0[:-1]))
    assert spec[xi > 0.95].max() < 1e-11 * spec.max()
    assert spec[xi > 1.0].max() < 1e-14 * spec.max()


def frame_by_definition(k):
    """(M1, M2) with U(x, k) = w31(x) M1 + w32(x) M2: M_j = P^-1 E_{3j} P with
    P = [1; l; l^2], from the phases alone (the oracles share no frame code
    with the marches)."""
    l = phase_values(k).l.T
    P = np.stack([np.ones_like(l), l, l**2], axis=1)
    E31, E32 = np.zeros((2, 3, 3), dtype=complex)
    E31[2, 0] = E32[2, 1] = 1.0
    Pinv = np.linalg.inv(P)
    return Pinv @ E31 @ P, Pinv @ E32 @ P


def test_potential_middle_factor_entries():
    d = ini.gaussian(0.3, 1.5, L=20.0, n=513)
    k = np.array([0.8 + 0.4j])
    M1, M2 = frame_by_definition(k)
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
    d = ini.gaussian(0.1, 2.0, L=20.0, n=513)
    with pytest.raises(NumericalError, match="k within 1e-08 of a sixth root of unity"):
        sc.march_volterra(d, [1.0 + 1e-10j], "X")


def test_rank_one_frame_is_the_definition():
    """The marches build M1 = a (x) 1 and M2 = a (x) l from sc._frame; they and
    their XA transposes equal P^-1 E_{3j} P bit for bit at every kind of k the
    program marches: the reflection nodes, the zero-search contours, the
    genericity probes, a Newton triple and points EXCLUSION from each root."""
    nodes = np.exp(1j * rf.ReflectionData.nodes(56))
    contours = np.concatenate([k for k, _ in sc.search_contours()])
    probes = np.array([ks + r * np.exp(1j * np.pi / 3) for ks in (1.0, -1.0)
                       for r in (1e-2, 5e-3)])
    near_roots = np.exp(1j * np.pi * np.arange(6) / 3) * (1 + rf.EXCLUSION)
    assert (len(nodes), len(contours)) == (336, 768)
    k = np.concatenate([nodes, contours, probes, sc._central_points(2.13)[0], near_roots])
    l, a = sc._frame(k)
    M1, M2 = np.repeat(a[:, :, None], 3, axis=2), a[:, :, None] * l.T[:, None, :]
    R1, R2 = frame_by_definition(k)
    for got, want in ((M1, R1), (M2, R2)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.swapaxes(got, 1, 2), np.swapaxes(want, 1, 2))


# ---------------------------------------------------------------------------
# Volterra solutions
# ---------------------------------------------------------------------------


def reference_march(data, k, which, cols, keep_trajectory=False):
    """The matmul RK4 march as reflection.csv was first made with: U rebuilt at
    every stage and sign * [diag l, X] + U X, one (3, 3) @ (3, ncol) product
    per k (a copy kept to pin the bits).  Returns X(-L), or the trajectory
    from x = -L up to x = L if ``keep_trajectory``: the residual oracles
    check that trajectory, and that its first entry is the production X(-L)."""
    sign, transpose = {"X": (+1, False), "XA": (-1, True)}[which]
    M1, M2 = frame_by_definition(k)
    w31, w32 = sc.potential_weights(data)
    if transpose:
        M1, M2 = np.swapaxes(M1, 1, 2).copy(), np.swapaxes(M2, 1, 2).copy()
        w31, w32 = -w31, -w32
    l = phase_values(k).l.T
    X = np.broadcast_to(np.eye(3, dtype=complex)[:, cols], (len(k), 3, len(cols))).copy()
    traj = [X]
    lcol = l[:, :, None]
    lrow = l[:, None, list(cols)]

    def F(ui31, ui32, Xc):
        U = ui31 * M1 + ui32 * M2
        comm = lcol * Xc - Xc * lrow
        return sign * comm + U @ Xc

    step = -2 * data.h
    for i in range(len(data.x) - 1, 0, -2):
        k1 = F(w31[i], w32[i], X)
        k2 = F(w31[i - 1], w32[i - 1], X + 0.5 * step * k1)
        k3 = F(w31[i - 1], w32[i - 1], X + 0.5 * step * k2)
        k4 = F(w31[i - 2], w32[i - 2], X + step * k3)
        X = X + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        traj.append(X)
    return np.stack(traj[::-1]) if keep_trajectory else X


def test_volterra_boundary_and_zero_data():
    d0 = ini.zero_data(L=10.0, n=257)
    X = sc.march_volterra(d0, np.array([0.6 + 0.1j]), "X")
    assert np.max(np.abs(X - np.eye(3))) == 0.0
    d = ini.gaussian(0.2, 2.0, L=20.0, n=1025)
    k = np.array([np.exp(0.5j)])
    traj = reference_march(d, k, "X", (0, 1, 2), keep_trajectory=True)
    assert np.max(np.abs(traj[-1] - np.eye(3))) == 0.0  # X(L) = I exactly
    assert np.array_equal(sc.march_volterra(d, k, "X"), traj[0])


def test_volterra_residual_oracle(data_small):
    """Plug the marched X back into its integral equation (Simpson quadrature)."""
    d = ini.gaussian_bandlimited(0.05, 2.0, L=60.0, n=8193)
    rng = np.random.default_rng(7)
    k = np.exp(1j * rng.uniform(0.1, 1.9, 4))
    traj = reference_march(d, k, "X", (0, 1, 2), keep_trajectory=True)
    assert np.array_equal(sc.march_volterra(d, k, "X"), traj[0])
    xe = d.x[::2]
    M1, M2 = frame_by_definition(k)
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
    d = ini.gaussian_bandlimited(0.05, 2.0, L=60.0, n=8193)
    k = np.exp(1j * np.array([0.8, 2.4]))
    traj = reference_march(d, k, "XA", (0, 1, 2), keep_trajectory=True)
    assert np.array_equal(sc.march_volterra(d, k, "XA"), traj[0])
    xe = d.x[::2]
    M1, M2 = frame_by_definition(k)
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


def test_circle_march_bit_identical():
    """The packed matmul step against one product per k, bit for bit: batch
    sizes that do and do not fill whole blocks of sc.PACK, every column set
    the callers ask for, and the 336 k of reflection_coefficients (84 packed
    blocks) on a short grid."""
    d = ini.gaussian(0.2, 2.0, L=20.0, n=1025)
    for nk in (1, 5, 12):
        k = np.exp(1j * np.linspace(0.1, 6.1, nk))
        for which in ("X", "XA"):
            for cols in ((0,), (0, 1), (0, 1, 2)):
                assert np.array_equal(sc.march_volterra(d, k, which, cols=cols),
                                      reference_march(d, k, which, cols)), (nk, which, cols)
    short = ini.gaussian(0.2, 2.0, L=20.0, n=129)
    k = np.exp(1j * rf.ReflectionData.nodes(56))
    assert len(k) == 336
    for which in ("X", "XA"):
        assert np.array_equal(sc.march_volterra(short, k, which, cols=(0, 1)),
                              reference_march(short, k, which, (0, 1))), which


def test_block_diagonal_product_keeps_bits():
    """The packing trick on its own: potentials written through the diagonal
    block view of _march_matmul into zeroed (nb, 3 PACK, 3 PACK) blocks, times
    X packed by a reshape, equal the stack of (3, 3) @ (3, ncol) products bit
    for bit, for random complex entries of mixed scale."""
    rng = np.random.default_rng(3)

    def draw(*shape):
        scale = 10.0 ** rng.uniform(-8, 8, shape)
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    for nb in (1, 3, 16):
        nk = nb * sc.PACK
        for ncol in (2, 3):
            M, X = draw(nk, 3, 3), draw(nk, 3, ncol)
            B = np.zeros((nb, 3 * sc.PACK, 3 * sc.PACK), dtype=complex)
            view = np.einsum("bjrjc->bjrc", B.reshape(nb, sc.PACK, 3, sc.PACK, 3))
            view[...] = M.reshape(nb, sc.PACK, 3, 3)
            for s in range(nk):  # system s sits on diagonal block s % PACK of block s // PACK
                j = 3 * (s % sc.PACK)
                assert np.array_equal(B[s // sc.PACK, j:j + 3, j:j + 3], M[s])
            assert np.count_nonzero(B) == np.count_nonzero(M)
            packed = B @ X.reshape(nb, 3 * sc.PACK, ncol)
            assert np.array_equal(packed.reshape(nk, 3, ncol), M @ X), (nb, ncol)


def test_rank_one_step_matches_matmul_off_circle(data_small, soliton_data):
    """Both steps on the off-circle k that scatter marches, each column subset
    where scatter asks for it (elsewhere the other columns grow past 1e100)."""
    rims = np.concatenate([k[::16] for k, _ in sc.search_contours()])
    segment = 1j * np.linspace(0.06, 0.985, 40)[::4]
    probes = np.array([ks + r * np.exp(1j * np.pi / 3) for ks in (1.0, -1.0)
                       for r in (1e-2, 5e-3)])
    newton = sc._central_points(2.13)[0]
    questions = [
        ("X", (0,), [rims, segment, newton, probes]),        # s11: zero search, s11'
        ("X", (0, 1), [segment, newton, probes]),             # r1 on (0, i), s12 at a real zero
        ("X", (0, 1, 2), [probes]),                           # the genericity probes
        ("XA", (0,), [probes]),
        ("XA", (0, 1), [probes]),
        ("XA", (0, 1, 2), [probes]),
    ]
    for d in (data_small, soliton_data):
        for which, cols, families in questions:
            k = np.concatenate(families)
            ref = sc._march_matmul(d, k, which, cols)
            fast = sc.march_volterra(d, k, which, cols)  # off the circle: the rank-one step
            scale = np.max(np.abs(ref), axis=(0, 1))
            err = np.max(np.abs(fast - ref), axis=(0, 1))
            assert np.all(err <= 1e-9 * scale), (which, cols, err / scale)


def test_batched_march_keeps_each_question_bits(data_small, soliton_data):
    """Each question of one mixed X/XA batch equals that question marched alone,
    bit for bit: every column set, on the off-circle k that scatter marches,
    and the on-circle pair of reflection_coefficients."""
    rims = np.concatenate([k[::16] for k, _ in sc.search_contours()])
    segment = 1j * np.linspace(0.06, 0.985, 40)
    probes = np.array([ks + r * np.exp(1j * np.pi / 3) for ks in (1.0, -1.0)
                       for r in (1e-2, 5e-3)])
    newton = sc._central_points(2.13)[0]
    questions = [(rims, "X", (0,)), (segment, "X", (0, 1)), (probes, "X", (0, 1, 2)),
                 (probes, "XA", (0, 1, 2)), (newton, "X", (0, 1)), (newton, "XA", (0,)),
                 (probes, "XA", (0, 1))]
    for d, qs in ((data_small, questions), (soliton_data, questions),
                  (data_small, circle_questions())):
        batch = sc.march_batch(d, qs)
        assert len(batch) == len(qs)
        for (k, which, cols), X in zip(qs, batch):
            assert X.shape == (len(k), 3, len(cols))
            assert np.array_equal(X, sc.march_volterra(d, k, which, cols)), (which, cols)


def circle_questions():
    """The two questions of reflection_coefficients, at a few of its nodes."""
    k = np.exp(1j * np.array([0.3, 1.4, 2.5, 4.0]))
    return [(k, "X", (0, 1)), (k, "XA", (0, 1))]


def reflection_arrays(data):
    """The n_per_arc = 8 samples, and r1, r2 within BRIDGE_USE of each kappa,
    read through bridge fits that have 6 nodes each."""
    rd = sc.reflection_coefficients(data, n_per_arc=8)
    near = np.mod(rf.ARC_EDGES[:6, None] + 0.5 * rd.BRIDGE_USE * np.array([-1, 1]),
                  2 * np.pi).ravel()
    return [rd.theta, rd.r1, rd.r2, rd.s11, rd.sA11, rd.r1_at(near), rd.r2_at(near)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def in_this_process(monkeypatch):
    """A context manager inside which _in_two_processes calls ``first``, then
    ``second``, in this process: nothing forks and every march is seen here.
    The one-process references of the fork tests are computed inside it."""

    @contextlib.contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            patch.setattr(sc, "_in_two_processes", lambda first, second: (first(), second()))
            yield

    return swapped


def counted_forks(monkeypatch):
    """List that gains this process's pid per os.fork from now on."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(sc.os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("extra", [0, 1])
def test_circle_batch_in_two_processes_keeps_bits(data_small, monkeypatch, extra):
    """The helper marches the X batch in a forked child and the XA batch here;
    each comes back writeable and equal to the one-process march, and the
    child is reaped.  A third question joins the child's run."""
    x, xa = circle_questions()
    child_qs = [x] + [(x[0][:3], "X", (1,))] * extra
    alone = sc.march_batch(data_small, child_qs), sc.march_batch(data_small, [xa])
    forks = counted_forks(monkeypatch)
    both = sc._in_two_processes(partial(sc.march_batch, data_small, child_qs),
                                partial(sc.march_batch, data_small, [xa]))
    assert len(forks) == 1
    for qs, batch, ref in zip((child_qs, [xa]), both, alone):
        assert len(batch) == len(qs)
        for (k, _, cols), X, R in zip(qs, batch, ref):
            assert X.shape == (len(k), 3, len(cols)) and X.flags.writeable
            assert np.array_equal(X, R)
    assert_no_child_left()


@pytest.mark.parametrize("thread", [False, True], ids=["one_thread", "two_threads"])
def test_reflection_marches_in_two_processes_keep_bits(data_small, monkeypatch, thread,
                                                       in_this_process):
    """The X march runs in a forked child and XA here, and every array equals
    the one-process run's.  A second live Python thread keeps both marches
    here: nothing forks."""
    with in_this_process():
        alone = reflection_arrays(data_small)
    forks = counted_forks(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if thread:
        waiter.start()
    try:
        arrays = reflection_arrays(data_small)
    finally:
        release.set()
        if thread:
            waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert len(forks) == (0 if thread else 1)
    for a, ref in zip(arrays, alone):
        assert np.array_equal(a, ref)
    assert_no_child_left()


@pytest.mark.parametrize("failing", ["X", "XA"])  # X fails in the child, XA here
def test_reflection_raises_the_failing_march(data_small, monkeypatch, failing):
    matmul = sc._march_matmul

    def failing_matmul(data, k, which, cols):
        if which == failing:
            raise ArithmeticError(f"{which} march failed")
        return matmul(data, k, which, cols)

    monkeypatch.setattr(sc, "_march_matmul", failing_matmul)
    with pytest.raises(ArithmeticError, match=f"^{failing} march failed$"):
        sc.reflection_coefficients(data_small, n_per_arc=8)
    assert_no_child_left()


def test_reflection_reports_a_child_that_dies(data_small, monkeypatch):
    """A child killed before it writes its result is a RuntimeError naming the
    exit status, and the child is reaped.  Only a forked child kills itself."""
    matmul, parent = sc._march_matmul, os.getpid()

    def dying_matmul(data, k, which, cols):
        if which == "X" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return matmul(data, k, which, cols)

    monkeypatch.setattr(sc, "_march_matmul", dying_matmul)
    with pytest.raises(RuntimeError, match=f"ended with status {-signal.SIGKILL}$"):
        sc.reflection_coefficients(data_small, n_per_arc=8)
    assert_no_child_left()


def test_grid_refinement_stable():
    vals = []
    for n in (2049, 4097):
        d = ini.gaussian(0.1, 2.0, L=30.0, n=n)
        vals.append(sc.scattering_columns(d, np.exp(1j * np.array([1.0])), "X")[0, 0, 0])
    assert abs(vals[1] - vals[0]) < 1e-9


def test_translated_samples_obey_the_translation_law():
    """Samples moved by s give r1 e^{-s(l1 - l2)}, wherever the grid starts."""
    d = ini.gaussian(0.05, 2.0, L=20.0, n=1025)
    base = ini.from_arrays(d.x, d.u0, d.u1)
    k = np.exp(1j * np.linspace(0.3, 1.2, 5))
    r0, _ = sc.reflection_ratio(base, k, "X")
    l = phase_values(k).l
    for shift in (25.0, -5.0, 20.0):  # grids [5, 45], [-25, 15] and [0, 40]
        r, _ = sc.reflection_ratio(ini.from_arrays(d.x + shift, d.u0, d.u1), k, "X")
        law = r0 * np.exp(-shift * (l[0] - l[1]))
        assert np.max(np.abs(r - law)) < 1e-12 * np.max(np.abs(r0))


# ---------------------------------------------------------------------------
# scattering matrices and reflection coefficients
# ---------------------------------------------------------------------------


def test_s11_symmetries(data_small):
    rng = np.random.default_rng(3)
    th = rng.uniform(0.05, 2 * np.pi - 0.05, 14)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs((th[:, None] - kap + np.pi) % (2 * np.pi) - np.pi), axis=1) > 0.02][:8]
    k = np.exp(1j * th)
    s11 = sc.scattering_columns(data_small, k, "X")[:, 0, 0]
    s11_rot = sc.scattering_columns(data_small, OMEGA / k, "X")[:, 0, 0]
    assert np.max(np.abs(s11 - s11_rot)) < 1e-8
    sA11 = sc.scattering_columns(data_small, k, "XA")[:, 0, 0]
    s11_inv = sc.scattering_columns(data_small, 1 / np.conj(k), "X")[:, 0, 0]
    assert np.max(np.abs(sA11 - np.conj(s11_inv))) < 1e-8


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


def test_r2_pole_and_zero_scaling(data_small):
    # simple pole at -omega^2 = e^{i pi/3}: (k - p) r2 stabilizes while r2 grows
    p = np.exp(1j * np.pi / 3)
    scaled, raw = [], []
    for eps in (4e-3, 2e-3):
        r2, _ = sc.reflection_ratio(data_small, p * np.exp(1j * eps), "XA")
        scaled.append(abs((p * np.exp(1j * eps) - p) * r2[0]))
        raw.append(abs(r2[0]))
    assert 0.5 < scaled[1] / scaled[0] < 2.0
    assert raw[1] > 1.5 * raw[0]
    vals = []
    for eps in (4e-3, 2e-3):
        r2, _ = sc.reflection_ratio(data_small, np.exp(1j * (2 * np.pi / 3 + eps)), "XA")
        vals.append(abs(r2[0]))
    assert vals[1] < 0.6 * vals[0]  # simple zero at omega


def test_reflection_decay_at_infinity(data_small):
    mags = []
    for R in (5.0, 10.0, 20.0):
        r1, _ = sc.reflection_ratio(data_small, -1j * R, "X")
        mags.append(abs(r1[0]))
    assert mags[2] < 1e-6 and mags[2] <= mags[1] <= mags[0]


def test_interpolant_accuracy(refl_small, data_small):
    th = np.array([1e-3, 2.5e-3, 0.02, 0.4, np.pi / 3 + 1.5e-3,
                   2 * np.pi / 3 - 1.2e-3, 2 * np.pi / 3 - 2e-4, 3.0, 4.0, 5.5])
    r1i = refl_small.r1_at(th)
    r2i = refl_small.r2_at(th)
    r1d, r2d = (sc.reflection_ratio(data_small, np.exp(1j * th), which)[0]
                for which in ("X", "XA"))
    assert np.max(np.abs(r1i - r1d)) < 1e-9
    assert np.max(np.abs(r2i - r2d)) < 1e-9


def test_f_times_abs_s11_squared_is_one_on_the_table(refl_small):
    # f(k) = 1 + r1 r2(k) + r1 r2(omega/k) is 1/|s11(k)|^2 on the circle; omega/k has
    # the angle 2 pi/3 - theta, and each node's partner is a node too (to 8.9e-16).
    # Measured: 9.2e-13 here, 31.8 with the sign of r2 flipped
    th = refl_small.theta
    gap = np.abs((2 * np.pi / 3 - th[:, None]) % (2 * np.pi) - th)
    partner = gap.argmin(axis=1)
    assert np.max(gap[np.arange(len(th)), partner]) < 1e-15
    assert sorted(partner) == list(range(len(th)))
    rr = refl_small.r1 * refl_small.r2
    f = 1 + rr + rr[partner]
    residual = np.max(np.abs(f * np.abs(refl_small.s11) ** 2 - 1))
    assert residual < 1e-11
    # validators.json's circle_identity_residual pairs the nodes by their arcs
    assert refl_small.circle_identity_residual() == residual


# Measured over 60 draws: 1.0e-11 to 1.4e-8 (a = 0.02, w = 3, u1 = -u0'), growing with
# the amplitude.  The grid step sets the size: that draw reads 4.6e-10 at n = 2049 and
# 1.7e-11 at n = 4097.  Bound = 10x the largest
@settings(max_examples=30, deadline=None)
@given(amplitude=st.floats(1e-3, 2e-2), width=st.floats(1.5, 3.0),
       u1_mode=st.sampled_from(["zero", "minus_du0"]))
def test_f_times_abs_s11_squared_is_one_on_drawn_data(amplitude, width, u1_mode):
    """f |s11|^2 = 1 over the node pairs theta, 2 pi/3 - theta of the table of
    drawn gaussian_bl data, on one grid: L = 60, n = 1025, 24 nodes per arc."""
    data = ini.gaussian_bandlimited(amplitude, width, L=60.0, n=1025, u1_mode=u1_mode)
    assert sc.reflection_coefficients(data, n_per_arc=24).circle_identity_residual() < 1.5e-7


# bound = about 10x the measured maximum; sign of r2 flipped: 69, 2.8e3 and 31
@pytest.mark.parametrize("name, bound", [("data_small", 2e-11), ("data_acc", 1e-9),
                                         ("data_compact", 2e-10)])
def test_f_times_abs_s11_squared_is_one_off_the_table(request, name, bound):
    """f |s11|^2 = 1 at angles marched directly, not read from the table: 12 spread
    over the circle and 12 within 1.5e-3 and 2e-2 of the sixth roots of unity, each
    with its partner 2 pi/3 - theta.  Measured: 2.3e-12 (data_small, 3.6e-14 away
    from the roots), 1.2e-10 (data_acc) and 2.1e-11 (data_compact); the largest sit
    at the roots, where |s11|^2 magnifies the cancellation in f."""
    data = request.getfixturevalue(name)
    kap = np.pi * np.arange(6) / 3
    th = np.concatenate([2 * np.pi * (np.arange(12) + 0.37) / 12,
                         (kap + 1.5e-3) % (2 * np.pi), (kap - 2e-2) % (2 * np.pi)])
    th = np.concatenate([th, (2 * np.pi / 3 - th) % (2 * np.pi)])
    assert np.min(np.abs(th[:, None] - np.pi * np.arange(7) / 3)) > 1e-3
    k = np.exp(1j * th)
    r1, s11 = sc.reflection_ratio(data, k, "X")
    r2, _ = sc.reflection_ratio(data, k, "XA")
    rr = r1 * r2
    f = 1 + rr + np.roll(rr, len(th) // 2)  # the partner of th[j] is th[j -+ 24]
    assert np.max(np.abs(f * np.abs(s11) ** 2 - 1)) < bound


def test_reflection_at_keeps_the_shape_of_its_angles(refl_small):
    """r1_at and r2_at give a scalar for a float and an array of n values for n
    angles, n = 1 included."""
    for at in (refl_small.r1_at, refl_small.r2_at):
        pair = at(np.array([0.5, 4.0]))
        assert pair.shape == (2,)
        assert np.shape(at(0.5)) == () and np.isclose(at(0.5), pair[0], rtol=1e-14, atol=0)
        one = at(np.array([0.5]))
        assert one.shape == (1,) and np.isclose(one[0], pair[0], rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# zeros, residues, validators
# ---------------------------------------------------------------------------


def test_soliton_reflectionless(soliton_data):
    th = np.linspace(0.05, 2 * np.pi - 0.05, 30)
    kap = np.pi * np.arange(7) / 3
    th = th[np.min(np.abs((th[:, None] - kap + np.pi) % (2 * np.pi) - np.pi), axis=1) > 5e-3]
    r1, _ = sc.reflection_ratio(soliton_data, np.exp(1j * th), "X")
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


def test_contour_moments_cross_validate_real_zero(soliton_data, soliton_zeros):
    k0 = soliton_zeros[0].real
    k, w = sc._sector_contour(k0 - 0.15, k0 + 0.15, -0.05, 0.05)
    s11 = partial(sc.s11_values, soliton_data)
    found = sc._contour_zeros(s11, k, w, s11(k))
    assert len(found) == 1
    assert abs(found[0] - k0) < 1e-6


def test_search_contours_admissible():
    """Every contour node is admissible except those in the strip between the
    sector's real edge and the contour's lower ray, SECTOR_MARGIN past it."""
    assert len(sc.search_contours()) == len(sc.ADMISSIBLE_SECTORS)
    for (k, w), (lo, *_) in zip(sc.search_contours(), sc.ADMISSIBLE_SECTORS):
        assert len(k) == 4 * sc.N_EDGE
        past_edge = np.angle(k * np.exp(-1j * lo))  # arg k - lo, in (-pi, pi]
        strip = (past_edge < 0) & (past_edge > -sc.SECTOR_MARGIN - 1e-12)
        assert np.count_nonzero(strip) > sc.N_EDGE  # the lower ray and parts of both arcs
        assert [sc._in_admissible_region(complex(kk)) for kk in k] == list(~strip)
        assert abs(np.sum(w)) < 1e-12  # a closed contour
    # {|k| > 1, 0 < arg k < pi/6} and {|k| < 1, -pi < arg k < -5 pi/6}
    inside = [1.5 * np.exp(0.5j), 3.9 * np.exp(0.01j), 0.5 * np.exp(-2.7j), 0.99 * np.exp(-3.1j)]
    outside = [1.5 * np.exp(0.55j), 0.5 * np.exp(0.3j), 0.5 * np.exp(-2.55j), 1.01 * np.exp(-2.7j),
               np.exp(0.3j), np.exp(-2.7j)]
    assert all(sc._in_admissible_region(complex(k)) for k in inside)
    assert not any(sc._in_admissible_region(complex(k)) for k in outside)


def test_contour_zeros_analytic():
    """Known zeros near the sector edges, with a real zero inside the contour
    and a pole at k = 1, in both sectors."""
    (kr, wr), (kl, wl) = sc.search_contours()
    m = 2 * sc.SECTOR_MARGIN
    cases = [
        (kr, wr, 2.13, [1.3 + 0.06j, 3.0 * np.exp(1j * (np.pi / 6 - m)), 1.1 * np.exp(0.25j)]),
        (kl, wl, -0.5, [0.6 * np.exp(-1j * (np.pi - m)), 0.9 * np.exp(-1j * (5 * np.pi / 6 + m)),
                        0.1 * np.exp(-0.9j * np.pi)]),
    ]
    for k, w, real_zero, zeros in cases:
        def h(q):
            return np.exp(0.3 * q) / (q - 1)

        for n in range(4):
            zs = [real_zero] + zeros[:n]

            def f(q):
                return np.prod([q - z for z in zs], axis=0) * h(q)

            found = sc._contour_zeros(f, k, w, f(k))
            assert len(found) == n + 1
            for j, z in enumerate(zs):
                # Newton stops at |f| < NEWTON_TOL, so it places z to NEWTON_TOL / |f'(z)|
                slope = abs(np.prod([z - y for y in zs[:j] + zs[j + 1:]]) * h(z))
                assert min(abs(g - z) for g in found) * slope < sc.NEWTON_TOL


def test_find_s11_zeros_drops_the_strip_past_the_real_edge(data_small, monkeypatch):
    """A real zero and an admissible nonreal zero are kept; a zero between the
    real edge and the contour's lower ray, inside the contour, is not."""
    real, nonreal, strip = 2.5, 1.5 * np.exp(0.3j), 2.0 * np.exp(-0.5j * sc.SECTOR_MARGIN)
    assert not sc._in_admissible_region(strip)

    def fake_s11(data, k):
        k = np.atleast_1d(np.asarray(k, dtype=complex))
        return (k - real) * (k - nonreal) * (k - strip) * np.exp(0.2 * k)

    monkeypatch.setattr(sc, "s11_values", fake_s11)
    zeros = sorted(sc.find_s11_zeros(data_small), key=lambda z: z.imag)
    assert len(zeros) == 2
    assert abs(zeros[0] - real) < 1e-11 and zeros[0].imag == 0.0
    assert abs(zeros[1] - nonreal) < 1e-11


def test_zero_persists_under_perturbation(soliton_data, soliton_zeros):
    k0 = soliton_zeros[0].real
    locs = []
    for fac in (0.98, 1.02):
        d = ini.from_arrays(soliton_data.x, fac * soliton_data.u0, fac * soliton_data.u1)
        zs = sc.find_s11_zeros(d)
        # off the exact soliton the zero leaves the axis by about 3e-7, on any grid
        assert len(zs) == 1 and abs(zs[0].imag) < 1e-6
        locs.append(zs[0].real)
    assert abs(locs[0] - k0) < 0.05 and abs(locs[1] - k0) < 0.05
    assert (locs[0] - k0) * (locs[1] - k0) < 0  # moves through k0 monotonically


def counted_marches(monkeypatch):
    """List that gains one entry per march from now on, of the matmul step or
    of the lane step (march_volterra and march_batch reach both): the systems
    of the questions it marches.  A march in a forked child is not counted:
    run a call that forks inside in_this_process."""
    calls = []
    matmul, lanes = sc._march_matmul, sc._march_lanes

    def counting_matmul(data, k, which, cols):
        calls.append((which,))
        return matmul(data, k, which, cols)

    def counting_lanes(data, questions):
        calls.append(tuple(which for _, which, _ in questions))
        return lanes(data, questions)

    monkeypatch.setattr(sc, "_march_matmul", counting_matmul)
    monkeypatch.setattr(sc, "_march_lanes", counting_lanes)
    return calls


def test_zero_search_marches(soliton_data, soliton_zeros, monkeypatch):
    # one march for both sector contours and one per Newton step; the residual
    # at the zero is residue_constants' check
    calls = counted_marches(monkeypatch)
    zeros = sc.find_s11_zeros(soliton_data)
    assert zeros == soliton_zeros
    assert len(calls) == 3


def test_zero_search_stays_in_admissible_region(data_small, monkeypatch):
    # both sector contours wind zero times
    calls = counted_marches(monkeypatch)
    assert sc.find_s11_zeros(data_small) == []
    assert len(calls) == 1


def test_residue_constants_march_once_per_zero(soliton_data, soliton_zeros, monkeypatch):
    # s11 at k0 and k0 +- dk and s12 at k0 from one march
    calls = counted_marches(monkeypatch)
    sc.residue_constants(soliton_data, soliton_zeros)
    assert calls == [("X",)] * len(soliton_zeros)


def test_residue_constants_checks_the_residual(soliton_data, soliton_zeros, monkeypatch):
    """|s11| at a zero above TOLERANCES["zero_residual"] is a numerical failure."""
    with pytest.raises(NumericalError, match="has residual"):
        sc.residue_constants(soliton_data, [soliton_zeros[0] + 1e-5])
    monkeypatch.setitem(TOLERANCES, "zero_residual", 1.0)
    assert len(sc.residue_constants(soliton_data, [soliton_zeros[0] + 1e-5]).c) == 1


def test_validators_march_once_per_question(data_small, monkeypatch):
    # one march: the segment (0, i) on columns (0, 1), then X and XA at the four
    # genericity probes on columns (0, 2), the only ones the probes read
    calls = counted_marches(monkeypatch)
    asked = []
    batch = sc.march_batch

    def recording_batch(data, questions):
        asked.append([(which, tuple(cols)) for _, which, cols in questions])
        return batch(data, questions)

    monkeypatch.setattr(sc, "march_batch", recording_batch)
    sc.assumption_validators(data_small)
    assert calls == [("X", "X", "XA")]
    assert asked == [[("X", (0, 1)), ("X", (0, 2)), ("XA", (0, 2))]]


def soliton_config(soliton_data, tmp_path, **fields):
    """A run config with criterion-8 data as CSV input, zero detection and
    ``fields``, its outputs in tmp_path / "out"."""
    np.savetxt(tmp_path / "soliton.csv",
               np.column_stack([soliton_data.x, soliton_data.u0, soliton_data.u1]),
               fmt="%.17g", delimiter=",", header="x,u0,u1", comments="")
    (tmp_path / "run.json").write_text(json.dumps(
        {"initial_data": {"csv": "soliton.csv"}, "solitons": {"mode": "detect"}, **fields}))
    return RunConfig.load(tmp_path / "run.json", out_dir=tmp_path / "out")


def test_scatter_marches(soliton_data, tmp_path, monkeypatch, in_this_process):
    """The whole scatter stage on criterion-8 data, as CSV input with zero
    detection, run in one process: the off-circle branch first (the contours,
    two Newton steps, the residues and the validators), then X and XA on the circle."""
    cfg = soliton_config(soliton_data, tmp_path)
    calls = counted_marches(monkeypatch)
    with in_this_process():
        assert cli.cmd_scatter(cfg) == 0
    assert calls == [("X",)] * 4 + [("X", "X", "XA")] + [("X",), ("XA",)]
    assert len(json.loads((tmp_path / "out" / "solitons.json").read_text())["zeros"]) == 1


def test_scattering_data_in_three_processes_keeps_results(soliton_data, monkeypatch,
                                                          in_this_process):
    """The off-circle branch and the X march each run in a forked child, two
    forks in all, and every output equals the one-process run's."""
    with in_this_process():
        refl1, sol1, report1 = sc.scattering_data(soliton_data, 8, True)
    forks = counted_forks(monkeypatch)
    refl2, sol2, report2 = sc.scattering_data(soliton_data, 8, True)
    assert forks == [os.getpid()] * 2
    for name in ("theta", "r1", "r2", "s11", "sA11"):
        assert np.array_equal(getattr(refl2, name), getattr(refl1, name)), name
    assert len(sol1.zeros) == 1
    assert (sol2.zeros, sol2.c, sol2.d) == (sol1.zeros, sol1.c, sol1.d)
    assert report2 == report1
    assert_no_child_left()


def test_failed_fork_runs_both_here(soliton_data, tmp_path, monkeypatch, in_this_process):
    """With an os.fork that raises (EAGAIN at a process limit), both branches
    run here: scattering_data equals the one-process run, each pipe is
    closed, and scatter exits 0 with the one-process run's bytes."""
    cfg = soliton_config(soliton_data, tmp_path, n_per_arc=8)
    argv = ["scatter", "--config", str(tmp_path / "run.json"), "--out"]
    with in_this_process():
        refl1, sol1, report1 = sc.scattering_data(soliton_data, 8, True)
        assert cli.main(argv + [str(tmp_path / "one_process")]) == 0
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def failing_fork():
        raise BlockingIOError("fork: Resource temporarily unavailable")

    monkeypatch.setattr(sc.os, "pipe", recorded_pipe)
    monkeypatch.setattr(sc.os, "fork", failing_fork)
    refl2, sol2, report2 = sc.scattering_data(soliton_data, 8, True)
    assert len(pipes) == 2  # scattering_data's and reflection_coefficients'
    for fd in (fd for pair in pipes for fd in pair):
        with pytest.raises(OSError):
            os.fstat(fd)
    for name in ("theta", "r1", "r2", "s11", "sA11"):
        assert np.array_equal(getattr(refl2, name), getattr(refl1, name)), name
    assert (sol2.zeros, sol2.c, sol2.d, report2) == (sol1.zeros, sol1.c, sol1.d, report1)
    assert cli.main(argv + [str(cfg.out_dir)]) == 0
    for name in ("reflection.csv", "solitons.json", "validators.json"):
        assert (cfg.out_dir / name).read_bytes() == (tmp_path / "one_process" / name).read_bytes()
    assert_no_child_left()


def test_scatter_pinned_to_one_cpu_writes_the_same_bytes(soliton_data, tmp_path):
    """scatter forks on any number of CPUs: a run in a child process that pins
    itself to one CPU exits 0 and writes the bytes of an unpinned run."""
    soliton_config(soliton_data, tmp_path, n_per_arc=8)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cpu = min(os.sched_getaffinity(0))
    for out, pin in (("unpinned", None), ("pinned", lambda: os.sched_setaffinity(0, {cpu}))):
        res = subprocess.run([sys.executable, "-m", "bqist.cli", "scatter", "--config",
                              str(tmp_path / "run.json"), "--out", str(tmp_path / out)],
                             capture_output=True, text=True, env=env, preexec_fn=pin)
        assert res.returncode == 0, res.stderr
    for name in ("reflection.csv", "solitons.json", "validators.json"):
        assert (tmp_path / "pinned" / name).read_bytes() == \
            (tmp_path / "unpinned" / name).read_bytes()


@pytest.mark.parametrize("processes", [1, 2])
def test_scatter_off_circle_failure_writes_nothing(soliton_data, tmp_path, monkeypatch,
                                                   capsys, in_this_process, processes):
    """A residue that fails its check in the off-circle branch is raised with
    its type and message, from the child (two processes, which inherit the
    tightened TOLERANCES) as in one process, where a failing os.fork sends
    _in_two_processes down its serial path.  scatter then exits 1 and writes
    no file."""
    monkeypatch.setitem(TOLERANCES, "zero_residual", 1e-30)
    with in_this_process(), pytest.raises(NumericalError, match="has residual") as alone:
        sc.scattering_data(soliton_data, 8, True)
    if processes == 1:
        def failing_fork():
            raise BlockingIOError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(sc.os, "fork", failing_fork)
    with pytest.raises(NumericalError) as raised:
        sc.scattering_data(soliton_data, 8, True)
    assert type(raised.value) is NumericalError and str(raised.value) == str(alone.value)
    cfg = soliton_config(soliton_data, tmp_path, n_per_arc=8)
    assert cli.main(["scatter", "--config", str(tmp_path / "run.json"),
                     "--out", str(cfg.out_dir)]) == 1
    err = capsys.readouterr().err  # the CSV round trip moves the zero's last digits
    assert err.startswith("numerical failure: zero candidate (2.1306") and "has residual" in err
    assert not cfg.out_dir.exists() or not any(cfg.out_dir.iterdir())
    assert_no_child_left()


def test_scattering_data_kills_the_off_circle_child(soliton_data, monkeypatch):
    """An XA march that raises here kills and reaps both children: the X
    march and the off-circle branch."""
    matmul, parent = sc._march_matmul, os.getpid()

    def failing_matmul(data, k, which, cols):
        if which == "XA" and os.getpid() == parent:
            raise ArithmeticError("XA march failed")
        return matmul(data, k, which, cols)

    kills, kill = [], os.kill

    def recording_kill(pid, sig):
        kills.append(sig)
        kill(pid, sig)

    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(sc, "_march_matmul", failing_matmul)
    monkeypatch.setattr(sc.os, "kill", recording_kill)
    with pytest.raises(ArithmeticError, match="^XA march failed$"):
        sc.scattering_data(soliton_data, 8, True)
    assert len(forks) == 2 and kills == [signal.SIGKILL] * 2
    assert_no_child_left()


def test_validators_band_limited_passes(data_small):
    rep = sc.assumption_validators(data_small)
    assert rep["mass_condition"]["ok"]
    assert rep["no_high_frequency"]["ok"]
    assert rep["genericity_pm1"]["ok"]
    assert rep["ok"]


def test_validator_discriminates_high_frequency(data_small):
    # a plain (non-band-limited) Gaussian carries far more segment reflection
    raw = ini.gaussian(0.1, 0.8, L=30.0, n=4097)
    ys = np.linspace(0.2, 0.95, 10)
    r1_raw, _ = sc.reflection_ratio(raw, 1j * ys, "X")
    r1_bl, _ = sc.reflection_ratio(data_small, 1j * ys, "X")
    assert np.nanmax(np.abs(r1_raw)) > 50 * np.nanmax(np.abs(r1_bl))


def test_validator_rejects_mass_violation():
    x = np.linspace(-20, 20, 513)
    u1 = 0.1 * np.exp(-(x**2))  # nonzero mass
    d = ini.from_arrays(x, np.zeros_like(x), u1)
    rep = sc.assumption_validators(d)
    assert not rep["ok"] and not rep["mass_condition"]["ok"]
    with pytest.raises(NumericalError, match="mass condition violated"):
        sc.residue_constants(d, [2.0])
