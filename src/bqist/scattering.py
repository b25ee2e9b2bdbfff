"""Direct scattering for the Boussinesq Lax operator on a truncated line.

The two Volterra solutions X and XA are marched as the equivalent linear ODE
systems (columns decouple), and the scattering matrices are read off from the
terminal values via s = e^{L ad(diag l)} X(-L).  All k-dependent work is batched.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import SPEC, TOLERANCES, NumericalError
from .initial_data import InitialData
# the names perfbench/trace_stage.py wraps and perfbench/run.py calls; the same table
# and function as initial_data's.  RunConfig.build_initial_data reads the table from
# initial_data, which the tracer wraps in place, and load_csv through here
from .initial_data import NAMED_FORMS, load_csv  # noqa: F401
from .reflection import ReflectionData
from .spectral import KAPPA, OMEGA, SQRT3, is_real, on_unit_circle, phase_values
from .util import gauss_legendre

DEGENERATE_TOL = 1e-8


# ---------------------------------------------------------------------------
# potential and Volterra marching
# ---------------------------------------------------------------------------


def _frame(k):
    """The phases l(k) as a (3, nk) array and a = P^-1[:, 2] as (nk, 3), where
    P(k) = [1; l; l^2].

    In this frame the potential is rank one: U(x, k) = w31(x) M1 + w32(x) M2
    with M_j = P^-1 E_{3j} P, so M1 = a (x) 1 and M2 = a (x) l, and
    w31 = -u0'/4 - i v0/(4 sqrt 3), w32 = -u0/2 (potential_weights).
    """
    bad = k[np.min(np.abs(k[:, None] - KAPPA), axis=-1) < DEGENERATE_TOL]
    if bad.size:  # P(k) is numerically singular there
        raise NumericalError(f"k within {DEGENERATE_TOL:.0e} of a sixth root of unity: {bad[:4]}")
    l = phase_values(k).l
    P = np.empty((k.shape[0], 3, 3), dtype=complex)
    P[:, 0, :] = 1.0
    P[:, 1, :] = l.T
    P[:, 2, :] = (l**2).T
    return l, np.linalg.inv(P)[:, :, 2]


def potential_weights(data: InitialData):
    w31 = -data.du0 / 4.0 - 1j * data.v0 / (4.0 * SQRT3)
    w32 = -data.u0 / 2.0
    return w31, w32


_WHICH = {
    "X": (+1, False),   # sign of [L,.], transpose potential?
    "XA": (-1, True),
}


def march_batch(data: InitialData, questions) -> list:
    """March every question ``(k, which, cols)`` from +L across the grid with RK4:
    the Volterra solution ``which`` at the points k, on the columns ``cols``.

    Columns decouple, so a question restricts its march to the columns it needs
    (avoids the exponential growth of unwanted columns at spectral points far
    from the unit circle).  Returns the terminal matrices X(-L) of each
    question, shape (nk, 3, len(cols)).

    The step follows from the batch's k.  If every k lies on the unit circle
    (spectral.on_unit_circle), where the reflection data are sampled, each
    question takes the matmul step in a march of its own and keeps its bits:
    A2 loses about seven digits to cancellation, so a last-bit change there
    moves it by about 1e-5.  Any other batch is one march of the rank-one step
    over the lanes of all its questions, which is faster; both run the same RK4
    stages on the same grid.  Each question keeps the bits of its march alone,
    except an on-circle one in a batch that mixes in off-circle k: it takes the
    lane step, not the matmul step.  No caller makes such a batch.  Every march runs in this process.
    NumericalError naming the system and the first k if a result is not
    finite (the data overflow the march).
    """
    qs = []
    for k, which, cols in questions:
        if which not in _WHICH:
            raise ValueError(f"unknown Volterra system {which!r}")
        qs.append((np.atleast_1d(np.asarray(k, dtype=complex)), which, tuple(cols)))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result fails below
        if all(np.all(on_unit_circle(k)) for k, _, _ in qs):
            out = [_march_matmul(data, *q) for q in qs]
        else:
            out = _march_lanes(data, qs)
    for (k, which, _), X in zip(qs, out):
        finite = np.isfinite(X).all(axis=(1, 2))
        if not finite.all():
            raise NumericalError(f"the {which} march is not finite at k = {k[~finite][0]:.6g}")
    return out


def _in_two_processes(first, second):
    """(first(), second()): ``first`` in a forked child, which pickles its
    result or exception into a pipe and always leaves by os._exit, and
    ``second`` here.  A child's exception is raised here again; if
    ``second`` raises, the child is killed and reaped.  With a second Python
    thread (fork is unsafe then) or an OSError from os.pipe or os.fork
    (EMFILE, EAGAIN) both run here, ``first`` first.
    Threads were slower: each on-circle march is a long chain of microsecond
    BLAS calls, which contend in OpenBLAS.

    Two call sites: scattering_data runs the off-circle branch in a child and
    reflection_coefficients here, and reflection_coefficients runs its X
    reflection_ratio in a child and XA here.  So scatter has three processes
    on any number of CPUs; no child forks, since neither ``first`` calls this."""
    if threading.active_count() > 1:
        return first(), second()
    fds = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return first(), second()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload, code = pickle.dumps(first()), 0
            except BaseException as exc:
                payload = pickle.dumps(exc)
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as pipe:
            own = second()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        if payload:
            raise pickle.loads(payload)
        raise RuntimeError(f"child process {pid} ended with status {status}")
    return pickle.loads(payload), own


def march_volterra(data: InitialData, k, which: str = "X", cols=None):
    """The one-question march_batch: X(-L) of ``which`` at k on the columns
    ``cols`` (all three by default), shape (nk, 3, len(cols))."""
    return march_batch(data, [(k, which, range(3) if cols is None else cols)])[0]


PACK = 4  # systems per block-diagonal product in the matmul step


def _march_matmul(data, k, which, cols):
    """RK4 with F = sign [diag l, X] + U X and U built as a 3x3 matrix per k
    from the rank-one frame of _frame; X(-L) as (nk, 3, ncol).

    PACK systems share one block-diagonal product, (nb, 12, 12) @ (nb, 12,
    ncol), a quarter of the BLAS calls of a (3, 3) @ (3, ncol) stack.  Each
    output entry is still its own system's sequential FMA chain plus exact
    zeros, so the bits of a two- or three-column march do not change (a
    one-column one, which no caller marches on the circle, may).  X packs by
    a reshape (system j of a block is rows 3j..3j+2); zero systems pad nk to a
    multiple of PACK.  No step allocates: w31 M1 + w32 M2 is computed on the
    (3, 3) stack, then copied into the diagonal blocks of one of three zeroed
    buffers through a view of them (computing it straight into the strided
    view is about 3x slower), and the stages run on fixed buffers in the order
    X + (step/2) k1 and ((k1 + 2 k2) + 2 k3) + k4.  M1 and M2 are spelled out
    as 3x3 matrices only to keep the bits of the product with X.
    """
    sign, transpose = _WHICH[which]
    nk, ncol = k.shape[0], len(cols)
    pad = ((0, -nk % PACK), (0, 0))
    l, a = _frame(k)
    l, a = np.pad(l.T, pad), np.pad(a, pad)  # (nb PACK, 3); zero systems pad
    M1 = np.repeat(a[:, :, None], 3, axis=2)
    M2 = a[:, :, None] * l[:, None, :]
    w31, w32 = potential_weights(data)
    if transpose:
        M1, M2 = np.swapaxes(M1, 1, 2).copy(), np.swapaxes(M2, 1, 2).copy()
        w31, w32 = -w31, -w32
    nb = M1.shape[0] // PACK
    X = np.zeros((nb, 3 * PACK, ncol), dtype=complex)
    Xk = X.reshape(-1, 3, ncol)[:nk]  # the systems unpacked, a view of X
    Xk[:] = np.eye(3, dtype=complex)[:, cols]
    lcol = np.repeat(l.reshape(nb, 3 * PACK, 1), ncol, axis=2)
    lrow = np.repeat(l[:, list(cols)], 3, axis=0).reshape(X.shape)
    U1, Umid, Uend = (np.zeros((nb, 3 * PACK, 3 * PACK), dtype=complex) for _ in range(3))
    # each buffer's diagonal blocks as a 4-D view; reshaping the view would copy
    blocks = {id(B): np.einsum("bjrjc->bjrc", B.reshape(nb, PACK, 3, PACK, 3))
              for B in (U1, Umid, Uend)}
    W1, W2 = np.empty_like(M1), np.empty_like(M2)
    acc, kj, Y, T = (np.empty_like(X) for _ in range(4))

    def U(i, out):  # the diagonal blocks of out = w31[i] M1 + w32[i] M2
        np.add(np.multiply(w31[i], M1, out=W1), np.multiply(w32[i], M2, out=W2), out=W1)
        blocks[id(out)][...] = W1.reshape(nb, PACK, 3, 3)
        return out

    def F(Ui, Xc, out):  # sign (lcol Xc - Xc lrow) + Ui Xc
        np.subtract(np.multiply(lcol, Xc, out=out), np.multiply(Xc, lrow, out=T), out=out)
        np.matmul(Ui, Xc, out=T)
        return np.add(out, T, out=out) if sign > 0 else np.subtract(T, out, out=out)

    def stage(c, kc):  # Y = X + c kc
        return np.add(X, np.multiply(c, kc, out=Y), out=Y)

    step = -2 * data.h
    U(len(data.x) - 1, Uend)
    for i in range(len(data.x) - 1, 0, -2):
        U1, Uend = Uend, U(i - 2, U1)
        U(i - 1, Umid)
        F(Umid, stage(0.5 * step, F(U1, X, acc)), kj)  # k1 in acc, k2 in kj
        stage(0.5 * step, kj)
        np.add(acc, np.multiply(2, kj, out=kj), out=acc)  # k1 + 2 k2
        stage(step, F(Umid, Y, kj))  # k3 in kj
        np.add(acc, np.multiply(2, kj, out=kj), out=acc)  # + 2 k3
        np.add(acc, F(Uend, Y, kj), out=acc)  # + k4
        np.add(X, np.multiply(step / 6.0, acc, out=acc), out=X)
    return Xk


BLOCK_BYTES = 2**18  # the lane step's potential weights, built a block of grid points ahead


def _march_lanes(data, questions):
    """RK4 with the rank-one potential U = a (x) g on lanes, one column of one
    system at one k each, stored lane-last as (3, nlane); returns X(-L) of each
    question like _march_matmul.

    With l and a from _frame, U = a (x) g where g = w31 + w32 l.  Then
    F = D Y + p (q . Y) with D = sign (l_i - l_c), and (p, q) = (a, g) for X
    and (-g, a) for the transposed, negated system XA.
    Every operation acts on each lane alone, so a lane gets the bits of its
    question marched alone; negating g is exact.  The stages carry h/2 F (h the
    step), so D and a are scaled once, not per stage.  p and q are built for a
    block of grid points at a time, into buffers made once (new arrays of that
    size would each pay their page faults), as many points as BLOCK_BYTES
    allows for the lane count; a batch without XA lanes builds g alone.  The
    stages run on fixed buffers, in the order of the allocating form
    X + (K1 + K4 + 2 (K2 + K3)) / 3, so no step allocates and every entry
    keeps that form's bits.
    """
    klane = np.concatenate([k for k, _, cols in questions for _ in cols])
    col = np.concatenate([np.full(len(k), c) for k, _, cols in questions for c in cols])
    xa = np.concatenate([np.full(len(k) * len(cols), which == "XA")
                         for k, which, cols in questions])
    nlane = len(klane)
    l, a = _frame(klane)
    half = -data.h  # half of the step -2h
    a = half * a.T  # (3, nlane)
    D = half * np.where(xa, -1.0, 1.0) * (l - l[col, range(nlane)])
    w31, w32 = (w[::-1] for w in potential_weights(data))  # in marching order
    X = np.zeros((3, nlane), dtype=complex)
    X[col, range(nlane)] = 1.0
    mixed = bool(xa.any())
    nsteps = (len(data.x) - 1) // 2
    # a step takes two grid points of (3, nlane) complex values per buffer
    block = max(1, BLOCK_BYTES // (2 * 48 * nlane * (2 if mixed else 1)))
    qbuf = np.empty((2 * min(block, nsteps) + 1, 3, nlane), dtype=complex)
    pbuf = np.empty_like(qbuf) if mixed else np.broadcast_to(a, qbuf.shape)

    def weights(rows):  # p and q at the grid points rows, written into the buffers
        m = rows.stop - rows.start
        g = np.add(w31[rows, None, None],
                   np.multiply(w32[rows, None, None], l, out=qbuf[:m]), out=qbuf[:m])
        if mixed:
            np.copyto(pbuf[:m], a, where=~xa)
            np.negative(g, out=pbuf[:m], where=xa)
            np.copyto(g, a, where=xa)
        return pbuf[:m], g

    K1, K2, K3, K4, Y, T = (np.empty_like(X) for _ in range(6))
    T0, T1, T2 = T
    qY = np.empty(nlane, dtype=complex)

    def F(p, q, Yc, out):  # out = D Yc + p (q . Yc), the sum over rows in order
        np.multiply(q, Yc, out=T)
        np.add(np.add(T0, T1, out=qY), T2, out=qY)
        return np.add(np.multiply(D, Yc, out=out), np.multiply(p, qY, out=T), out=out)

    for s0 in range(0, nsteps, block):
        p, q = weights(slice(2 * s0, 2 * min(s0 + block, nsteps) + 1))
        for j in range(0, len(q) - 1, 2):
            F(p[j], q[j], X, K1)
            F(p[j + 1], q[j + 1], np.add(X, K1, out=Y), K2)
            F(p[j + 1], q[j + 1], np.add(X, K2, out=Y), K3)
            F(p[j + 2], q[j + 2], np.add(X, np.multiply(2, K3, out=Y), out=Y), K4)
            np.multiply(2, np.add(K2, K3, out=K2), out=K2)
            np.add(np.add(K1, K4, out=K1), K2, out=K1)  # (K1 + K4) + 2 (K2 + K3)
            np.add(X, np.divide(K1, 3, out=K1), out=X)
    out, start = [], 0
    for k, _, cols in questions:
        stop = start + len(k) * len(cols)
        out.append(X[:, start:stop].reshape(3, len(cols), len(k)).transpose(2, 0, 1))
        start = stop
    return out


def scattering_columns(data: InitialData, k, which: str, cols=(0, 1, 2)) -> np.ndarray:
    """Terminal-value formula on the columns ``cols``: s = e^{L ad(diag l)} X(-L)
    for ``which`` = "X", s^A = e^{-L ad(diag l)} X^A(-L) for "XA"; (nk, 3, len(cols))."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    return _terminal_values(data, k, which, cols, march_volterra(data, k, which, cols=cols))


def _terminal_values(data, k, which, cols, X):
    """scattering_columns from the march result X of the question (k, which, cols)."""
    l = phase_values(k).l.T  # (nk, 3)
    ediff = l[:, :, None] - l[:, None, list(cols)]
    return np.exp(_WHICH[which][0] * data.L * ediff) * X


def s11_values(data: InitialData, k) -> np.ndarray:
    """s11 alone, from a column-1 march (stable at all admissible k)."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    return march_volterra(data, k, "X", cols=(0,))[:, 0, 0]


def reflection_ratio(data: InitialData, k, which: str):
    """(s12/s11, s11) for ``which`` = "X", (sA12/sA11, sA11) for "XA"; NaN ratio
    where |s11| < 1e-12.  Marches only the first two columns and phases only the
    (1,2) entry (s11 = X11 exactly), so the possibly exploding third column and
    the phases of the row-3 entries never enter."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    return _ratio_values(data, k, which, march_volterra(data, k, which, cols=(0, 1)))


def _ratio_values(data, k, which, X):
    """reflection_ratio from the march result X of the question (k, which, (0, 1))."""
    l = phase_values(k).l.T  # (nk, 3)
    phase12 = np.exp(_WHICH[which][0] * data.L * (l[:, 0] - l[:, 1]))
    s11 = X[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = phase12 * X[:, 0, 1] / s11
    return np.where(np.abs(s11) < 1e-12, np.nan + 0j, ratio), s11


def reflection_coefficients(data: InitialData,
                            n_per_arc: int = SPEC["n_per_arc"].default) -> ReflectionData:
    """Sample the reflection data at ReflectionData.nodes(n_per_arc): the X and
    XA reflection_ratio calls run in two processes (_in_two_processes)."""
    k = np.exp(1j * ReflectionData.nodes(n_per_arc))
    (r1, s11), (r2, sA11) = _in_two_processes(partial(reflection_ratio, data, k, "X"),
                                              partial(reflection_ratio, data, k, "XA"))
    return ReflectionData(r1=r1, r2=r2, s11=s11, sA11=sA11)


# ---------------------------------------------------------------------------
# zeros of s11 and residue constants
# ---------------------------------------------------------------------------


@dataclass
class SolitonData:
    """Zeros of s11 in the admissible region with residue-derived constants."""

    zeros: list
    c: list
    d: list  # d constants for nonreal zeros, None for real ones


def _central_points(k):
    """[k, k + dk, k - dk] with |dk| = 1e-6 along a direction interior to the
    analyticity domain, and dk."""
    k = complex(k)
    dk = 1e-6 * (1.0 + 0j if is_real(k) else k / abs(k))
    return np.array([k, k + dk, k - dk]), dk


def _s11_and_slope(f, k):
    """f(k) and its central difference, from one call of f at _central_points(k)."""
    pts, dk = _central_points(k)
    f0, fp, fm = f(pts)
    return complex(f0), complex((fp - fm) / (2 * dk))


N_EDGE = 96         # Gauss-Legendre nodes per edge of a sector contour
SECTOR_MARGIN = 0.03  # rad by which each sector contour is turned clockwise from its sector
NEWTON_TOL = 1e-11  # |s11| at which Newton stops
NEWTON_EVALS = 40   # s11 evaluations before Newton gives up


def _newton_polish(f, k0):
    """Newton on the callable f from k0: the last k it evaluated f at, and f there."""
    k = complex(k0)
    fk, df = _s11_and_slope(f, k)
    for _ in range(NEWTON_EVALS - 1):
        if abs(fk) < NEWTON_TOL or df == 0:
            break
        k = k - fk / df
        fk, df = _s11_and_slope(f, k)
    return k, fk


def _sector_contour(r_lo, r_hi, th_lo, th_hi):
    """Nodes k and weights w = dk on the boundary of {r_lo < |k| < r_hi,
    th_lo < arg k < th_hi}: N_EDGE Gauss-Legendre nodes on each ray and arc,
    counterclockwise from the corner r_lo e^{i th_lo}."""
    x, wx = gauss_legendre(N_EDGE)
    t, wt = 0.5 * (1 + x), 0.5 * wx  # on [0, 1]
    parts = []
    for r0, r1, a0, a1 in [(r_lo, r_hi, th_lo, th_lo), (r_hi, r_hi, th_lo, th_hi),
                           (r_hi, r_lo, th_hi, th_hi), (r_lo, r_lo, th_hi, th_lo)]:
        r = r0 + (r1 - r0) * t
        k = r * np.exp(1j * (a0 + (a1 - a0) * t))
        parts.append((k, wt * k * ((r1 - r0) / r + 1j * (a1 - a0))))  # dk/dt dt
    return tuple(np.concatenate(p) for p in zip(*parts))


def _winding_number(vals):
    """Winding number of f around a closed contour, from f at its nodes in order."""
    if np.min(np.abs(vals)) < 1e-9:
        raise NumericalError("zero too close to a search contour")
    ang = np.unwrap(np.angle(np.concatenate([vals, vals[:1]])))
    w = (ang[-1] - ang[0]) / (2 * np.pi)
    wi = int(np.round(w))
    if abs(w - wi) > 0.1:
        raise NumericalError(f"unresolved winding number {w:.3f}")
    return wi


def _contour_zeros(f, k, w, vals):
    """Zeros of the callable f inside the contour (k, w) of _sector_contour, given
    vals = f(k): as many as f winds, from the moments s_p of f'/f about the mean
    node c as eigenvalues of a Hankel pencil (Delves & Lyness, Math. Comp. 21,
    1967; Kravanja & Van Barel, LNM 1727, 2000), each polished by Newton on f.
    NumericalError if the pencil is singular or a polished zero is outside the
    contour; |f| at a zero is the caller's to check (residue_constants).

    With z = k - c, s_p = -p/(2 pi i) int z^(p-1) log(f / z^n) dk for p > 0 (by
    parts): f / z^n winds zero times, so its unwrapped log has no jump."""
    n = _winding_number(vals)
    if n == 0:
        return []
    c = k.mean()
    z = k - c
    g = vals / z**n
    logg = np.log(np.abs(g)) + 1j * np.unwrap(np.angle(g))
    s = [n] + [-p / (2j * np.pi) * np.sum(z ** (p - 1) * logg * w) for p in range(1, 2 * n)]
    H = np.array([[s[i + j] for j in range(n + 1)] for i in range(n)])
    try:
        guesses = c + np.linalg.eigvals(np.linalg.solve(H[:, :n], H[:, 1:]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hankel pencil of {n} contour zeros: {exc}") from None
    out = []
    for guess in guesses:
        kz, fz = _newton_polish(f, guess)
        inside = abs(np.sum(np.angle(np.roll(k - kz, -1) / (k - kz)))) > np.pi
        if not inside:
            raise NumericalError(f"contour zero {kz} is outside its contour "
                                 f"(residual {abs(fz):.2e})")
        out.append(kz)
    return out


# The admissible region of the zeros: two open sectors of arg width pi/6 and
# their real edges (1, inf) and (-1, 0), as (arg lo, at the real edge; arg hi;
# sign of |k| - 1; the inner and outer radius of the search).
ADMISSIBLE_SECTORS = ((0.0, np.pi / 6, 1, 1.02, 4.0), (-np.pi, -5 * np.pi / 6, -1, 0.05, 0.98))


def search_contours():
    """(k, w) of one contour per admissible sector, over its search radii and
    turned SECTOR_MARGIN past its real edge, so that the real zeros lie inside."""
    return tuple(_sector_contour(r_lo, r_hi, lo - SECTOR_MARGIN, hi - SECTOR_MARGIN)
                 for lo, hi, _, r_lo, r_hi in ADMISSIBLE_SECTORS)


def find_s11_zeros(data: InitialData) -> list:
    """Zeros of s11 in the admissible region, real and nonreal, by contour moments
    inside each of search_contours().  s11 on both contours comes from one march,
    then one per Newton step.  A zero within TOLERANCES["real_axis"] of the real
    axis is real; one in the strip between a contour's lower ray and the real
    edge is not admissible and is dropped.  residue_constants checks |s11| at each zero
    against TOLERANCES["zero_residual"], from the march it makes there anyway.
    Zero data have s11 = 1 on both contours, which wind zero times: no zeros."""
    s11 = partial(s11_values, data)
    contours = search_contours()
    vals = np.split(s11(np.concatenate([k for k, _ in contours])), len(contours))
    cleaned = []
    for (k, w), v in zip(contours, vals):
        for z in _contour_zeros(s11, k, w, v):
            if abs(z.imag) < TOLERANCES["real_axis"]:
                z = complex(z.real, 0.0)
            if _in_admissible_region(z) and all(abs(z - y) > 1e-6 for y in cleaned):
                cleaned.append(z)
    return cleaned


def soliton_d(k0: complex, c: complex):
    """Soliton constant d = (kbar^2 - 1) / (omega^2 (omega^2 - kbar^2)) conj(c).

    Defined at a nonreal zero k0 with residue constant c; None at a real zero.
    """
    if is_real(k0):
        return None
    kb = np.conj(k0)
    return (kb**2 - 1) / (OMEGA**2 * (OMEGA**2 - kb**2)) * np.conj(c)


def residue_constants(data: InitialData, zeros) -> SolitonData:
    """Compact-support residue constants c = -s13/s11' (nonreal), -s12/s11' (real).

    NumericalError if the data fail InitialData.validate, if |s11| at a zero
    exceeds TOLERANCES["zero_residual"] or if |s11'| there is below
    TOLERANCES["simple_zero"]."""
    data.validate()
    cs, ds, kept = [], [], []
    for k0 in zeros:
        k0 = complex(k0)
        # s11 at k0 and at k0 +- dk for s11', and s12 (real k0) or s13 at k0, from one march
        pts, dk = _central_points(k0)
        s = scattering_columns(data, pts, "X", cols=(0, 1 if is_real(k0) else 2))
        resid = abs(s[0, 0, 0])
        if resid > TOLERANCES["zero_residual"]:
            raise NumericalError(f"zero candidate {k0} has residual {resid:.2e}")
        dek = complex((s[1, 0, 0] - s[2, 0, 0]) / (2 * dk))
        if abs(dek) < TOLERANCES["simple_zero"]:
            raise NumericalError(f"zero at {k0} is not numerically simple (|s11'|={abs(dek):.2e})")
        c = -complex(s[0, 0, 1]) / dek
        if abs(c) < 1e-13:
            continue  # removable pole
        cs.append(c)
        ds.append(soliton_d(k0, c))
        kept.append(k0)
    return SolitonData(zeros=kept, c=cs, d=ds)


def nonsingularity_value(k0: complex, c: complex) -> complex:
    """i (omega^2 k0^2 - omega) c, which must avoid the negative real axis."""
    return 1j * (OMEGA**2 * k0**2 - OMEGA) * c


# ---------------------------------------------------------------------------
# assumption validators
# ---------------------------------------------------------------------------


def assumption_validators(data: InitialData, solitons: SolitonData | None = None) -> dict:
    """Report-style checks of the three standing assumptions.

    The genericity margins are heuristic (flagged as such in the report); the
    mass condition is checked first and is a hard failure.  Every threshold is
    an entry of config.TOLERANCES.  Zero data skip the march, not the report:
    r1 vanishes on the segment and no genericity probe is taken.
    """
    m = abs(data.mass())
    mass = {"value": m, "ok": bool(m <= TOLERANCES["mass_condition"])}
    report = {"heuristic_thresholds": True, "mass_condition": mass}
    if not mass["ok"]:
        return {**report, "ok": False}

    # the genericity probes, far then near for each k*, and the scaled entries read there
    at = [(kstar, rad) for kstar in (1.0, -1.0) for rad in (1e-2, 5e-3)]
    entries = ("(k-k*)s11", "(k-k*)s13", "s31", "s33", "(k-k*)sA11", "(k-k*)sA31", "sA13", "sA33")
    sup, mags = 0.0, np.empty((0, len(entries)))
    if not data.is_zero:
        # one march: r1 on the segment (0, i), then X and XA at the genericity probes
        segment = 1j * np.linspace(0.06, 0.985, 40)
        kprobes = np.array([kstar + rad * np.exp(1j * np.pi / 3) for kstar, rad in at])
        cols = (0, 2)  # the probes read s11, s13, s31, s33 and their XA twins
        Xseg, Xprobe, XAprobe = march_batch(data, [(segment, "X", (0, 1)), (kprobes, "X", cols),
                                                   (kprobes, "XA", cols)])
        sup = float(np.nanmax(np.abs(_ratio_values(data, segment, "X", Xseg)[0])))
        s_all = _terminal_values(data, kprobes, "X", cols, Xprobe)
        sA_all = _terminal_values(data, kprobes, "XA", cols, XAprobe)
        # a row per probe, in the order of entries (column j of s is column cols[j]
        # of the scattering matrix); products and abs on scalars, one probe at a
        # time, since their array forms move the last bit of some entries
        mags = np.array([[abs(v) for v in (dk * s[0, 0], dk * s[0, 1], s[2, 0], s[2, 1],
                                           dk * sA[0, 0], dk * sA[2, 0], sA[0, 1], sA[2, 1])]
                         for dk, s, sA in zip(kprobes - [kstar for kstar, _ in at],
                                              s_all, sA_all)])

    # (i) soliton set location / simplicity / nonsingularity
    zeros, zeros_ok = [], True
    for k0, c in zip(solitons.zeros, solitons.c) if solitons is not None else ():
        flags = {"region_ok": _in_admissible_region(k0)}
        if is_real(k0):
            val = nonsingularity_value(k0, c)
            flags["nonsingularity"] = not (abs(val.imag) < TOLERANCES["nonsingularity"]
                                           and val.real < 0)
        zeros_ok = zeros_ok and all(flags.values())
        zeros.append({"k0": k0, **flags})

    # (ii) generic behavior near k = +-1: the scaled entries have finite nonzero limits,
    # so each near one is above the floor and within a factor ratio of its far twin
    floor, ratio = TOLERANCES["genericity_floor"], TOLERANCES["genericity_ratio"]
    near, far = mags[1::2], mags[::2]
    q = near / np.maximum(far, 1e-300)
    bound = TOLERANCES["r1_segment"]  # (iii) on sup |r1| on the segment (0, i)
    checks = {
        "no_high_frequency": {"sup_r1_segment": sup, "ok": bool(sup <= bound), "tol": bound},
        "genericity_pm1": {"ok": bool(np.all((near >= floor) & (1 / ratio < q) & (q < ratio))),
                           "probes": {f"k={kstar}, rad={rad}": dict(zip(entries, row))
                                      for (kstar, rad), row in zip(at, mags)}},
        "soliton_set": {"ok": zeros_ok, "zeros": zeros},
    }
    return {**report, **checks, "ok": all(check["ok"] for check in checks.values())}


def _in_admissible_region(k0: complex) -> bool:
    if is_real(k0):
        return (-1 < k0.real < 0) or (k0.real > 1)
    ang = np.angle(k0)
    return any(lo < ang < hi and np.sign(abs(k0) - 1) == side
               for lo, hi, side, _, _ in ADMISSIBLE_SECTORS)


# ---------------------------------------------------------------------------
# the scatter stage
# ---------------------------------------------------------------------------


def _off_circle(data: InitialData, detect: bool):
    """The off-circle branch of scattering_data: the zeros of s11 and their
    residue constants (none unless ``detect``), then the validator report."""
    zeros = find_s11_zeros(data) if detect else []
    sol = residue_constants(data, zeros) if zeros else SolitonData([], [], [])
    return sol, assumption_validators(data, solitons=sol)


def scattering_data(data: InitialData, n_per_arc: int,
                    detect: bool) -> tuple[ReflectionData, SolitonData, dict]:
    """(ReflectionData, SolitonData, validator report) of ``data``.  The
    off-circle branch needs no reflection table, so it runs in a forked child
    while reflection_coefficients runs here (_in_two_processes).  An exception
    from either is raised here."""
    (sol, report), refl = _in_two_processes(partial(_off_circle, data, detect),
                                            partial(reflection_coefficients, data, n_per_arc))
    report["circle_identity_residual"] = refl.circle_identity_residual()  # never sets "ok"
    report["tail_max"] = data.tail_max()  # nor does this; residue_constants checks tails
    return refl, sol, report
