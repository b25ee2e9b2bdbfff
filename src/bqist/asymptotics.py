"""Leading-order long-time evaluation in the wedge x/t in (1/sqrt3, 1).

Assembles the per-zeta ingredient bundle (saddles, nu exponents, chi values,
delta products, soliton Blaschke factors) and evaluates the two-oscillation
leading term u = (A1 cos alpha1 + A2 cos alpha2)/sqrt(t).

All complex powers carry explicit logarithms (t^{-i nu}, z_star^{-2 i nu});
the two chord-angle branch values

    tilde-arg_{w2k2}(w k4 - w2 k2) = (arg(w k4) + arg(w2 k2) - pi)/2
    arg_{w k4}(w2 k2 - w k4)       = (arg(w k4) + arg(w2 k2) + pi)/2

are hard-coded per the branch conventions documented in cauchy.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cauchy as cy
from .cauchy import CircleFunctions, NuBundle, PositivityError, SectorArcs
from .config import Tolerances
from .gammafn import arg_gamma
from .scattering import is_real
from .spectral import OMEGA, SQRT3, phi

NU_TINY = 1e-13


def rtilde(k) -> complex:
    """(omega^2 - k^2) / (1 - omega^2 k^2); real on the unit circle."""
    k = np.asarray(k, dtype=complex)
    return (OMEGA**2 - k**2) / (1 - OMEGA**2 * k**2)


# ---------------------------------------------------------------------------
# soliton Blaschke product
# ---------------------------------------------------------------------------


def blaschke_P(k, zeros: list | None) -> complex:
    """Product over the right-moving soliton zeros; identically 1 for none."""
    k = complex(k)
    out = 1.0 + 0.0j
    w = OMEGA
    for k0 in zeros or []:
        k0 = complex(k0)
        if k0.real <= 0:
            continue  # left movers do not enter
        if is_real(k0):
            num = (k - w**2 * k0) * (k - w / k0)
            den = (k - w * k0) * (k - w**2 / k0)
        else:
            kb = np.conj(k0)
            num = (k - k0) * (k - 1 / k0) * (k - w**2 * kb) * (k - w / kb)
            den = (k - kb) * (k - 1 / kb) * (k - w * k0) * (k - w**2 / k0)
        if den == 0:
            raise ValueError(f"blaschke_P: pole at k = {k}")
        out *= num / den
    return out


# ---------------------------------------------------------------------------
# delta-product factors
# ---------------------------------------------------------------------------

_D1_EXP = {
    1: {"wk": 1, "inv_w2k": 2, "w2k": -2, "inv_wk": -1, "inv_k": -1},
    2: {"w2k": 1, "inv_k": 2, "wk": -2, "inv_w2k": -1, "inv_wk": -1},
    3: {"wk": 1, "w2k": 1, "inv_wk": 2, "inv_k": -1, "inv_w2k": -1},
    4: {"w2k": 2, "inv_k": 1, "inv_wk": 1, "k": -1, "wk": -1, "inv_w2k": -2},
    5: {"wk": 2, "inv_wk": 1, "inv_w2k": 1, "k": -1, "inv_k": -2, "w2k": -1},
}

_D2_EXP = {
    1: {"wk": 2, "inv_w2k": 1, "inv_k": 1, "w2k": -1, "inv_wk": -2, "k": -1},
    2: {"inv_k": 1, "inv_wk": 1, "wk": -1, "inv_w2k": -2, "w2k": -1},
    3: {"w2k": 2, "inv_wk": 1, "inv_w2k": 1, "inv_k": -2, "wk": -1},
    4: {"w2k": 1, "inv_wk": 2, "wk": -2, "inv_w2k": -1, "inv_k": -1},
    5: {"wk": 1, "inv_w2k": 2, "w2k": 1, "inv_k": -1, "inv_wk": -1},
}

_TRANSFORMS = {
    "k": lambda k: k,
    "wk": lambda k: OMEGA * k,
    "w2k": lambda k: OMEGA**2 * k,
    "inv_k": lambda k: 1 / k,
    "inv_wk": lambda k: 1 / (OMEGA * k),
    "inv_w2k": lambda k: 1 / (OMEGA**2 * k),
}


def script_D(which: int, arcs: SectorArcs, cf: CircleFunctions, k) -> complex:
    """The delta-ratio product D1 or D2 at k, with one arc quadrature per delta_j
    for all the points that delta_j is taken at."""
    table = {1: _D1_EXP, 2: _D2_EXP}[which]
    k = complex(k)
    out = 1.0 + 0.0j
    for j, factors in table.items():
        vals = cy.delta(j, arcs, cf, [_TRANSFORMS[name](k) for name in factors])
        for val, expo in zip(vals, factors.values()):
            out *= val ** expo
    return out


# ---------------------------------------------------------------------------
# z_star factors and q values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZStar:
    value: complex
    log: complex  # ln|z| + i (pi/2 - arg saddle image); powers use this log

    def power(self, a: complex) -> complex:
        return np.exp(a * self.log)


def hessian_coefficient(which: int, saddles) -> complex:
    """Quadratic coefficient of the phase at its saddle image.

    which=1: coefficient for Phi_31 at omega k4; which=2: for Phi_32 at
    omega^2 k2.
    """
    if which == 1:
        k4 = saddles.k4
        return OMEGA * (4 - 3 * k4 * saddles.zeta - k4**3 * saddles.zeta) / (4 * k4**4)
    k2 = saddles.k2
    return -(OMEGA**2) * (4 - 3 * k2 * saddles.zeta - k2**3 * saddles.zeta) / (4 * k2**4)


def z_star(which: int, arcs: SectorArcs) -> ZStar:
    """sqrt(2) e^{i pi/4} sqrt(hessian) with -i (saddle image) z > 0.

    The principal square root gives that sign: arg z lies in (-pi/4, 3 pi/4]
    with it, and the wanted arg z = pi/2 - arg(saddle image) in (-pi/6, 0)."""
    coeff = hessian_coefficient(which, arcs.saddles)
    z = np.sqrt(2) * np.exp(1j * np.pi / 4) * np.sqrt(coeff)
    image = arcs.wk4 if which == 1 else arcs.w2k2
    norm = -1j * image * z
    if abs(norm.imag) > 1e-10 * abs(norm):
        raise ValueError(f"z_star normalization not real: {norm}")
    expected = np.pi / 2 - (arcs.a4 if which == 1 else arcs.a2)
    if abs((np.angle(z) - expected + np.pi) % (2 * np.pi) - np.pi) > 1e-9:
        raise ValueError("z_star argument disagrees with pi/2 - arg(saddle image)")
    return ZStar(value=z, log=np.log(abs(z)) + 1j * expected)


@dataclass(frozen=True)
class QValues:
    q1: complex
    q2: complex
    q3: complex
    q4: complex
    q5: complex
    q6: complex

    @property
    def constraint_residual(self) -> float:
        """|q4 - conj(q5) - q2 conj(q6)| (vanishes identically in theory)."""
        return float(abs(self.q4 - np.conj(self.q5) - self.q2 * np.conj(self.q6)))


def q_values(arcs: SectorArcs, refl) -> QValues:
    """The six model inputs from reflection values at the saddle rotations."""
    sad = arcs.saddles
    pts = {
        "q1": arcs.wk4,
        "q2": arcs.w2k2,
        "q3": 1 / sad.k4,
        "q4": 1 / (OMEGA * sad.k2),
        "q5": OMEGA * sad.k2,
        "q6": 1 / sad.k2,
    }
    vals = {}
    for name, p in pts.items():
        th = float(np.angle(p))
        rt = complex(rtilde(p))
        if abs(rt.imag) > 1e-9 * max(1.0, abs(rt)):
            raise ValueError(f"rtilde not real at {name} point {p}")
        r1v = complex(refl.r1_at(th))
        if name in ("q1", "q2"):
            if rt.real <= 0:
                raise PositivityError(f"rtilde({name}) = {rt.real} must be positive")
            vals[name] = np.sqrt(rt.real) * r1v
        else:
            vals[name] = np.sqrt(abs(rt.real)) * r1v
    return QValues(**vals)


# ---------------------------------------------------------------------------
# sector ingredients and the d coefficients
# ---------------------------------------------------------------------------


@dataclass
class SectorIngredients:
    zeta: float
    arcs: SectorArcs
    nu: NuBundle
    q: QValues
    z1: ZStar
    z2: ZStar
    chi1_wk4: complex
    chit2_wk4: complex
    chit3_wk4: complex
    chi2_w2k2: complex
    chi3_w2k2: complex
    chit4_w2k2: complex
    chit5_w2k2: complex
    D1_wk4: complex
    D2_w2k2: complex
    P_ratio1: complex  # P(w k4) / P(w2 k4)
    P_ratio2: complex  # P(w2 k2) / P(w k2)
    im_phi31: float    # Im Phi_31(zeta, w k4)
    im_phi32: float    # Im Phi_32(zeta, w2 k2)


#: the SectorIngredients fields that ``asym`` writes to deltas_debug.csv, per zeta
DEBUG_QUANTITIES = ("D1_wk4", "D2_w2k2", "chi1_wk4", "chit2_wk4", "chit3_wk4",
                    "chi2_w2k2", "chi3_w2k2", "chit4_w2k2", "chit5_w2k2")


def build_ingredients(zeta: float, cf: CircleFunctions, solitons: list | None = None,
                      tol: Tolerances = Tolerances()) -> SectorIngredients:
    """The per-zeta bundle; ``solitons`` are the zeros of s11 (None for none)."""
    arcs = SectorArcs.from_zeta(zeta)
    nu = cy.nu_bundle(arcs, cf)
    if nu.nu_hat1 < tol.nu_hat_floor or nu.nu_hat2 < tol.nu_hat_floor:
        raise PositivityError(
            f"nu_hat negative at zeta={zeta}: {nu.nu_hat1}, {nu.nu_hat2}")
    sad, wk4, w2k2 = arcs.saddles, arcs.wk4, arcs.w2k2
    q = q_values(arcs, cf.refl)

    phi31 = complex(phi(3, 1, zeta, wk4))
    phi32 = complex(phi(3, 2, zeta, w2k2))
    if max(abs(phi31.real), abs(phi32.real)) > 1e-10:
        raise ValueError("saddle-image phases are not purely imaginary")

    return SectorIngredients(
        zeta=zeta,
        arcs=arcs,
        nu=nu,
        q=q,
        z1=z_star(1, arcs),
        z2=z_star(2, arcs),
        chi1_wk4=cy.chi(1, arcs, cf, wk4),
        chit2_wk4=cy.chi(2, arcs, cf, wk4, tilde=True),
        chit3_wk4=cy.chi(3, arcs, cf, wk4, tilde=True),
        chi2_w2k2=cy.chi(2, arcs, cf, w2k2),
        chi3_w2k2=cy.chi(3, arcs, cf, w2k2),
        chit4_w2k2=cy.chi(4, arcs, cf, w2k2, tilde=True),
        chit5_w2k2=cy.chi(5, arcs, cf, w2k2, tilde=True),
        D1_wk4=script_D(1, arcs, cf, wk4),
        D2_w2k2=script_D(2, arcs, cf, w2k2),
        P_ratio1=blaschke_P(wk4, solitons) / blaschke_P(OMEGA**2 * sad.k4, solitons),
        P_ratio2=blaschke_P(w2k2, solitons) / blaschke_P(OMEGA * sad.k2, solitons),
        im_phi31=float(phi31.imag),
        im_phi32=float(phi32.imag),
    )


def d_coefficients(ing: SectorIngredients, t: float) -> tuple[complex, complex]:
    """The two slowly-varying coefficients entering the phases at time t."""
    if t <= 0:
        raise ValueError("t must be positive")
    nu = ing.nu
    gap = abs(ing.arcs.wk4 - ing.arcs.w2k2)
    # tilde-ln_{w2k2}(w k4 - w2 k2) and ln_{w k4}(w2 k2 - w k4)
    lt = np.log(gap) + 0.5j * (ing.arcs.a4 + ing.arcs.a2 - np.pi)
    ln2 = np.log(gap) + 0.5j * (ing.arcs.a4 + ing.arcs.a2 + np.pi)

    d10 = (np.exp(-ing.chi1_wk4 - ing.chit2_wk4 + 2 * ing.chit3_wk4)
           * np.exp(1j * (nu.nu2 - 2 * nu.nu4) * lt)
           * np.exp(-1j * nu.nu_hat1 * np.log(t))
           * ing.z1.power(-2j * nu.nu_hat1)
           * ing.D1_wk4)
    d20 = (np.exp(-2 * ing.chi2_w2k2 + ing.chi3_w2k2 - ing.chit4_w2k2 + 2 * ing.chit5_w2k2)
           * np.exp(1j * (nu.nu3 - 2 * nu.nu1) * ln2)
           * np.exp(-1j * nu.nu_hat2 * np.log(t))
           * ing.z2.power(-2j * nu.nu_hat2)
           * ing.D2_w2k2)
    return complex(d10), complex(d20)


# ---------------------------------------------------------------------------
# amplitudes, phases, and the leading term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticEvaluation:
    x: float
    t: float
    zeta: float
    A1: float
    A2: float
    alpha1: float
    alpha2: float
    u: float
    err_scale: float


def u_asym(ing: SectorIngredients, t: float) -> AsymptoticEvaluation:
    """Leading-order u at x = zeta t, zeta the bundle's."""
    if t < 2:
        raise ValueError("u_asym: t must be at least 2")
    nu = ing.nu
    sad = ing.arcs.saddles
    hat1 = max(nu.nu_hat1, 0.0)
    hat2 = max(nu.nu_hat2, 0.0)

    den1 = -1j * ing.arcs.wk4 * ing.z1.value
    den2 = -1j * ing.arcs.w2k2 * ing.z2.value
    rt1 = abs(complex(rtilde(1 / sad.k4)))
    rt2 = abs(complex(rtilde(1 / sad.k2)))

    d10, d20 = d_coefficients(ing, t)
    if hat1 > NU_TINY:
        a1c = 4 * SQRT3 * np.sqrt(hat1) * sad.k4.imag * np.sin(ing.arcs.a4) / (
            den1.real * np.sqrt(rt1))
        alpha1 = (3 * np.pi / 4 + np.angle(ing.q.q3) + arg_gamma(1j * hat1)
                  + np.angle(d10) + np.angle(ing.P_ratio1) - t * ing.im_phi31)
    else:
        a1c = 0.0
        alpha1 = 0.0
    comb = ing.q.q6 - ing.q.q2 * ing.q.q5
    if hat2 > NU_TINY:
        a2c = -4 * SQRT3 * np.sqrt(hat2) * np.sqrt(rt2) * sad.k2.imag * np.sin(
            ing.arcs.a2) / den2.real
        alpha2 = (3 * np.pi / 4 - np.angle(comb) + arg_gamma(1j * hat2)
                  + np.angle(d20) + np.angle(ing.P_ratio2) - t * ing.im_phi32)
    else:
        a2c = 0.0
        alpha2 = 0.0

    u = (a1c * np.cos(alpha1) + a2c * np.cos(alpha2)) / np.sqrt(t)
    return AsymptoticEvaluation(
        x=ing.zeta * t, t=t, zeta=ing.zeta,
        A1=float(a1c), A2=float(a2c),
        alpha1=float(alpha1), alpha2=float(alpha2),
        u=float(u), err_scale=float(np.log(t) / t),
    )
