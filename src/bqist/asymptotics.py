"""Leading-order long-time evaluation in the wedge x/t in (1/sqrt3, 1).

Assembles the per-zeta ingredient bundle (saddles, nu exponents, chi values,
delta products, soliton Blaschke factors) and evaluates the two-oscillation
leading term u = (A1 cos alpha1 + A2 cos alpha2)/sqrt(t).  The formula's seven
chi terms are one table, CHI_TERMS, read by build_ingredients, d_coefficients
and DEBUG_QUANTITIES.

All complex powers carry explicit logarithms (t^{-i nu}, z_star^{-2 i nu});
the two chord-angle branch values

    tilde-arg_{w2k2}(w k4 - w2 k2) = (arg(w k4) + arg(w2 k2) - pi)/2
    arg_{w k4}(w2 k2 - w k4)       = (arg(w k4) + arg(w2 k2) + pi)/2

are hard-coded per the branch conventions documented in cauchy.py.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import cauchy as cy
from .cauchy import CircleFunctions, NuBundle, SectorArcs
from .config import TOLERANCES, NumericalError
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
    """Product over the right-moving soliton zeros; identically 1 for none.  A real
    zero takes the conjugate-pair factor too: its (k - k0)(k - 1/k0) cancels."""
    k = complex(k)
    out = 1.0 + 0.0j
    w = OMEGA
    for k0 in zeros or []:
        k0 = complex(k0)
        if k0.real <= 0:
            continue  # left movers do not enter
        kb = np.conj(k0)
        num = (k - k0) * (k - 1 / k0) * (k - w**2 * kb) * (k - w / kb)
        den = (k - kb) * (k - 1 / kb) * (k - w * k0) * (k - w**2 / k0)
        if den == 0:
            raise NumericalError(f"blaschke_P: pole at k = {k}")
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
    k, c = (saddles.k4, OMEGA) if which == 1 else (saddles.k2, -(OMEGA**2))
    return c * (4 - 3 * k * saddles.zeta - k**3 * saddles.zeta) / (4 * k**4)


def z_star(which: int, arcs: SectorArcs) -> ZStar:
    """sqrt(2) e^{i pi/4} sqrt(hessian) with -i (saddle image) z > 0.

    The principal square root gives that sign: arg z lies in (-pi/4, 3 pi/4]
    with it, and the wanted arg z = pi/2 - arg(saddle image) in (-pi/6, 0)."""
    coeff = hessian_coefficient(which, arcs.saddles)
    z = np.sqrt(2) * np.exp(1j * np.pi / 4) * np.sqrt(coeff)
    image, angle = arcs.image(which)
    norm = -1j * image * z
    if abs(norm.imag) > 1e-10 * abs(norm):
        raise NumericalError(f"z_star normalization not real: {norm}")
    expected = np.pi / 2 - angle
    if abs((np.angle(z) - expected + np.pi) % (2 * np.pi) - np.pi) > 1e-9:
        raise NumericalError("z_star argument disagrees with pi/2 - arg(saddle image)")
    return ZStar(value=z, log=np.log(abs(z)) + 1j * expected)


@dataclass(frozen=True)
class QValues:
    q1: complex
    q2: complex
    q3: complex
    q4: complex
    q5: complex
    q6: complex


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
    r1 = refl.r1_at(np.angle(list(pts.values())))
    vals = {}
    for (name, p), r1v in zip(pts.items(), r1):
        rt = complex(rtilde(p))
        if abs(rt.imag) > 1e-9 * max(1.0, abs(rt)):
            raise NumericalError(f"rtilde not real at {name} point {p}")
        if name in ("q1", "q2"):
            if rt.real <= 0:
                raise NumericalError(f"rtilde({name}) = {rt.real} must be positive")
            vals[name] = np.sqrt(rt.real) * r1v
        else:
            vals[name] = np.sqrt(abs(rt.real)) * r1v
    return QValues(**vals)


# ---------------------------------------------------------------------------
# sector ingredients and the d coefficients
# ---------------------------------------------------------------------------


#: a chi term of the formula: chi_j (tilde-chi_j if ``tilde``) at the saddle image of
#: oscillation ``term`` (SectorArcs.image), entering ln d_{term}0 with ``weight``
ChiTerm = namedtuple("ChiTerm", "name j term tilde weight")

#: the formula's seven chi terms, in the order build_ingredients evaluates them
CHI_TERMS = (
    ChiTerm("chi1_wk4", 1, 1, False, -1),
    ChiTerm("chit2_wk4", 2, 1, True, -1),
    ChiTerm("chit3_wk4", 3, 1, True, 2),
    ChiTerm("chi2_w2k2", 2, 2, False, -2),
    ChiTerm("chi3_w2k2", 3, 2, False, 1),
    ChiTerm("chit4_w2k2", 4, 2, True, -1),
    ChiTerm("chit5_w2k2", 5, 2, True, 2),
)


@dataclass
class SectorIngredients:
    arcs: SectorArcs
    nu: NuBundle
    q: QValues
    z1: ZStar
    z2: ZStar
    chi: dict  # ChiTerm name -> value, in CHI_TERMS order
    D1_wk4: complex
    D2_w2k2: complex
    P_ratio1: complex  # P(w k4) / P(w2 k4)
    P_ratio2: complex  # P(w2 k2) / P(w k2)
    im_phi31: float    # Im Phi_31(zeta, w k4)
    im_phi32: float    # Im Phi_32(zeta, w2 k2)

    def debug_values(self) -> list:  # in DEBUG_QUANTITIES' order
        return [self.D1_wk4, self.D2_w2k2, *self.chi.values()]


#: what ``asym`` writes to deltas_debug.csv, per zeta: the two delta products, the chi terms
DEBUG_QUANTITIES = ("D1_wk4", "D2_w2k2", *(c.name for c in CHI_TERMS))


def build_ingredients(zeta: float, cf: CircleFunctions,
                      solitons: list | None = None) -> SectorIngredients:
    """The per-zeta bundle; ``solitons`` are the zeros of s11 (None for none)."""
    arcs = SectorArcs.from_zeta(zeta)
    nu = cy.nu_bundle(arcs, cf)
    if not (nu.nu_hat1 >= TOLERANCES["nu_hat_floor"] and nu.nu_hat2 >= TOLERANCES["nu_hat_floor"]):
        raise NumericalError(f"nu_hat negative at zeta={zeta}: {nu.nu_hat1}, {nu.nu_hat2}")
    sad, wk4, w2k2 = arcs.saddles, arcs.wk4, arcs.w2k2
    q = q_values(arcs, cf.refl)

    phi31 = complex(phi(3, 1, zeta, wk4))
    phi32 = complex(phi(3, 2, zeta, w2k2))
    if max(abs(phi31.real), abs(phi32.real)) > 1e-10:
        raise NumericalError("saddle-image phases are not purely imaginary")

    return SectorIngredients(
        arcs=arcs,
        nu=nu,
        q=q,
        z1=z_star(1, arcs),
        z2=z_star(2, arcs),
        chi={c.name: cy.chi(c.j, arcs, cf, arcs.image(c.term)[0], tilde=c.tilde)
             for c in CHI_TERMS},
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
    # the chi part of ln d10 and ln d20
    chi_d10, chi_d20 = (sum(c.weight * ing.chi[c.name] for c in CHI_TERMS if c.term == term)
                        for term in (1, 2))

    d10 = (np.exp(chi_d10)
           * np.exp(1j * (nu.nu2 - 2 * nu.nu4) * lt)
           * np.exp(-1j * nu.nu_hat1 * np.log(t))
           * ing.z1.power(-2j * nu.nu_hat1)
           * ing.D1_wk4)
    d20 = (np.exp(chi_d20)
           * np.exp(1j * (nu.nu3 - 2 * nu.nu1) * ln2)
           * np.exp(-1j * nu.nu_hat2 * np.log(t))
           * ing.z2.power(-2j * nu.nu_hat2)
           * ing.D2_w2k2)
    return complex(d10), complex(d20)


# ---------------------------------------------------------------------------
# amplitudes, phases, and the leading term
# ---------------------------------------------------------------------------


#: Lanczos coefficients for g = 7
_LANCZOS = np.array([0.99999999999980993, 676.5203681218851, -1259.1392167224028,
                     771.32342877765313, -176.61502916214059, 12.507343278686905,
                     -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7])


def arg_gamma_i(nu: float) -> float:
    """arg Gamma(i nu) for nu > 0, continuous from -pi/2 as nu -> 0.

    Gamma(1 + z) = z Gamma(z) makes it Im log Gamma(1 + i nu) - pi/2, and log Gamma(1 + i nu)
    is the Lanczos sum less its real term ln(2 pi) / 2."""
    z = 1j * nu
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return float(((z + 0.5) * np.log(t) - t + np.log(x)).imag - np.pi / 2)


@dataclass(frozen=True)
class AsymptoticEvaluation:
    x: float
    t: float
    zeta: float
    A1: float
    A2: float
    alpha1: float
    alpha2: float
    u_asym: float
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
        alpha1 = (3 * np.pi / 4 + np.angle(ing.q.q3) + arg_gamma_i(hat1)
                  + np.angle(d10) + np.angle(ing.P_ratio1) - t * ing.im_phi31)
    else:
        a1c = 0.0
        alpha1 = 0.0
    comb = ing.q.q6 - ing.q.q2 * ing.q.q5
    if hat2 > NU_TINY:
        a2c = -4 * SQRT3 * np.sqrt(hat2) * np.sqrt(rt2) * sad.k2.imag * np.sin(
            ing.arcs.a2) / den2.real
        alpha2 = (3 * np.pi / 4 - np.angle(comb) + arg_gamma_i(hat2)
                  + np.angle(d20) + np.angle(ing.P_ratio2) - t * ing.im_phi32)
    else:
        a2c = 0.0
        alpha2 = 0.0

    u = (a1c * np.cos(alpha1) + a2c * np.cos(alpha2)) / np.sqrt(t)
    return AsymptoticEvaluation(
        x=ing.arcs.zeta * t, t=t, zeta=ing.arcs.zeta,
        A1=float(a1c), A2=float(a2c),
        alpha1=float(alpha1), alpha2=float(alpha2),
        u_asym=float(u), err_scale=float(np.log(t) / t),
    )
