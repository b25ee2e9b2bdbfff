import numpy as np
import pytest
from model_problem import model_beta

from bqist import asymptotics as asy
from bqist import cauchy as cy
from bqist import initial_data as ini
from bqist import scattering as sc
from bqist.config import SPEC, NumericalError
from bqist.spectral import OMEGA, ZETA_MAX, ZETA_MIN, phi, saddle_points
from bqist.util import graded_panels, panel_quad, refine_near

ZETA = 0.75


@pytest.fixture(scope="module")
def ing(cf_small):
    return asy.build_ingredients(ZETA, cf_small)


# ---------------------------------------------------------------------------
# Blaschke product
# ---------------------------------------------------------------------------


def test_blaschke_empty():
    assert asy.blaschke_P(0.3 + 0.2j, None) == 1.0
    assert asy.blaschke_P(2.0 + 0j, []) == 1.0


def test_blaschke_unimodular_on_circle():
    rng = np.random.default_rng(9)
    zeros = [1.8 + 0.25j, 1.5]  # a conjugate-symmetric regular pair + a real zero
    for th in rng.uniform(0, 2 * np.pi, 50):
        val = asy.blaschke_P(np.exp(1j * th), zeros)
        assert abs(abs(val) - 1) < 1e-10


def test_blaschke_inversion_symmetry():
    rng = np.random.default_rng(10)
    zeros = [1.8 + 0.25j, 1.5]
    for _ in range(10):
        k = rng.uniform(0.2, 2.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert abs(asy.blaschke_P(k, zeros) - asy.blaschke_P(1 / k, zeros)) < 1e-10


def test_blaschke_left_movers_ignored():
    k = 0.7 + 0.3j
    assert asy.blaschke_P(k, [-0.6]) == 1.0
    assert asy.blaschke_P(k, [-0.8 - 0.2j]) == 1.0


def test_blaschke_pole_error():
    with pytest.raises(NumericalError, match="blaschke_P: pole"):
        asy.blaschke_P(OMEGA * 1.5, [1.5])


# ---------------------------------------------------------------------------
# z_star, q values, hessian
# ---------------------------------------------------------------------------


def test_z_star_normalization():
    """The principal square root gives the normalized sign across the window."""
    for zeta in np.linspace(ZETA_MIN, ZETA_MAX, 202)[1:-1]:
        arcs = cy.SectorArcs.from_zeta(zeta)
        z1 = asy.z_star(1, arcs)
        z2 = asy.z_star(2, arcs)
        n1 = -1j * OMEGA * arcs.saddles.k4 * z1.value
        n2 = -1j * OMEGA**2 * arcs.saddles.k2 * z2.value
        assert n1.real > 0 and abs(n1.imag) < 1e-12 * n1.real
        assert n2.real > 0 and abs(n2.imag) < 1e-12 * n2.real
        assert np.pi / 2 < arcs.a4 < 2 * np.pi / 3
        assert abs(np.angle(z1.value) - (np.pi / 2 - arcs.a4)) < 1e-9


def test_chi_terms_sit_at_an_end_of_their_arc():
    """Each chi term's saddle image is an end of its arc j: there chi finds
    theta_k and takes the by-parts end path, as build_ingredients needs."""
    assert len({c.name for c in asy.CHI_TERMS}) == len(asy.CHI_TERMS) == 7
    for zeta in (0.6, 0.75, 0.94):
        arcs = cy.SectorArcs.from_zeta(zeta)
        for c in asy.CHI_TERMS:
            lo, hi, _, _ = arcs.arc(c.j)
            image, angle = arcs.image(c.term)
            assert angle in (lo, hi), (zeta, c.name)
            assert abs(np.exp(1j * angle) - image) < 1e-7, (zeta, c.name)


def test_hessian_against_finite_differences():
    arcs = cy.SectorArcs.from_zeta(0.7)
    wk4 = OMEGA * arcs.saddles.k4
    h = 1e-4
    second = (phi(3, 1, 0.7, wk4 + h) - 2 * phi(3, 1, 0.7, wk4)
              + phi(3, 1, 0.7, wk4 - h)) / h**2
    coeff = asy.hessian_coefficient(1, arcs.saddles)
    assert abs(second + 2 * coeff) < 1e-6
    # z1*^2 = 2 i (hessian coefficient)
    z1 = asy.z_star(1, arcs)
    assert abs(z1.value**2 - 2j * coeff) < 1e-12


def test_q_values_and_constraint(cf_small):
    arcs = cy.SectorArcs.from_zeta(ZETA)
    q = asy.q_values(arcs, cf_small.refl)
    assert abs(q.q4 - np.conj(q.q5) - q.q2 * np.conj(q.q6)) < 1e-6  # 0 in theory
    assert abs(asy.rtilde(np.exp(2j * np.pi / 3))) < 1e-14
    assert abs(asy.rtilde(1.0) + 1) < 1e-14


def test_q_values_zero_data(zero_refl):
    arcs = cy.SectorArcs.from_zeta(ZETA)
    q = asy.q_values(arcs, zero_refl)
    for name in ("q1", "q2", "q3", "q4", "q5", "q6"):
        assert abs(getattr(q, name)) == 0.0


# ---------------------------------------------------------------------------
# script D and the d coefficients
# ---------------------------------------------------------------------------


def test_script_D_zero_data(zero_refl):
    arcs = cy.SectorArcs.from_zeta(ZETA)
    cf0 = cy.CircleFunctions(zero_refl)
    assert abs(asy.script_D(1, arcs, cf0, OMEGA * arcs.saddles.k4) - 1) < 1e-11
    assert abs(asy.script_D(2, arcs, cf0, OMEGA**2 * arcs.saddles.k2) - 1) < 1e-11


def refined_delta(j, arcs, cf, k):
    """delta_j(k) on panels graded to 1e-13 at omega, refined to 1e-9 near k,
    with a 32-point rule: a reference for the production quadrature."""
    lo, hi, dens_name, sign = arcs.arc(j)
    panels = graded_panels(lo, hi, (False, hi == cy.TWO_THIRDS_PI), min_panel=1e-13)
    phi0 = float(np.angle(k))
    for cand in (phi0, phi0 + 2 * np.pi, phi0 - 2 * np.pi):
        if lo - 0.5 <= cand <= hi + 0.5:
            panels = refine_near(panels, cand, min_size=1e-9)
    dens = cf.density(dens_name)

    def integrand(th):
        s = np.exp(1j * th)
        return dens(th) * 1j * s / (s - k)

    return np.exp(sign * panel_quad(integrand, panels, n=32) / (2j * np.pi))


def test_script_D_matches_refined_quadrature(cf_small):
    """D1 and D2 against factor-by-factor refined quadrature.  The bound lies
    between the measured worst relative difference, 6.5e-13, and the 1.1e-11 to
    8.6e-11 of panels graded only to 1e-9 at omega."""
    worst = 0.0
    for zeta in (0.78, 0.93):
        arcs = cy.SectorArcs.from_zeta(zeta)
        for which, table, k in ((1, asy._D1_EXP, OMEGA * arcs.saddles.k4),
                                (2, asy._D2_EXP, OMEGA**2 * arcs.saddles.k2)):
            ref = 1.0 + 0.0j
            for j, factors in table.items():
                for name, expo in factors.items():
                    ref *= refined_delta(j, arcs, cf_small, asy._TRANSFORMS[name](k)) ** expo
            worst = max(worst, abs(asy.script_D(which, arcs, cf_small, k) - ref) / abs(ref))
    assert worst < 3e-12


def test_script_D_two_representations(cf_small, ing):
    """Factor-by-factor representation (a) rebuild vs the arc-quadrature product."""
    from tests.test_cauchy import rep_value

    k = OMEGA * ing.arcs.saddles.k4
    rebuilt = 1.0 + 0.0j
    for j, factors in asy._D1_EXP.items():
        for name, expo in factors.items():
            arg = asy._TRANSFORMS[name](k)
            # arguments on one branch family's cut use the other family
            for tilde in (False, True):
                try:
                    value = rep_value(j, ing.arcs, cf_small, ing.nu, arg, tilde)
                    break
                except NumericalError:  # k on the cut of ln_branch
                    continue
            else:
                raise AssertionError(f"no branch family works at {arg}")
            rebuilt *= value ** expo
    assert abs(rebuilt - ing.D1_wk4) < 1e-14


def test_d_moduli_identities(cf_small):
    for zeta in (0.68, 0.8, 0.9):
        ingz = asy.build_ingredients(zeta, cf_small)
        d10, d20 = asy.d_coefficients(ingz, 100.0)
        nu = ingz.nu
        assert abs(abs(d10) - np.exp(-np.pi * nu.nu1)) < 1e-8
        assert abs(abs(d20) - np.exp(np.pi * (2 * nu.nu2 - nu.nu4))) < 1e-8


def test_d_zero_data(zero_refl):
    cf0 = cy.CircleFunctions(zero_refl)
    ing0 = asy.build_ingredients(ZETA, cf0)
    d10, d20 = asy.d_coefficients(ing0, 50.0)
    assert abs(d10 - 1) < 1e-10 and abs(d20 - 1) < 1e-10


# ---------------------------------------------------------------------------
# amplitudes, phases, u
# ---------------------------------------------------------------------------


def test_amplitudes_t_independent(ing):
    e1 = asy.u_asym(ing, 50.0)
    e2 = asy.u_asym(ing, 400.0)
    assert e1.A1 == e2.A1 and e1.A2 == e2.A2


def test_phase_drift_structure(ing):
    # alpha1(t) + t Im Phi31 + nu_hat1 ln t is a constant of t
    vals = []
    for t in (50.0, 120.0, 333.0):
        ev = asy.u_asym(ing, t)
        vals.append(ev.alpha1 + t * ing.im_phi31 + ing.nu.nu_hat1 * np.log(t))
    assert np.ptp(vals) < 1e-10


def test_amplitudes_real_and_sign_stable(cf_small):
    signs1, signs2 = set(), set()
    for zeta in np.linspace(0.64, 0.92, 8):
        ev = asy.u_asym(asy.build_ingredients(zeta, cf_small), 100.0)
        assert np.isfinite(ev.A1) and np.isfinite(ev.A2)
        signs1.add(np.sign(ev.A1))
        signs2.add(np.sign(ev.A2))
    assert len(signs1) == 1 and len(signs2) == 1


def test_u_asym_zero_data(zero_refl):
    cf0 = cy.CircleFunctions(zero_refl)
    ing0 = asy.build_ingredients(ZETA, cf0)
    ev = asy.u_asym(ing0, 100.0)
    assert ev.u_asym == 0.0 and ev.A1 == 0.0 and ev.A2 == 0.0
    assert ev.err_scale == np.log(100.0) / 100.0


def test_u_asym_domain_errors(ing):
    with pytest.raises(ValueError):
        asy.u_asym(ing, 1.5)


def test_soliton_phase_shift_additivity(cf_small):
    base = asy.build_ingredients(ZETA, cf_small)
    withz = asy.build_ingredients(ZETA, cf_small, solitons=[1.5])
    e0 = asy.u_asym(base, 80.0)
    e1 = asy.u_asym(withz, 80.0)
    assert abs(abs(withz.P_ratio1) - 1) < 1e-10  # unimodular on the circle
    assert abs(abs(withz.P_ratio2) - 1) < 1e-10
    shift1 = np.angle(withz.P_ratio1)
    shift2 = np.angle(withz.P_ratio2)
    assert abs((e1.alpha1 - e0.alpha1) - shift1) < 1e-10
    assert abs((e1.alpha2 - e0.alpha2) - shift2) < 1e-10
    assert abs(e1.A1 - e0.A1) < 1e-14  # amplitudes untouched by solitons
    lefty = asy.build_ingredients(ZETA, cf_small, solitons=[-0.6])
    e2 = asy.u_asym(lefty, 80.0)
    assert e2.alpha1 == e0.alpha1 and e2.alpha2 == e0.alpha2


def test_asym_on_reflectionless_soliton_data(soliton_data, soliton_zeros):
    """The criterion-8 soliton, read as samples the way the CLI reads a CSV
    input, has reflection data at noise level; every zeta of the default window
    still gives finite ingredients and a finite leading term."""
    data = ini.from_arrays(soliton_data.x, soliton_data.u0, soliton_data.u1)
    cf = cy.CircleFunctions(sc.reflection_coefficients(data, n_per_arc=56))
    for zeta in np.linspace(*SPEC["zeta_window"].default, SPEC["n_zeta"].default):
        ing = asy.build_ingredients(float(zeta), cf, solitons=soliton_zeros)
        for t in SPEC["t_values"].default:
            ev = asy.u_asym(ing, t)
            assert np.all(np.isfinite([ev.A1, ev.A2, ev.alpha1, ev.alpha2, ev.u_asym]))


def test_phase_derivative_identities(cf_small):
    # d/dzeta Im Phi_31(zeta, w k4(zeta)) = -Im k4;  for Phi_32: +Im k2
    h = 1e-5
    for zeta in (0.7, 0.85):
        vals31, vals32 = [], []
        for z in (zeta - h, zeta + h):
            s = saddle_points(z)
            vals31.append(np.imag(phi(3, 1, z, OMEGA * s.k4)))
            vals32.append(np.imag(phi(3, 2, z, OMEGA**2 * s.k2)))
        s0 = saddle_points(zeta)
        assert abs((vals31[1] - vals31[0]) / (2 * h) + np.imag(s0.k4)) < 1e-6
        assert abs((vals32[1] - vals32[0]) / (2 * h) - np.imag(s0.k2)) < 1e-6


# ---------------------------------------------------------------------------
# model problem coefficients
# ---------------------------------------------------------------------------


def admissible_q2(rng):
    q2 = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
    while True:
        q5 = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        q6 = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        if abs(q5) ** 2 + abs(q6) ** 2 < 0.95:
            break
    q4 = np.conj(q5) + q2 * np.conj(q6)
    if 1 + abs(q2) ** 2 - abs(q4) ** 2 <= 0.02:
        return admissible_q2(rng)
    return q2, q4, q5, q6


def test_beta_product_identities():
    rng = np.random.default_rng(21)
    for _ in range(100):
        q1 = rng.standard_normal() + 1j * rng.standard_normal()
        q3 = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
        if 1 + abs(q1) ** 2 - abs(q3) ** 2 <= 0.02:
            continue
        b12, b21 = model_beta(1, q1, q3)
        hat = (np.log(1 + abs(q1) ** 2)
               - np.log(1 + abs(q1) ** 2 - abs(q3) ** 2)) / (2 * np.pi)
        assert abs(b12 * b21 - hat) < 1e-12
    for _ in range(100):
        q2, q4, q5, q6 = admissible_q2(rng)
        b12, b21 = model_beta(2, q2, q4, q5, q6)
        hat = (np.log(1 + abs(q2) ** 2 - abs(q4) ** 2) - np.log(1 + abs(q2) ** 2)
               - np.log(1 - abs(q5) ** 2 - abs(q6) ** 2)) / (2 * np.pi)
        assert abs(b12 * b21 - hat) < 1e-12


def test_beta_trivial_and_errors():
    assert model_beta(1, 0.3 + 0.1j, 0.0) == (0.0, 0.0)
    with pytest.raises(NumericalError, match="q1"):
        model_beta(1, 0.0, 3.0)
    with pytest.raises(NumericalError, match="q5"):
        model_beta(2, 0.1, np.conj(0.9) + 0.1 * np.conj(0.9), 0.9, 0.9)
    with pytest.raises(ValueError, match="constraint"):
        model_beta(2, 0.1, 0.5, 0.1, 0.1)


def test_beta_nu_match_physical_q(cf_small, ing):
    """The model nu's recomputed from the physical q moduli agree with the
    reflection-side bundle (ties the closed forms to the scattering data)."""
    q, nu = ing.q, ing.nu
    assert abs(-np.log(1 + abs(q.q1) ** 2) / (2 * np.pi) - nu.nu1) < 1e-8
    assert abs(-np.log(1 + abs(q.q1) ** 2 - abs(q.q3) ** 2) / (2 * np.pi) - nu.nu3) < 1e-8
    assert abs(-np.log(1 + abs(q.q2) ** 2) / (2 * np.pi) - nu.nu2) < 1e-8
    assert abs(-np.log(1 + abs(q.q2) ** 2 - abs(q.q4) ** 2) / (2 * np.pi) - nu.nu4) < 1e-8
    assert abs(-np.log(1 - abs(q.q5) ** 2 - abs(q.q6) ** 2) / (2 * np.pi) - nu.nu5) < 1e-8
