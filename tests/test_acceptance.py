"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are identity- and decay-based; every tolerance is pinned here.
Datasets (see the decisions notes for the amplitude choices):
  #1/#2  band-limited Gaussian, amplitude 0.1, width 2, u1 = 0
  #3-#6  band-limited Gaussian, amplitude 0.015, width 2, u1 = 0
  #7     band-limited Gaussian, amplitude 0.005, width 2, u1 = 0
  #8     one-soliton profile, speed 1.3
"""

from functools import partial

import numpy as np
import pytest
from model_problem import model_beta

from bqist import asymptotics as asy
from bqist import cauchy as cy
from bqist import initial_data as ini
from bqist import pde
from bqist import scattering as sc
from bqist.spectral import OMEGA


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def circle_samples(n=200, seed=123):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * np.pi, 3 * n)
    kap = np.pi * np.arange(7) / 3
    keep = np.min(np.abs((th[:, None] - kap + np.pi) % (2 * np.pi) - np.pi), axis=1) > 1e-3
    return th[keep][:n]


# ---------------------------------------------------------------------------


def test_criterion_1_scattering_identities(data_acc):
    th = circle_samples(200)
    k = np.exp(1j * th)
    r1a, _ = sc.reflection_ratio(data_acc, 1 / (OMEGA * k), "X")
    r2b, _ = sc.reflection_ratio(data_acc, OMEGA * k, "XA")
    r1c, _ = sc.reflection_ratio(data_acc, OMEGA**2 * k, "X")
    r2d, _ = sc.reflection_ratio(data_acc, 1 / k, "XA")
    circle_resid = np.nanmax(np.abs(r1a + r2b + r1c * r2d))

    r2k, _ = sc.reflection_ratio(data_acc, k, "XA")
    r1inv, _ = sc.reflection_ratio(data_acc, 1 / np.conj(k), "X")
    rt = (OMEGA**2 - k**2) / (1 - OMEGA**2 * k**2)
    conj_resid = np.nanmax(np.abs(r2k - rt * np.conj(r1inv)))

    report("criterion 1 (scattering identities)",
           circle_resid < 1e-6 and conj_resid < 1e-6,
           f"sup circle-relation residual {circle_resid:.3e} (< 1e-6), "
           f"sup conjugate-relation residual {conj_resid:.3e} (< 1e-6)")


def test_criterion_2_endpoint_values(data_acc):
    from neville import richardson_limit

    worst = 0.0
    eps = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    for kstar in (1.0, -1.0):
        karr = np.exp(1j * eps) if kstar == 1.0 else np.exp(1j * (np.pi - eps))
        s, sA = (sc.scattering_columns(data_acc, karr, which) for which in ("X", "XA"))
        r1_lim = (richardson_limit(eps, (karr - kstar) * s[:, 0, 1])
                  / richardson_limit(eps, (karr - kstar) * s[:, 0, 0]))
        r2_lim = (richardson_limit(eps, (karr - kstar) * sA[:, 0, 1])
                  / richardson_limit(eps, (karr - kstar) * sA[:, 0, 0]))
        worst = max(worst, abs(r1_lim - 1.0), abs(r2_lim + 1.0))
    report("criterion 2 (endpoint values)", worst < 1e-4,
           f"max deviation of extrapolated r1 -> 1, r2 -> -1 at +-1: {worst:.3e} (< 1e-4)")


def test_criterion_3_delta_pipeline(cf_small):
    from tests.test_cauchy import _REP_NUS, rep_value, safe_zone_points, two_sided_limits

    arcs = cy.SectorArcs.from_zeta(0.75)
    nu = cy.nu_bundle(arcs, cf_small)

    # (a) the five jump relations
    onep = lambda th: np.exp(cf_small.g1(th))
    fv = lambda th: np.exp(cf_small.ln_f(th))
    fv2 = lambda th: np.exp(cf_small.ln_f2(th))
    th1 = 0.5 * (cy.ARC_LO + arcs.a4)
    th2 = 0.5 * (arcs.a4 + arcs.a2)
    th3 = arcs.a2 + 0.3 * (cy.TWO_THIRDS_PI - arcs.a2)
    jumps = []
    din, dout = two_sided_limits(1, arcs, cf_small, th1)
    jumps.append(abs(dout - din * onep(th1)))
    din, dout = two_sided_limits(2, arcs, cf_small, th2)
    jumps.append(abs(din - dout * onep(th2)))
    din, dout = two_sided_limits(3, arcs, cf_small, th2)
    jumps.append(abs(din - dout * fv(th2)))
    din, dout = two_sided_limits(4, arcs, cf_small, th3)
    jumps.append(abs(din - dout * fv(th3)))
    din, dout = two_sided_limits(5, arcs, cf_small, th3)
    jumps.append(abs(din - dout * fv2(th3)))
    jump_worst = max(jumps)

    # (b) representation (a) == representation (b) at 20 random points
    rep_worst = 0.0
    for k in safe_zone_points(20, seed=77):
        for j in range(1, 6):
            va = rep_value(j, arcs, cf_small, nu, k, False)
            vb = rep_value(j, arcs, cf_small, nu, k, True)
            rep_worst = max(rep_worst, abs(va - vb))

    # (c) moduli identities certifying the whole pipeline
    mod_worst = 0.0
    for zeta in (0.68, 0.80, 0.90):
        ing = asy.build_ingredients(zeta, cf_small)
        d10, d20 = asy.d_coefficients(ing, 100.0)
        mod_worst = max(mod_worst,
                        abs(abs(d10) - np.exp(-np.pi * ing.nu.nu1)),
                        abs(abs(d20) - np.exp(np.pi * (2 * ing.nu.nu2 - ing.nu.nu4))))

    report("criterion 3 (delta pipeline certification)",
           jump_worst < 1e-6 and rep_worst < 1e-8 and mod_worst < 1e-8,
           f"jump residual {jump_worst:.3e} (< 1e-6), representation equality "
           f"{rep_worst:.3e} (< 1e-8), moduli identities {mod_worst:.3e} (< 1e-8)")


def test_criterion_4_nu_hat_positivity(cf_small):
    worst = np.inf
    for zeta in np.linspace(0.62, 0.95, 30):
        arcs = cy.SectorArcs.from_zeta(float(zeta))
        nb = cy.nu_bundle(arcs, cf_small)
        worst = min(worst, nb.nu_hat1, nb.nu_hat2)
    report("criterion 4 (nu-hat positivity)", worst >= -1e-10,
           f"min of nu-hat over 30-point zeta grid [0.62, 0.95]: {worst:.3e} (>= -1e-10)")


def test_criterion_5_model_coefficient_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    done1 = done2 = 0
    while done1 < 100:
        q1 = rng.standard_normal() + 1j * rng.standard_normal()
        q3 = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
        if 1 + abs(q1) ** 2 - abs(q3) ** 2 <= 0.02 or 1 + abs(q1) ** 2 - abs(q3) <= 0:
            continue
        b12, b21 = model_beta(1, q1, q3)
        hat = (np.log(1 + abs(q1) ** 2)
               - np.log(1 + abs(q1) ** 2 - abs(q3) ** 2)) / (2 * np.pi)
        worst = max(worst, abs(b12 * b21 - hat))
        done1 += 1
    while done2 < 100:
        q2 = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
        q5 = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        q6 = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        if abs(q5) ** 2 + abs(q6) ** 2 >= 0.95:
            continue
        q4 = np.conj(q5) + q2 * np.conj(q6)
        if 1 + abs(q2) ** 2 - abs(q4) ** 2 <= 0.02:
            continue
        b12, b21 = model_beta(2, q2, q4, q5, q6)
        hat = (np.log(1 + abs(q2) ** 2 - abs(q4) ** 2) - np.log(1 + abs(q2) ** 2)
               - np.log(1 - abs(q5) ** 2 - abs(q6) ** 2)) / (2 * np.pi)
        worst = max(worst, abs(b12 * b21 - hat))
        done2 += 1
    report("criterion 5 (model coefficient identities)", worst < 1e-12,
           f"max |beta12 beta21 - nu-hat| over 100 draws per model: {worst:.3e} (< 1e-12)")


def test_criterion_6_soliton_phase_shift(cf_small):
    zeta = 0.75
    k0, c0 = 1.5, 1.0 + 0.0j
    assert sc.nonsingularity_value(k0, c0).real > 0  # admissible synthetic residue
    base = asy.build_ingredients(zeta, cf_small, solitons=None)
    right = asy.build_ingredients(zeta, cf_small, solitons=[k0])
    left = asy.build_ingredients(zeta, cf_small, solitons=[-0.6])
    t = 90.0
    e0 = asy.u_asym(base, t)
    e1 = asy.u_asym(right, t)
    e2 = asy.u_asym(left, t)
    expected = np.angle(right.P_ratio1)
    shift_err = abs((e1.alpha1 - e0.alpha1) - expected)
    left_shift = abs(e2.alpha1 - e0.alpha1) + abs(e2.alpha2 - e0.alpha2)
    report("criterion 6 (soliton phase shift)",
           shift_err < 1e-10 and left_shift == 0.0 and abs(expected) > 1e-3,
           f"right-zero shift error {shift_err:.3e} (< 1e-10, shift {expected:+.4f}), "
           f"left-zero shift {left_shift:.1e} (= 0)")


@pytest.fixture(scope="module")
def small_amp_pipeline():
    a = 0.005
    d = ini.gaussian_bandlimited(a, 2.0, u1_mode="zero")
    refl = sc.reflection_coefficients(d)
    cf = cy.CircleFunctions(refl)
    zetas = np.linspace(0.62, 0.95, 150)
    ings = {z: asy.build_ingredients(float(z), cf) for z in zetas}
    return a, zetas, ings


def test_criterion_7_pde_cross_validation(small_amp_pipeline):
    a, zetas, ings = small_amp_pipeline
    dp = ini.gaussian_bandlimited(a, 2.0, L=760.0, n=8193, u1_mode="zero")
    snaps = pde.evolve(dp, 240.0, dt=0.1, snapshot_times=[60.0, 120.0, 240.0])

    u_asym = [[asy.u_asym(ings[z], snap.t).u_asym for z in zetas] for snap in snaps]
    rep = pde.compare(zetas, u_asym, snaps)
    expo = rep["envelope_exponent"]
    ratios = rep["error_ratios"]
    ok_a = -0.6 <= expo <= -0.4
    ok_b = all(r <= 0.75 for r in ratios)
    report("criterion 7 (PDE cross-validation)", ok_a and ok_b,
           f"envelope exponent {expo:+.3f} (in [-0.6, -0.4]); error ratios per "
           f"doubling {['%.3f' % r for r in ratios]} (<= 0.75); "
           f"max errors {['%.2e' % r['max_err'] for r in rep['rows']]}")


def ds11_dk(data, k0):
    """s11' at k0, by a central difference along a direction interior to the
    analyticity domain."""
    return sc._s11_and_slope(partial(sc.s11_values, data), k0)[1]


def test_criterion_8_one_soliton_scattering(soliton_data, soliton_zeros):
    th = circle_samples(60, seed=5)
    r1, _ = sc.reflection_ratio(soliton_data, np.exp(1j * th), "X")
    sup_r1 = np.nanmax(np.abs(r1))
    n_zeros = len([z for z in soliton_zeros if z.real > 1 and abs(z.imag) < 1e-9])
    sol = sc.residue_constants(soliton_data, soliton_zeros)
    simple = abs(ds11_dk(soliton_data, soliton_zeros[0])) > 1e-3
    nonsing = sc.nonsingularity_value(sol.zeros[0], sol.c[0])
    ok = sup_r1 < 1e-3 and n_zeros == 1 and len(soliton_zeros) == 1 and simple \
        and not (abs(nonsing.imag) < 1e-8 and nonsing.real < 0)
    report("criterion 8 (one-soliton scattering)", ok,
           f"sup|r1| on contour {sup_r1:.3e} (< 1e-3); zeros in (1, inf): {n_zeros} "
           f"(= 1, simple); nonsingularity value {nonsing:.4f} (off the negative axis)")
