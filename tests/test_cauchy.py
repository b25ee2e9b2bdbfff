import numpy as np
import pytest
from scipy.integrate import quad

from bqist import asymptotics as asy
from bqist import cauchy as cy
from bqist import scattering as sc
from bqist.spectral import OMEGA
from bqist.util import gauss_legendre, graded_panels, panel_quad, refine_near
from neville import richardson_limit

ZETA = 0.75


@pytest.fixture(scope="module")
def arcs():
    return cy.SectorArcs.from_zeta(ZETA)


@pytest.fixture(scope="module")
def nu(arcs, cf_small):
    return cy.nu_bundle(arcs, cf_small)


# ---------------------------------------------------------------------------
# f and the zero-data limits
# ---------------------------------------------------------------------------


def test_zero_data_everything_trivial(zero_refl, arcs):
    cf0 = cy.CircleFunctions(zero_refl)
    assert abs(cf0.f_raw(np.pi / 5) - 1.0) < 1e-13
    for j in range(1, 6):
        assert abs(cy.delta(j, arcs, cf0, 0.4 + 0.2j) - 1.0) < 1e-12
        assert abs(cy.chi(j, arcs, cf0, 0.4 + 0.2j)) < 1e-11
    nb = cy.nu_bundle(arcs, cf0)
    assert max(abs(nb.nu1), abs(nb.nu2), abs(nb.nu3), abs(nb.nu4), abs(nb.nu5)) < 1e-12


def test_f_real_on_circle(cf_small):
    val = complex(cf_small.f_raw(np.pi / 5))
    assert abs(val.imag) < 1e-8
    assert val.real > 0


def test_one_positivity_check_for_every_log_argument():
    """check_positive, which guards both 1 + r1 r2 and f at its double zeros:
    Re > 0 at every sample, and max |Im| at most 1e-6 max(1, max Re)."""
    at = np.array([0.1, 0.2, 0.3])
    cy.check_positive(np.array([1.0 + 1e-6j, 0.5, 1e-300]), "g", "u", at)
    cy.check_positive(np.array([4.0 + 3.9e-6j, 0.5, 1.0]), "g", "u", at)
    with pytest.raises(cy.PositivityError, match="g has imaginary residual 1.10e-06"):
        cy.check_positive(np.array([1.0, 0.5 + 1.1e-6j, 0.2]), "g", "u", at)
    with pytest.raises(cy.PositivityError, match="g is nonpositive near u = 0.2"):
        cy.check_positive(np.array([1.0, -1e-3, 0.0]), "g", "u", at)


def test_f_vanishes_quadratically_at_one(cf_small):
    # at least double zero at k = 1: f/chord^2 stabilizes as the distance shrinks
    cs = []
    for u in (4e-3, 2e-3, 1e-3):
        f = complex(cf_small.f_raw(-u))
        cs.append(f.real / (2 * np.sin(u / 2)) ** 2)
    assert cs[0] > 0 and abs(cs[2] / cs[0] - 1) < 0.25


# ---------------------------------------------------------------------------
# delta: decay, jumps, the arc itself
# ---------------------------------------------------------------------------


def test_delta_tail_decay(arcs, cf_small):
    for j in (1, 2, 3, 4, 5):
        c1 = abs(cy.delta(j, arcs, cf_small, 1e3 + 0j) - 1) * 1e3
        c2 = abs(cy.delta(j, arcs, cf_small, 2e3 + 0j) - 1) * 2e3
        assert c2 < 2 * c1 + 1e-9  # fitted constant stable under k -> 2k


JUMP_EPS = np.array([8e-4, 4e-4, 2e-4, 1e-4])


def two_sided_limits(j, arcs, cf, theta, eps=JUMP_EPS):
    din = richardson_limit(eps, [cy.delta(j, arcs, cf, (1 - e) * np.exp(1j * theta))
                                 for e in eps])
    dout = richardson_limit(eps, [cy.delta(j, arcs, cf, (1 + e) * np.exp(1j * theta))
                                  for e in eps])
    return din, dout


def test_all_five_jump_relations(arcs, cf_small):
    onep = lambda th: np.exp(cf_small.g1(th))
    fv = lambda th: np.exp(cf_small.ln_f(th))
    fv2 = lambda th: np.exp(cf_small.ln_f2(th))
    th1 = 0.5 * (cy.ARC_LO + arcs.a4)
    th2 = 0.5 * (arcs.a4 + arcs.a2)
    th3 = arcs.a2 + 0.3 * (cy.TWO_THIRDS_PI - arcs.a2)
    din, dout = two_sided_limits(1, arcs, cf_small, th1)
    assert abs(dout - din * onep(th1)) < 1e-6
    din, dout = two_sided_limits(2, arcs, cf_small, th2)
    assert abs(din - dout * onep(th2)) < 1e-6
    din, dout = two_sided_limits(3, arcs, cf_small, th2)
    assert abs(din - dout * fv(th2)) < 1e-6
    din, dout = two_sided_limits(4, arcs, cf_small, th3)
    assert abs(din - dout * fv(th3)) < 1e-6
    din, dout = two_sided_limits(5, arcs, cf_small, th3)
    assert abs(din - dout * fv2(th3)) < 1e-6


def test_boundary_value_policy(arcs, cf_small):
    th2 = 0.5 * (arcs.a4 + arcs.a2)
    with pytest.raises(cy.BoundaryPolicyError):
        cy.delta(2, arcs, cf_small, np.exp(1j * th2))
    # one point on the arc among admissible ones fails the whole batch
    with pytest.raises(cy.BoundaryPolicyError):
        cy.delta(2, arcs, cf_small, [0.5 + 0.1j, np.exp(1j * th2), 2.0 + 0j])


def test_batched_delta_matches_pointwise(cf_small):
    """delta at the points of each script_D factor, in one call, against one call
    per point: the shared panels are refined near every point of the batch."""
    worst = 0.0
    for zeta in (0.64, 0.78, 0.93):
        arcs = cy.SectorArcs.from_zeta(zeta)
        for table, k in ((asy._D1_EXP, OMEGA * arcs.saddles.k4),
                         (asy._D2_EXP, OMEGA**2 * arcs.saddles.k2)):
            for j, factors in table.items():
                points = [asy._TRANSFORMS[name](k) for name in factors]
                batched = cy.delta(j, arcs, cf_small, points)
                assert batched.shape == (len(points),)
                single = [cy.delta(j, arcs, cf_small, p) for p in points]
                worst = max(worst, np.max(np.abs(batched - single)))
    assert worst < 1e-12


def test_delta_analytic_off_arcs(arcs, cf_small):
    # contour integral around a small circle in the cut-free zone vanishes
    th = np.linspace(0, 2 * np.pi, 33)[:-1]
    c0, rad = 0.55 - 0.25j, 0.08
    pts = c0 + rad * np.exp(1j * th)
    vals = np.array([cy.delta(3, arcs, cf_small, p) for p in pts])
    integral = np.sum(vals * 1j * rad * np.exp(1j * th)) * (2 * np.pi / 32)
    assert abs(integral) < 1e-8


# ---------------------------------------------------------------------------
# representations and chi
# ---------------------------------------------------------------------------

_REP_NUS = {
    1: (("nu1", -1, "a4"),),
    2: (("nu1", -1, "a4"), ("nu2", +1, "a2")),
    3: (("nu3", -1, "a4"), ("nu4", +1, "a2")),
    4: (("nu4", -1, "a2"),),
    5: (("nu5", -1, "a2"),),
}


def rep_value(j, arcs, cf, nu, k, tilde):
    """delta_j(k) as exp(-chi_j) times the end terms of chi_j's integration by
    parts: the nu terms at the saddle-angle ends and, for j = 1, the term
    g1(pi/2) ln(k - i)/(2 pi i) of the lower end at s = i, where
    g1 = ln(1 + |r1(i)|^2) is small but not zero."""
    expo = -cy.chi(j, arcs, cf, k, tilde=tilde)
    for name, sgn, arc_attr in _REP_NUS[j]:
        s = np.exp(1j * getattr(arcs, arc_attr))
        expo += sgn * 1j * getattr(nu, name) * cy.ln_branch(k, s, tilde=tilde)
    if j == 1:
        expo += cf.density("g1")(cy.ARC_LO) * cy.ln_branch(k, 1j, tilde=tilde) / (2j * np.pi)
    return np.exp(expo)


def safe_zone_points(n, seed=3):
    rng = np.random.default_rng(seed)
    angs = rng.uniform(-1.4, 0.7, n)
    rads = np.where(rng.random(n) < 0.5, rng.uniform(0.35, 0.8, n),
                    rng.uniform(1.25, 3.0, n))
    return rads * np.exp(1j * angs)


def test_representations_match_direct(arcs, cf_small, nu):
    for k in safe_zone_points(5):
        for j in range(1, 6):
            direct = cy.delta(j, arcs, cf_small, k)
            assert abs(direct - rep_value(j, arcs, cf_small, nu, k, False)) < 1e-14
            assert abs(direct - rep_value(j, arcs, cf_small, nu, k, True)) < 1e-14


# (j, saddle image, tilde) of the seven chi values that build_ingredients reads
CHI_EVALS = ((1, "wk4", False), (2, "wk4", True), (3, "wk4", True), (2, "w2k2", False),
             (3, "w2k2", False), (4, "w2k2", True), (5, "w2k2", True))


def saddle_images(arcs):
    return {"wk4": OMEGA * arcs.saddles.k4, "w2k2": OMEGA**2 * arcs.saddles.k2}


def ln_branch_sweep(k, thetas, tilde):
    """ln_s(k - s) along s = e^{i theta}, continuous in theta, anchored mid-sweep."""
    rel = k - np.exp(1j * thetas)
    cont = np.unwrap(np.angle(rel))
    mid = len(thetas) // 2
    v_mid = np.imag(cy.ln_branch(k, np.exp(1j * thetas[mid]), tilde=tilde))
    shift = 2 * np.pi * np.round((v_mid - cont[mid]) / (2 * np.pi))
    return np.log(np.abs(rel)) + 1j * (cont + shift)


def d_ln_layer(layer, theta):
    """d/dtheta of ln c(u) + 2 ln(2 sin(u/2)), u = 2 pi/3 - theta, from the fits."""
    u = cy.TWO_THIRDS_PI - np.asarray(theta, dtype=float)
    small = u < layer.U_MIN
    us = np.where(small, u, layer.U_MIN)
    dpoly = layer.poly.deriv()
    if layer.quadratic_zero:
        d_small = np.real(dpoly(us))
    else:
        d_small = np.real(dpoly(us)) / np.real(layer.poly(us)) - 1.0 / np.tan(0.5 * us)
    ul = np.where(small, layer.U_MIN, u)
    d_large = np.real(layer.fit.derivative()(np.log(ul))) / ul
    return -np.where(small, d_small, d_large) - 1.0 / np.tan(0.5 * u)


def ladder_chi(j, arcs, cf, k, tilde):
    """chi_j as sign/(2 pi i) int ln_s(k - s) g'(theta) dtheta; the arcs ending at
    omega are cut at 2 pi/3 - eps, the divergent end term is subtracted and the
    limit is Neville-extrapolated over a five-rung eps ladder."""
    name, dens_name, sign = cy._ARC_SPEC[j]
    lo, hi = cy._arc_interval(arcs, name)
    dens = cf.density(dens_name)
    ddens = {"g1": cf.g1.derivative(),
             "lnF": lambda th: d_ln_layer(cf.layer_omega, th),
             "lnF2": lambda th: d_ln_layer(cf.layer_one, th)}[dens_name]

    def weighted(lo_, hi_):
        sing_lo = abs(np.exp(1j * lo_) - k) < 1e-7
        sing_hi = abs(np.exp(1j * hi_) - k) < 1e-7
        panels = graded_panels(lo_, hi_, (sing_lo, sing_hi or name == "hi"), min_panel=1e-8)
        phi0 = float(np.angle(k))
        for cand in (phi0, phi0 + 2 * np.pi, phi0 - 2 * np.pi):
            if lo_ - 0.3 <= cand <= hi_ + 0.3 and not (sing_lo or sing_hi):
                gap = max(abs(abs(k) - 1.0), 1e-8)
                panels = refine_near(panels, cand, min_size=max(min(1e-5, gap / 4), 1e-8))
        return panel_quad(lambda th: ln_branch_sweep(k, th, tilde) * ddens(th), panels)

    if name != "hi":
        return sign * weighted(lo, hi) / (2j * np.pi)
    omega_log = cy.ln_branch(k, complex(OMEGA), tilde=tilde)
    eps = (1e-3, 10**-3.5, 1e-4, 10**-4.5, 1e-5)
    vals = [weighted(lo, cy.TWO_THIRDS_PI - e) - omega_log * dens(cy.TWO_THIRDS_PI - e)
            for e in eps]
    return sign * richardson_limit(eps, vals) / (2j * np.pi)


def test_chi_by_parts_matches_eps_ladder(cf_small):
    """The by-parts chi against the derivative-density ladder it replaced, at the
    saddle images build_ingredients uses and at an off-arc point in both branches.

    At the off-arc point each value is compared relative to the larger of its
    two branch values: tilde chi_4 and chi_5 are ten times smaller there than
    their untilded values, and the ladder's 3e-10 absolute error is 1.1e-7 of them.
    """
    worst = 0.0
    for zeta in (0.64, 0.78, 0.93):
        arcs = cy.SectorArcs.from_zeta(zeta)
        images = saddle_images(arcs)
        for j, image, tilde in CHI_EVALS:
            ref = ladder_chi(j, arcs, cf_small, images[image], tilde)
            new = cy.chi(j, arcs, cf_small, images[image], tilde=tilde)
            worst = max(worst, abs(new - ref) / abs(ref))
    arcs = cy.SectorArcs.from_zeta(ZETA)
    k = 0.5 - 0.3j
    for j in range(1, 6):
        refs = [ladder_chi(j, arcs, cf_small, k, tilde) for tilde in (False, True)]
        news = [cy.chi(j, arcs, cf_small, k, tilde=tilde) for tilde in (False, True)]
        scale = max(abs(r) for r in refs)
        worst = max(worst, *(abs(n - r) / scale for n, r in zip(news, refs)))
    assert worst < 1e-7


def quad_arc(integrand, lo, hi):
    """int integrand over [lo, hi] by scipy's adaptive quadrature (QAGS, whose
    extrapolation handles the ln u singularity of ln f at omega)."""
    return quad(integrand, lo, hi, complex_func=True, epsabs=1e-14, epsrel=1e-12, limit=400)[0]


def quad_chi(j, arcs, cf, k, tilde):
    """chi_j at an end k of its arc, by parts as chi's docstring writes it, with
    the arc integral by quad_arc instead of the production panels."""
    name, dens_name, sign = cy._ARC_SPEC[j]
    lo, hi = cy._arc_interval(arcs, name)
    dens = cf.density(dens_name)
    at_lo = abs(np.exp(1j * lo) - k) < 1e-7
    assert at_lo or abs(np.exp(1j * hi) - k) < 1e-7
    c = float(dens(lo if at_lo else hi))
    if at_lo:  # at omega the end term keeps only -c
        jump = -c if name == "hi" else float(dens(hi)) - c
        ends = jump * cy.ln_branch(k, np.exp(1j * hi), tilde=tilde)
    else:
        ends = -(float(dens(lo)) - c) * cy.ln_branch(k, np.exp(1j * lo), tilde=tilde)
    integral = quad_arc(lambda th: complex((dens(th) - c) * 1j * np.exp(1j * th)
                                           / (np.exp(1j * th) - k)), lo, hi)
    return sign * (ends - integral) / (2j * np.pi)


def test_chi_quadrature_matches_adaptive_quad(cf_small):
    """The seven chi values of build_ingredients at three zetas against the same
    by-parts integrals done by quad; 7.1e-13 worst, at chi_5."""
    worst = 0.0
    for zeta in (0.66, 0.78, 0.9):
        arcs = cy.SectorArcs.from_zeta(zeta)
        images = saddle_images(arcs)
        for j, image, tilde in CHI_EVALS:
            ref = quad_chi(j, arcs, cf_small, images[image], tilde)
            worst = max(worst, abs(cy.chi(j, arcs, cf_small, images[image], tilde=tilde) - ref))
    assert worst < 1e-11


def test_script_D_deltas_match_adaptive_quad(cf_small):
    """The ten delta quadratures of script_D at zeta = 0.78 (53 points) against
    exp(sign/(2 pi i) int g i s/(s - k) dtheta) by quad, relative; 1.7e-13 worst."""
    arcs = cy.SectorArcs.from_zeta(0.78)
    worst = 0.0
    for k, table in ((OMEGA * arcs.saddles.k4, asy._D1_EXP),
                     (OMEGA**2 * arcs.saddles.k2, asy._D2_EXP)):
        for j, factors in table.items():
            name, dens_name, sign = cy._ARC_SPEC[j]
            lo, hi = cy._arc_interval(arcs, name)
            dens = cf_small.density(dens_name)
            points = [asy._TRANSFORMS[t](k) for t in factors]
            for p, val in zip(points, cy.delta(j, arcs, cf_small, points)):
                integral = quad_arc(lambda th: complex(dens(th) * 1j * np.exp(1j * th)
                                                       / (np.exp(1j * th) - p)), lo, hi)
                ref = np.exp(sign * integral / (2j * np.pi))
                worst = max(worst, abs(val - ref) / abs(ref))
    assert worst < 1e-11


def test_chi_regularized_vs_integration_by_parts(arcs, cf_small):
    """Independent route: integrate by parts on graded panels written out here,
    with no eps limit, against the production tilde chi_4 and chi_5."""
    k = 0.5 - 0.3j
    for j, dens_name in ((4, "lnF"), (5, "lnF2")):
        dens = cf_small.density(dens_name)
        lo = arcs.a2

        def integrand(th):
            s = np.exp(1j * th)
            w_prime = -1j * s / (k - s)
            return dens(th) * w_prime

        panels = graded_panels(lo, cy.TWO_THIRDS_PI, (False, True), min_panel=1e-10)
        ibp = (-cy.ln_branch(k, np.exp(1j * lo), tilde=True) * dens(lo)
               - panel_quad(integrand, panels, n=20)) / (2j * np.pi)
        reg = cy.chi(j, arcs, cf_small, k, tilde=True)
        assert abs(reg - ibp) < 1e-7


def test_eps_sequence_extrapolates(arcs, cf_small):
    """The derivative-density eps ladder {1e-2, 1e-3, 1e-4} converges at
    (log-corrected) first order, and its Neville limit lands on the production
    chi; see the decisions notes for why the observed exponent sits slightly
    below 1."""
    k = np.exp(1j * arcs.a2)
    dens = cf_small.density("lnF")
    omega_log = cy.ln_branch(k, complex(OMEGA), tilde=True)

    def v_of(e):
        cut = cy.TWO_THIRDS_PI - e

        def integrand(th):
            return ln_branch_sweep(k, th, True) * d_ln_layer(cf_small.layer_omega, th)

        panels = graded_panels(arcs.a2, cut, (True, True), min_panel=1e-9)
        return panel_quad(integrand, panels, n=16) - omega_log * dens(cut)

    vals = [v_of(e) for e in (1e-2, 1e-3, 1e-4)]
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    order = np.log10(d1 / d2)
    assert order >= 0.85
    production = cy.chi(4, arcs, cf_small, k, tilde=True) * (2j * np.pi)
    assert abs(richardson_limit([1e-2, 1e-3, 1e-4], vals) - production) < 5e-4


def test_holder_bound_near_saddle(arcs, cf_small):
    images = saddle_images(arcs)
    for j, image, tilde in CHI_EVALS:
        chi_at = cy.chi(j, arcs, cf_small, images[image], tilde=tilde)
        ratios = []
        for n in range(4, 11):
            e = 2.0**-n
            k = (1 + e) * images[image]  # nontangential (radial) approach
            val = cy.chi(j, arcs, cf_small, k, tilde=tilde)
            ratios.append(abs(val - chi_at) / (e * (1 + abs(np.log(e)))))
        bound = 10 * max(ratios[:3]) + 1e-12
        assert max(ratios) < bound, (j, image, tilde)


def test_branch_log_conventions(arcs):
    s = np.exp(1j * 0.55 * np.pi)
    # normalization at k = 1
    assert abs(np.imag(cy.ln_branch(1.0 + 0j, s, tilde=False))
               - (0.55 * np.pi + 3 * np.pi) / 2) < 1e-12
    assert abs(np.imag(cy.ln_branch(1.0 + 0j, s, tilde=True))
               - (0.55 * np.pi - np.pi) / 2) < 1e-12
    # on-circle chord values
    phi = 0.62 * np.pi
    assert abs(np.imag(cy.ln_branch(np.exp(1j * phi), s, tilde=False))
               - (phi + 0.55 * np.pi + np.pi) / 2) < 1e-12
    with pytest.raises(ValueError):
        cy.ln_branch(np.exp(1j * 0.52 * np.pi), s, tilde=False)  # on the cut
    with pytest.raises(ValueError):
        cy.ln_branch(np.exp(1j * 0.9 * np.pi), s, tilde=True)  # on the tilde cut
    # the off-circle value agrees with a continuity limit onto the circle
    target = 1.0001 * np.exp(1j * 0.62 * np.pi)
    off_circle = cy.ln_branch(target, s, tilde=False)
    on_circle = cy.ln_branch(np.exp(1j * 0.62 * np.pi), s, tilde=False)
    assert abs(np.imag(off_circle) - np.imag(on_circle)) < 1e-3


def continued_arg(k, s, tilde):
    """arg(k' - s) continued from k' = 1 out to |k'| = 2, round the circle of
    radius 2 (clockwise for ln_s past pi/2, to miss the ray (i, i inf)) and in
    to k: a path that meets neither cut when |k| > 1."""
    phi = float(np.angle(k))
    sweep = phi - 2 * np.pi if not tilde and phi > np.pi / 2 else phi
    path = np.concatenate([np.linspace(1.0, 2.0, 400),
                           2 * np.exp(1j * np.linspace(0.0, sweep, 4000)),
                           np.linspace(2.0, abs(k), 400) * np.exp(1j * phi)])
    steps = np.angle((path[1:] - s) / (path[:-1] - s))
    assert np.max(np.abs(steps)) < 0.1
    return np.imag(cy.ln_branch(1.0, s, tilde)) + np.sum(steps)


def test_branch_log_off_circle_closed_form():
    s = np.exp(1.8393j)
    # just outside the tilde cut's arc, where marching a path from k = 1 needs
    # steps finer than the distance to the circle
    k = (1 + 2.7e-6) * np.exp(2.8189j)
    assert abs(np.imag(cy.ln_branch(k, s, tilde=True)) - continued_arg(k, s, True)) < 1e-10
    rng = np.random.default_rng(5)
    for k in np.exp(rng.uniform(1e-6, 1.0, 40) + 1j * rng.uniform(-np.pi, np.pi, 40)):
        for tilde in (False, True):
            val = cy.ln_branch(k, s, tilde)
            assert abs(np.exp(val) - (k - s)) < 1e-12 * abs(k - s)
            assert abs(np.imag(val) - continued_arg(k, s, tilde)) < 1e-10, (k, tilde)
    # Arg(k - s) jumps across {Im k = Im s, Re k < Re s}; neither branch does
    for x in (s.real - 1e-3, -0.9, -2.5):
        for tilde in (False, True):
            above, below = (cy.ln_branch(x + 1j * (s.imag + e), s, tilde) for e in (1e-9, -1e-9))
            assert abs(above - below) < 1e-5, (x, tilde)


# ---------------------------------------------------------------------------
# nu bundle
# ---------------------------------------------------------------------------


def test_nu_values_and_positivity(nu):
    assert nu.nu_hat1 >= -1e-10
    assert nu.nu_hat2 >= -1e-10
    for v in (nu.nu1, nu.nu2, nu.nu3, nu.nu4, nu.nu5):
        assert np.isfinite(v)


def nu_hat2_pointwise(arcs, cf):
    """nu2(k2) + nu3(k2) - nu4(k2) with nu3 evaluated as the pointwise function
    -(1/2 pi) ln f(omega k) at k = k2 (raw-combination route)."""
    inv2pi = 1.0 / (2 * np.pi)
    th_wk2 = float(np.angle(OMEGA * arcs.saddles.k2))
    f_wk2 = complex(cf.f_raw(th_wk2))
    if f_wk2.real <= 0:
        raise cy.PositivityError(f"f(omega k2) = {f_wk2} not positive")
    nu3_pt = -inv2pi * float(np.log(f_wk2.real))
    nb = cy.nu_bundle(arcs, cf)
    return nb.nu2 + nu3_pt - nb.nu4


def test_nu_hat2_two_routes(arcs, cf_small):
    bundled = cy.nu_bundle(arcs, cf_small).nu_hat2
    pointwise = nu_hat2_pointwise(arcs, cf_small)
    assert abs(bundled - pointwise) < 1e-9


def test_nu1_from_jump_magnitude(arcs, cf_small, nu):
    # |delta1_+ / delta1_-| = 1 + r1 r2 at an interior arc point recovers nu
    th = arcs.a4 - 0.3 * (arcs.a4 - cy.ARC_LO)
    din, dout = two_sided_limits(1, arcs, cf_small, th)
    nu_from_jump = -np.log(abs(dout / din)) / (2 * np.pi)
    direct = -float(np.real(cf_small.g1(th))) / (2 * np.pi)
    assert abs(nu_from_jump - direct) < 1e-8


def test_re_chi_formula_at_saddle(arcs, cf_small, nu):
    """Independent modulus oracle: Re chi_1(zeta, w k4) equals the half-angle
    weighted integral int theta/2 dg1, here by parts, plus (arg(w k4) + pi)/2
    times nu1."""
    g1 = cf_small.density("g1")
    panels = graded_panels(cy.ARC_LO, arcs.a4, (False, False), base=24)
    ends = 0.5 * (arcs.a4 * g1(arcs.a4) - cy.ARC_LO * g1(cy.ARC_LO))
    lead = (ends - 0.5 * panel_quad(g1, panels, n=16)) / (2 * np.pi)
    expected = -np.real(lead) + (arcs.a4 + np.pi) / 2 * nu.nu1
    computed = np.real(cy.chi(1, arcs, cf_small, np.exp(1j * arcs.a4)))
    assert abs(computed - expected) < 1e-8


# ---------------------------------------------------------------------------
# vectorized quadrature
# ---------------------------------------------------------------------------


def panel_loop_quad(fun, panels, n=16):
    """Reference composite rule: one call of ``fun`` per panel, summed in order;
    ``fun`` returns values of shape (..., nodes)."""
    xg, wg = gauss_legendre(n)
    total = 0.0 + 0.0j
    for lo, hi in panels:
        half = 0.5 * (hi - lo)
        total = total + half * np.sum(wg * fun(0.5 * (lo + hi) + half * xg), axis=-1)
    return total


def test_panel_quad_one_call_matches_panel_loop():
    calls = []

    def integrand(x):
        calls.append(x.shape)
        return np.log(1.0 - x) * np.exp(1j * x)

    panels = graded_panels(0.0, 1.0, (False, True))
    val = panel_quad(integrand, panels, n=16)
    assert calls == [(16 * len(panels),)]
    ref = panel_loop_quad(integrand, panels, n=16)
    assert abs(val - ref) <= 1e-14 * abs(ref)


def test_graded_panels_reach_min_panel():
    # the hi arc at zeta = 0.62 is 0.082 rad long, so 30 halvings end at 7.6e-11
    arcs = cy.SectorArcs.from_zeta(0.62)
    lo, hi = graded_panels(arcs.a2, cy.TWO_THIRDS_PI, (False, True), min_panel=1e-11)[-1]
    assert hi == cy.TWO_THIRDS_PI and 1e-11 <= hi - lo < 2e-11


def test_graded_panels_never_below_min_panel():
    """Panels tile [a, b] in order and none is narrower than min_panel, with
    the graded end on either side or both, on the hi arcs that _arc_panels
    grades toward omega and on plain intervals."""
    cases = [(cy.SectorArcs.from_zeta(z).a2, cy.TWO_THIRDS_PI, 1e-11) for z in (0.62, 0.78, 0.86)]
    cases += [(0.0, 1.0, 1e-9), (2.0, 2.1, 1e-9), (1.0, 3.0, 1e-11)]
    for a, b, min_panel in cases:
        for ends in ((True, False), (False, True), (True, True)):
            edges = np.array(graded_panels(a, b, ends, min_panel=min_panel))
            assert edges[0, 0] == a and edges[-1, 1] == b
            assert np.array_equal(edges[1:, 0], edges[:-1, 1]), (a, b, ends)
            assert np.min(edges[:, 1] - edges[:, 0]) >= min_panel, (a, b, ends)


def test_delta_chi_match_panel_loop_quadrature(cf_small, monkeypatch):
    """Whole-arc evaluation (one integrand call per arc) against the
    panel-by-panel rule, at the saddle images the asymptotic formula uses; delta
    is called as script_D calls it, once per factor on all its points."""
    chi_at = {  # (image, tilde) -> j where the branch is defined at that image
        ("wk4", False): (1,), ("wk4", True): (2, 3, 4, 5),
        ("w2k2", False): (1, 2, 3), ("w2k2", True): (4, 5),
        ("k4", False): (1, 2, 3, 4, 5), ("k4", True): (1, 2, 3, 4, 5),
    }

    def evaluate():
        out = []
        for zeta in (0.64, 0.78, 0.93):
            arcs = cy.SectorArcs.from_zeta(zeta)
            images = {"k4": arcs.saddles.k4, "wk4": OMEGA * arcs.saddles.k4,
                      "w2k2": OMEGA**2 * arcs.saddles.k2}
            for table, k in ((asy._D1_EXP, images["wk4"]), (asy._D2_EXP, images["w2k2"])):
                for j, factors in table.items():
                    out += list(cy.delta(j, arcs, cf_small,
                                         [asy._TRANSFORMS[name](k) for name in factors]))
            for (image, tilde), js in chi_at.items():
                out += [cy.chi(j, arcs, cf_small, images[image], tilde=tilde) for j in js]
        return np.array(out)

    production = evaluate()
    monkeypatch.setattr(cy, "panel_quad", panel_loop_quad)
    reference = evaluate()
    assert len(production) == 3 * (53 + 20)
    assert np.max(np.abs(production - reference)) < 1e-12
