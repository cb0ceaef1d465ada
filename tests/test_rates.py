"""Transmission formulas: closed-form spots, algebraic ties, limits."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import truth
from airytunnel import (
    DegenerateTurningPointError,
    GaussianBarrier,
    NoBarrierError,
    ParabolicBarrier,
    Sech2Barrier,
    TabulatedPotential,
    analyze_barrier,
    make_potential,
    psi_basis,
    rate_report,
    t_asymptotic,
    t_uniform,
    t_wkb,
)
from airytunnel import rates
from conftest import tilted_gaussian_samples


def test_wkb_closed_forms():
    assert t_wkb(math.pi / 4.0) == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-15, abs=0)
    assert t_wkb(math.pi / 4.0) == pytest.approx(0.207880, abs=1e-6)
    assert t_wkb(0.0) == 1.0
    assert t_wkb(10.0) == pytest.approx(math.exp(-20.0), rel=1e-15, abs=0)
    assert t_wkb(10.0) == pytest.approx(2.061e-9, rel=1e-3, abs=0)
    with pytest.raises(ValueError):
        t_wkb(-1.0)


def test_asymptotic_closed_forms():
    sym = t_asymptotic(math.pi / 4.0, -1.0, 1.0)
    assert sym == pytest.approx(0.75 * math.exp(-math.pi / 2.0), rel=1e-14, abs=0)
    assert sym == pytest.approx(0.155910, abs=1e-6)
    assert t_asymptotic(1.0, -8.0, 1.0) == pytest.approx(1.5 * math.exp(-2.0), rel=1e-14, abs=0)
    assert t_asymptotic(1.0, -8.0, 1.0) == pytest.approx(0.203003, abs=1e-6)
    assert t_asymptotic(1.0, -1.0, 8.0) == pytest.approx(0.375 * math.exp(-2.0), rel=1e-14, abs=0)
    assert t_asymptotic(1.0, -1.0, 8.0) == pytest.approx(0.050751, abs=1e-6)
    with pytest.raises(DegenerateTurningPointError):
        t_asymptotic(1.0, 0.0, 1.0)


def test_uniform_rate_barrier_top_limit():
    # theta -> 0: T -> 3 (Ai(0)/Bi(0))^2 |alpha+/alpha-|^(1/3), 1 for a
    # symmetric barrier; theta = 0 itself is that limit, and t_uniform
    # rounds it to 1 + 4.9e-15 (exp(ln 3 - 2 ln(Bi(0)/Ai(0))))
    assert t_uniform(0.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert t_uniform(4e-30 / 3.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert t_uniform(0.0, -8.0, 1.0) == pytest.approx(2.0, abs=2e-14)


def test_uniform_rate_thick_barrier_log_domain():
    # at theta = 350 the direct Bi ratio underflows to 0; the log-domain
    # path keeps a finite positive value close to the asymptotic rate
    t = t_uniform(350.0, -1.0, 1.0)
    assert 0.0 < t < 1e-300
    expected = 0.75 * math.exp(-700.0)
    assert t / expected == pytest.approx(1.0, abs=5e-3)


def test_algebraic_tie_between_asymptotic_and_wkb():
    rng = np.random.default_rng(3)
    for _ in range(100):
        theta = float(rng.uniform(0.05, 30.0))
        a_plus = -float(np.exp(rng.uniform(-3, 3)))
        a_minus = float(np.exp(rng.uniform(-3, 3)))
        lhs = t_asymptotic(theta, a_plus, a_minus)
        rhs = 0.75 * abs(a_plus / a_minus) ** (1.0 / 3.0) * t_wkb(theta)
        assert abs(lhs / rhs - 1.0) <= 1e-12


def test_symmetric_barrier_tie():
    for pot in (ParabolicBarrier(1.0), Sech2Barrier(1.0, 1.0), GaussianBarrier(1.0, 1.0)):
        geom = analyze_barrier(pot, 0.4)
        ta = t_asymptotic(geom.theta, geom.alpha_plus, geom.alpha_minus)
        assert abs(ta - 0.75 * t_wkb(geom.theta)) <= 1e-12 * ta


def test_asymptotic_consistency_chain():
    # sech2 width chosen to hit each target action exactly
    deviations = []
    for theta_target in (4.0, 6.0, 8.0, 12.0):
        w = theta_target / float(truth.theta("sech2", 0.5, 1.0, 1.0))
        geom = analyze_barrier(Sech2Barrier(1.0, w), 0.5)
        assert geom.theta == pytest.approx(theta_target, rel=1e-10, abs=0)
        rates_at = (geom.theta, geom.alpha_plus, geom.alpha_minus)
        dev = abs(t_uniform(*rates_at) / t_asymptotic(*rates_at) - 1.0)
        assert dev <= 0.7 / theta_target
        deviations.append(dev)
    assert all(x > y for x, y in zip(deviations[:-1], deviations[1:]))


def test_rates_on_sech2_approach_poschl_teller_as_the_barrier_widens():
    # Poschl-Teller's T carries a factor f = exp(-pi/(4 w sqrt v0)) that
    # WKB's exp(-2 theta) lacks, and t_uniform's prefactor 3 (Ai/Bi)**2
    # tends to (3/4) exp(-2 theta) as u grows. Measured worst
    # |t_wkb/(T f) - 1|: 7.5e-4, 4.9e-5 and 7.7e-7; t_uniform/((3/4) T f)
    # from 0.843-0.943 at w = 4 to 0.985-0.994 at w = 40.
    wkb_errors, ratios = [], []
    for w in (4.0, 10.0, 40.0):
        errors, row = [], []
        for v0 in (1.0, 2.0):
            for energy in (0.2 * v0, 0.5 * v0):
                report = rate_report(Sech2Barrier(v0, w), energy)
                f = mpmath.exp(-mpmath.pi / (4 * w * mpmath.sqrt(v0)))
                tf = truth.poschl_teller(energy, v0, w) * f
                errors.append(abs(report.t_wkb / tf - 1))
                row.append(report.t_uniform / (0.75 * tf))
        wkb_errors.append(max(errors))
        ratios.append(row)
    assert wkb_errors[0] <= 8e-4 and wkb_errors[1] <= 5e-5 and wkb_errors[2] <= 8e-7
    assert wkb_errors[0] > wkb_errors[1] > wkb_errors[2]
    assert all(r < s < t < 1 for r, s, t in zip(*ratios))
    assert min(ratios[0]) >= 0.84 and max(ratios[0]) <= 0.95 and min(ratios[2]) >= 0.98


def test_barrier_top_behavior():
    pot = Sech2Barrier(1.0, 1.0)
    t_near, t_nearer = (rate_report(pot, e).t_uniform for e in (0.995, 0.999))
    assert 0.9 <= t_near <= 1.0
    assert 0.9 <= t_nearer <= 1.0
    assert t_nearer > t_near


def test_rates_strictly_increase_with_energy():
    for pot in (ParabolicBarrier(1.0), Sech2Barrier(1.0, 1.0), GaussianBarrier(1.0, 1.0)):
        reports = [rate_report(pot, float(e)) for e in np.linspace(0.05, 0.95, 50)]
        for attr in ("t_wkb", "t_asymptotic", "t_uniform"):
            vals = [getattr(r, attr) for r in reports]
            assert all(x < y for x, y in zip(vals[:-1], vals[1:])), attr


def test_width_scaling_covariance():
    # V(x/2) doubles theta and keeps the alpha ratio at 1 for even barriers
    g1 = analyze_barrier(Sech2Barrier(1.0, 1.0), 0.35)
    g2 = analyze_barrier(Sech2Barrier(1.0, 2.0), 0.35)
    assert g2.theta == pytest.approx(2.0 * g1.theta, rel=1e-9, abs=0)
    assert abs(g1.alpha_plus / g1.alpha_minus) == pytest.approx(1.0, rel=1e-9, abs=0)
    assert abs(g2.alpha_plus / g2.alpha_minus) == pytest.approx(1.0, rel=1e-9, abs=0)


def test_report_parabolic_against_recomputed_values():
    rep = rate_report(ParabolicBarrier(1.0), 0.5)
    wkb = math.exp(-2.0 * truth.theta("parabolic", 0.5, 1.0))
    assert rep.t_wkb == pytest.approx(wkb, rel=1e-3, abs=0)
    assert rep.t_asymptotic == pytest.approx(0.75 * wkb, rel=1e-3, abs=0)
    # independent recomputation of the uniform rate from high-precision Airy
    with mpmath.workdps(30):
        u = (3 * truth.theta("parabolic", 0.5, 1.0) / 4) ** (mpmath.mpf(2) / 3)
        t_ref = float(3.0 * (mpmath.airyai(u) / mpmath.airybi(u)) ** 2)
    assert rep.t_uniform == pytest.approx(t_ref, rel=1e-3, abs=0)
    assert rep.t_uniform == pytest.approx(0.1123, abs=2e-4)
    assert rep.airy_argument == pytest.approx(u, rel=1e-10, abs=0)
    assert rep.t_exact is None and rep.oracle is None


def test_report_with_oracle():
    rep = rate_report(Sech2Barrier(1.0, 1.0), 0.5, with_oracle=True, oracle_slices=2000)
    assert rep.t_exact is not None
    assert 0.0 < rep.t_exact < 1.0
    assert rep.oracle.flux_defect <= 1e-10
    assert rep.oracle.slices == 4000


def test_report_no_barrier():
    with pytest.raises(NoBarrierError):
        rate_report(Sech2Barrier(1.0, 1.0), 2.0)


def test_product_factorization_reproduces_uniform_rate(tilted_barrier):
    # |psi_bi(b)/psi_bi(c)|^2 * |psi_ai(c)/psi_ai(a)|^2 collapses to the
    # closed-form uniform rate; checked on an asymmetric barrier
    energy = 0.5
    geom = analyze_barrier(tilted_barrier, energy, (-4.0, 4.0))
    psi_plus_at_a = psi_basis(tilted_barrier, energy, geom.a, geom.a)[0]
    psi_plus_at_c = psi_basis(tilted_barrier, energy, geom.a, geom.c)[0]
    psi_minus_at_b = psi_basis(tilted_barrier, energy, geom.b, geom.b)[1]
    psi_minus_at_c = psi_basis(tilted_barrier, energy, geom.b, geom.c)[1]
    product = (psi_minus_at_b / psi_minus_at_c) ** 2 * (psi_plus_at_c / psi_plus_at_a) ** 2
    assert product == pytest.approx(t_uniform(geom.theta, geom.alpha_plus, geom.alpha_minus), rel=1e-8, abs=0)


with mpmath.workdps(30):
    # d(1 - t_uniform)/du at u = 0: 2 (|Ai'(0)|/Ai(0) + Bi'(0)/Bi(0)), ~2.92
    TOP_SLOPE = float(2 * (-mpmath.airyai(0, 1) / mpmath.airyai(0) + mpmath.airybi(0, 1) / mpmath.airybi(0)))


@settings(max_examples=60, deadline=None)
@given(case=truth.barriers(depth=(1e-14, 1e-2)))
@example(case=("sech2", {"v0": 1.0, "w": 1.0}, 1.0 - 1e-8))
@example(case=("sech2", {"v0": 1.0, "w": 1.0}, 1.0 - 1e-10))
@example(case=("sech2", {"v0": 1.0, "w": 1.0}, 1.0 - 1e-12))
@example(case=("gaussian", {"v0": 1.0, "w": 1.0}, 1.0 - 1e-8))
@example(case=("gaussian", {"v0": 1.0, "w": 1.0}, 1.0 - 1e-10))
@example(case=("gaussian", {"v0": 1.0, "w": 1.0}, 1.0 - 1e-12))
@example(case=("parabolic", {"v0": 1.0}, 1.0 - 1e-8))
@example(case=("parabolic", {"v0": 1.0}, 1.0 - 1e-10))
@example(case=("parabolic", {"v0": 1.0}, 1.0 - 1e-12))
def test_uniform_rate_tends_to_one_at_the_barrier_top(case):
    # E = v0 (1 - d), d log-uniform in [1e-14, 1e-2]: u = airy_arg reaches
    # ~5e-10 at the low end and ~0.13 at the high end. The examples failed
    # the midpoint's balance check while its tolerance was a fixed 1e-10 theta.
    family, params, energy = case
    report = rate_report(make_potential(family, **params), energy)
    g, u, t = report.geometry, report.airy_argument, report.t_uniform
    # 1 - t = K u - (K u)**2 / 2 + ..., K = TOP_SLOPE, since |alpha+/alpha-| = 1
    # here. The second-order term measures at most 1.458 K u**2, its limit
    # (K u)**2 / 2 as u -> 0, and the rounding of t next to 1 adds 5.3e-15.
    assert 0.0 < 1.0 - t
    assert abs(1.0 - t - TOP_SLOPE * u) <= 1.46 * TOP_SLOPE * u * u + 6e-15
    # Each family forms V - E from v0 - E, so theta keeps its digits up to
    # the top (measured: at most 1.1e-15 of the truth)
    exact = truth.theta(family, energy, **params)
    assert abs(g.theta - exact) <= 2e-15 * exact


#: t_uniform / T on the parabola against Kemble's exact T, by theta:
#: measured, reproduced to 1e-15 on v0 = 1, 13 and 20. It falls from 2 at
#: the top to a minimum of ~0.577 near theta = 1.5, then climbs toward 3/4.
KEMBLE_RATIO = {
    0.0157: 1.7471276192640166,
    0.157: 1.1681423636401105,
    0.785: 0.652384992529176,
    1.41: 0.5768132389868613,
    3.0: 0.6104404060551639,
    12.0: 0.7155430546329248,
}


def test_uniform_rate_over_kemble_on_the_parabola_is_a_function_of_theta():
    for v0 in (1.0, 13.0):
        thetas = np.array([th for th in KEMBLE_RATIO if th < math.pi * v0 / 2])
        energies = v0 - 2.0 * thetas / math.pi
        report = rate_report(ParabolicBarrier(v0), energies)
        assert report.geometry.theta == pytest.approx(thetas, rel=1e-13, abs=0)
        for theta, t, e in zip(thetas.tolist(), report.t_uniform.tolist(), energies.tolist()):
            assert t / truth.kemble(e, v0) == pytest.approx(KEMBLE_RATIO[theta], rel=1e-12, abs=0), (v0, theta)
    # At the top T -> 1/2 while t_uniform -> 1: the ratio's limit is 2.
    energy = 1.0 - 1e-12
    report = rate_report(ParabolicBarrier(1.0), energy)
    assert truth.kemble(energy, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert report.t_uniform == pytest.approx(1.0, abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.sampled_from([1.0, 3.0, 8.0]),
    fractions=st.lists(st.floats(0.05, 0.9), min_size=1, max_size=8),
)
def test_uniform_rate_under_the_mirror(scale, fractions):
    # x -> -x swaps alpha+ and alpha- and keeps theta and u, so t_uniform
    # changes by exactly |alpha+/alpha-|**(-2/3). Rounding in theta grows
    # with it: on 1200 energies per width the worst error was
    # 1.03e-12 (1 + theta), theta up to 16.8.
    x, v = tilted_gaussian_samples()
    pot, mirrored = TabulatedPotential(scale * x, v), TabulatedPotential(-scale * x[::-1], v[::-1])
    window = (-6.0 * scale, 6.0 * scale)
    energies = np.array(fractions) * v.max()
    report = rate_report(pot, energies, window)
    g = report.geometry
    ratio = rate_report(mirrored, energies, window).t_uniform / report.t_uniform
    want = np.abs(g.alpha_plus / g.alpha_minus) ** (-2.0 / 3.0)
    assert np.all(np.abs(ratio / want - 1.0) <= 2e-12 * (1.0 + g.theta))


@settings(max_examples=60, deadline=None)
@given(
    # (theta, log10 |alpha+/alpha-|, log10 alpha-); past theta ~372 every
    # rate underflows to 0.0
    entries=st.lists(
        st.tuples(st.floats(0.0, 800.0), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)),
        min_size=1, max_size=16,
    ),
)
@example(entries=[(0.0, 0.0, 0.0), (372.5, 1.0, -1.0), (800.0, -3.0, 2.0)])
def test_rates_of_arrays_are_the_scalar_rates_bit_for_bit(entries):
    # The one array kernel at each entry is the public scalar function at
    # that entry's floats, and the public functions take arrays too.
    theta, log_ratio, log_alpha = (np.array(column) for column in zip(*entries))
    alpha_minus = 10.0 ** log_alpha
    alpha_plus = -(10.0 ** log_ratio) * alpha_minus
    _, wkb, asymptotic, uniform = rates._estimates(theta, alpha_plus, alpha_minus)
    for i, (t, p, m) in enumerate(zip(theta.tolist(), alpha_plus.tolist(), alpha_minus.tolist())):
        assert wkb[i].item().hex() == t_wkb(t).hex()
        assert asymptotic[i].item().hex() == t_asymptotic(t, p, m).hex()
        assert uniform[i].item().hex() == t_uniform(t, p, m).hex()
    assert np.array_equal(t_wkb(theta), wkb)
    assert np.array_equal(t_asymptotic(theta, alpha_plus, alpha_minus), asymptotic)
    assert np.array_equal(t_uniform(theta, alpha_plus, alpha_minus), uniform)


def test_rates_of_an_analyzed_sweep_are_arrays_of_the_scalar_rates():
    pot = Sech2Barrier(1.0, 1.0)
    energies = np.linspace(0.05, 0.95, 7)
    g = analyze_barrier(pot, energies)
    scalar = [analyze_barrier(pot, e) for e in energies.tolist()]
    got = (t_wkb(g.theta), t_asymptotic(g.theta, g.alpha_plus, g.alpha_minus),
           t_uniform(g.theta, g.alpha_plus, g.alpha_minus))
    want = (
        [t_wkb(h.theta) for h in scalar],
        [t_asymptotic(h.theta, h.alpha_plus, h.alpha_minus) for h in scalar],
        [t_uniform(h.theta, h.alpha_plus, h.alpha_minus) for h in scalar],
    )
    for array, values in zip(got, want):
        assert isinstance(array, np.ndarray) and array.tolist() == values


def test_rate_checks_name_the_first_failing_entry():
    with pytest.raises(ValueError, match=r"theta must be >= 0, got -2\.0"):
        t_wkb(np.array([1.0, -2.0, -3.0]))
    with pytest.raises(ValueError, match=r"got nan"):
        t_wkb(math.nan)
    with pytest.raises(DegenerateTurningPointError, match="alpha = 0"):
        t_asymptotic(np.array([1.0, 1.0]), np.array([-1.0, 0.0]), np.array([1.0, 1.0]))
