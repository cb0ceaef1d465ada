"""Transmission formulas: closed-form spots, algebraic ties, limits."""

import math

import mpmath
import numpy as np
import pytest

from airytunnel import (
    BarrierGeometry,
    DegenerateTurningPointError,
    GaussianBarrier,
    NoBarrierError,
    ParabolicBarrier,
    Sech2Barrier,
    analyze_barrier,
    psi_basis,
    rate_report,
    t_asymptotic,
    t_uniform,
    t_wkb,
)

SECH2_THETA_UNIT = math.pi * (1.0 - math.sqrt(0.5))  # theta of sech2(1, 1) at E = 0.5


def symmetric_geometry(s_half):
    theta = s_half / 0.75
    return BarrierGeometry(
        a=-1.0, b=1.0, c=0.0, theta=theta, s_half=s_half,
        alpha_plus=-1.0, alpha_minus=1.0, energy=0.5,
    )


def test_wkb_closed_forms():
    assert t_wkb(math.pi / 4.0) == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-15)
    assert t_wkb(math.pi / 4.0) == pytest.approx(0.207880, abs=1e-6)
    assert t_wkb(0.0) == 1.0
    assert t_wkb(10.0) == pytest.approx(math.exp(-20.0), rel=1e-15)
    assert t_wkb(10.0) == pytest.approx(2.061e-9, rel=1e-3)
    with pytest.raises(ValueError):
        t_wkb(-1.0)


def test_asymptotic_closed_forms():
    sym = t_asymptotic(math.pi / 4.0, -1.0, 1.0)
    assert sym == pytest.approx(0.75 * math.exp(-math.pi / 2.0), rel=1e-14)
    assert sym == pytest.approx(0.155910, abs=1e-6)
    assert t_asymptotic(1.0, -8.0, 1.0) == pytest.approx(1.5 * math.exp(-2.0), rel=1e-14)
    assert t_asymptotic(1.0, -8.0, 1.0) == pytest.approx(0.203003, abs=1e-6)
    assert t_asymptotic(1.0, -1.0, 8.0) == pytest.approx(0.375 * math.exp(-2.0), rel=1e-14)
    assert t_asymptotic(1.0, -1.0, 8.0) == pytest.approx(0.050751, abs=1e-6)
    with pytest.raises(DegenerateTurningPointError):
        t_asymptotic(1.0, 0.0, 1.0)


def test_uniform_rate_barrier_top_limit():
    # s -> 0: T -> 3 (Ai(0)/Bi(0))^2 = 1 for a symmetric barrier
    assert t_uniform(symmetric_geometry(1e-30)) == pytest.approx(1.0, abs=1e-12)


def test_uniform_rate_thick_barrier_log_domain():
    # at theta = 350 the direct Bi ratio underflows to 0; the log-domain
    # path keeps a finite positive value close to the asymptotic rate
    geom = symmetric_geometry(0.75 * 350.0)
    t = t_uniform(geom)
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
        w = theta_target / SECH2_THETA_UNIT
        geom = analyze_barrier(Sech2Barrier(1.0, w), 0.5)
        assert geom.theta == pytest.approx(theta_target, rel=1e-10)
        dev = abs(t_uniform(geom) / t_asymptotic(geom.theta, geom.alpha_plus, geom.alpha_minus) - 1.0)
        assert dev <= 0.7 / theta_target
        deviations.append(dev)
    assert all(x > y for x, y in zip(deviations[:-1], deviations[1:]))


def test_barrier_top_behavior():
    pot = Sech2Barrier(1.0, 1.0)
    t_near = t_uniform(analyze_barrier(pot, 0.995))
    t_nearer = t_uniform(analyze_barrier(pot, 0.999))
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
    assert g2.theta == pytest.approx(2.0 * g1.theta, rel=1e-9)
    assert abs(g1.alpha_plus / g1.alpha_minus) == pytest.approx(1.0, rel=1e-9)
    assert abs(g2.alpha_plus / g2.alpha_minus) == pytest.approx(1.0, rel=1e-9)


def test_report_parabolic_against_recomputed_values():
    rep = rate_report(ParabolicBarrier(1.0), 0.5)
    assert rep.t_wkb == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-3)
    assert rep.t_asymptotic == pytest.approx(0.75 * math.exp(-math.pi / 2.0), rel=1e-3)
    # independent recomputation of the uniform rate from high-precision Airy
    u = (0.75 * math.pi / 4.0) ** (2.0 / 3.0)
    with mpmath.workdps(30):
        t_ref = float(3.0 * (mpmath.airyai(u) / mpmath.airybi(u)) ** 2)
    assert rep.t_uniform == pytest.approx(t_ref, rel=1e-3)
    assert rep.t_uniform == pytest.approx(0.1123, abs=2e-4)
    assert rep.airy_argument == pytest.approx(u, rel=1e-10)
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
    assert product == pytest.approx(t_uniform(geom), rel=1e-8)
