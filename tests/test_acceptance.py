"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one PASS line with the measured quantities; a failing
criterion shows up as the test's FAILED line instead.
"""

import math

import mpmath
import numpy as np
import pytest

import truth
from airytunnel import (
    ParabolicBarrier,
    Sech2Barrier,
    airy,
    analyze_barrier,
    exact_transmission,
    psi_basis,
    rate_report,
    t_asymptotic,
    t_uniform,
    t_wkb,
)
from airytunnel.cli import main
from conftest import SquareBarrier, linear_potential, transfer_once

GAMMA_TWO_THIRDS_20_DIGITS = 1.3541179394264004170


def test_criterion_1_airy_kernel_wronskian_and_origin_values():
    worst = 0.0
    for u in np.linspace(-10.0, 10.0, 2001):
        p = airy(float(u))
        worst = max(worst, abs(p.ai * p.bi_prime - p.ai_prime * p.bi - 1.0 / math.pi))
    assert worst <= 1e-12

    ai0_closed = 1.0 / (9.0 ** (1.0 / 3.0) * GAMMA_TWO_THIRDS_20_DIGITS)
    bi0_closed = 1.0 / (3.0 ** (1.0 / 6.0) * GAMMA_TWO_THIRDS_20_DIGITS)
    pair = airy(0.0)
    assert abs(pair.ai / ai0_closed - 1.0) <= 1e-14
    assert abs(pair.bi / bi0_closed - 1.0) <= 1e-14
    print(
        "ACCEPTANCE 1 PASS: max |Wronskian - 1/pi| = %.3e on [-10,10]; "
        "Ai(0), Bi(0) match Gamma(2/3) closed forms to %.1e"
        % (worst, max(abs(pair.ai / ai0_closed - 1.0), abs(pair.bi / bi0_closed - 1.0)))
    )


def test_criterion_2_geometry_closed_forms():
    geom = analyze_barrier(ParabolicBarrier(1.0), 0.5)
    parabolic = truth.theta("parabolic", 0.5, 1.0)
    assert abs(geom.theta - parabolic) <= 1e-10
    assert abs(geom.c) <= 1e-10
    assert abs(abs(geom.alpha_plus) - math.sqrt(2.0)) <= 1e-9
    assert abs(abs(geom.alpha_minus) - math.sqrt(2.0)) <= 1e-9

    geom2 = analyze_barrier(Sech2Barrier(1.0, 1.0), 0.5)
    closed = truth.theta("sech2", 0.5, 1.0, 1.0)
    assert abs(geom2.theta - closed) <= 1e-8
    print(
        "ACCEPTANCE 2 PASS: parabolic theta err %.2e, |c| = %.2e, alpha err %.2e; "
        "sech2 theta err %.2e vs pi*w*(sqrt(V0)-sqrt(E))"
        % (
            abs(geom.theta - parabolic),
            abs(geom.c),
            abs(abs(geom.alpha_plus) - math.sqrt(2.0)),
            abs(geom2.theta - closed),
        )
    )


def test_criterion_3_exact_algebraic_tie():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        theta = float(rng.uniform(0.05, 25.0))
        a_plus = -float(np.exp(rng.uniform(-3.0, 3.0)))
        a_minus = float(np.exp(rng.uniform(-3.0, 3.0)))
        tie = t_asymptotic(theta, a_plus, a_minus) / (
            0.75 * abs(a_plus / a_minus) ** (1.0 / 3.0) * t_wkb(theta)
        )
        worst = max(worst, abs(tie - 1.0))
    assert worst <= 1e-12

    worst_even = 0.0
    for pot in (ParabolicBarrier(1.0), Sech2Barrier(1.0, 1.3)):
        geom = analyze_barrier(pot, 0.4)
        ta = t_asymptotic(geom.theta, geom.alpha_plus, geom.alpha_minus)
        worst_even = max(worst_even, abs(ta / (0.75 * t_wkb(geom.theta)) - 1.0))
    assert worst_even <= 1e-12
    print(
        "ACCEPTANCE 3 PASS: tie dev %.2e over 100 random cases; "
        "even-barrier dev %.2e" % (worst, worst_even)
    )


def test_criterion_4_asymptotic_consistency_chain():
    theta_unit = truth.theta("sech2", 0.5, 1.0, 1.0)
    devs = []
    for theta_target in (4.0, 6.0, 8.0, 12.0):
        geom = analyze_barrier(Sech2Barrier(1.0, theta_target / theta_unit), 0.5)
        rates_at = (geom.theta, geom.alpha_plus, geom.alpha_minus)
        dev = abs(t_uniform(*rates_at) / t_asymptotic(*rates_at) - 1.0)
        assert dev <= 0.7 / theta_target
        devs.append(dev)
    assert all(x > y for x, y in zip(devs[:-1], devs[1:]))
    print(
        "ACCEPTANCE 4 PASS: |t_uniform/t_asymptotic - 1| = %s at theta = (4, 6, 8, 12), "
        "each under 0.7/theta and strictly decreasing"
        % ", ".join("%.4f" % d for d in devs)
    )


def test_criterion_5_barrier_top_limit():
    limit = t_uniform(4e-30 / 3.0, -1.0, 1.0)
    assert abs(limit - 1.0) <= 1e-12

    near_top = rate_report(Sech2Barrier(1.0, 1.0), 0.999).t_uniform
    assert 0.9 <= near_top <= 1.0
    print(
        "ACCEPTANCE 5 PASS: t_uniform -> %.15f as the action vanishes; "
        "t_uniform = %.4f at E = 0.999 V0" % (limit, near_top)
    )


def test_criterion_6_oracle_calibration_flux_and_convergence():
    # domain (-5, 5) aligns the barrier edges with slice boundaries at
    # every resolution used here
    result = exact_transmission(SquareBarrier(1.0, 2.0), 0.5, (-5.0, 5.0), slices=20000)
    closed = truth.square_barrier(0.5, 1.0, 2.0)
    rel = abs(result.t_exact / closed - 1.0)
    assert closed == pytest.approx(0.21077, abs=5e-6)
    assert rel <= 1e-6
    assert result.flux_defect <= 1e-10

    pot = Sech2Barrier(1.0, 1.0)
    ts = {n: transfer_once(pot, 0.5, -12.0, 12.0, n)[0] for n in (500, 1000, 2000, 4000)}
    r1 = abs(ts[1000] - ts[500]) / abs(ts[2000] - ts[1000])
    r2 = abs(ts[2000] - ts[1000]) / abs(ts[4000] - ts[2000])
    assert r1 >= 4.0
    assert r2 >= 4.0
    print(
        "ACCEPTANCE 6 PASS: square-barrier T rel err %.2e vs closed form %.6f, "
        "flux defect %.2e, slice-doubling error ratios %.3f, %.3f"
        % (rel, closed, result.flux_defect, r1, r2)
    )


def test_criterion_7_desk_scale_comparison_table():
    rep = rate_report(ParabolicBarrier(1.0), 0.5)

    with mpmath.workdps(30):
        wkb_ref = float(mpmath.e ** (-2 * truth.theta("parabolic", 0.5, 1.0)))
        u_ref = (3 * truth.theta("parabolic", 0.5, 1.0) / 4) ** (mpmath.mpf(2) / 3)
        uni_ref = float(3 * (mpmath.airyai(u_ref) / mpmath.airybi(u_ref)) ** 2)
    asym_ref = 0.75 * wkb_ref

    assert wkb_ref == pytest.approx(0.207880, abs=1e-6)
    assert asym_ref == pytest.approx(0.155910, abs=1e-6)
    assert uni_ref == pytest.approx(0.1123, abs=5e-5)
    assert abs(rep.t_wkb / wkb_ref - 1.0) <= 1e-3
    assert abs(rep.t_asymptotic / asym_ref - 1.0) <= 1e-3
    assert abs(rep.t_uniform / uni_ref - 1.0) <= 1e-3
    print(
        "ACCEPTANCE 7 PASS: parabolic E=0.5 report (%.6f, %.6f, %.6f) within 1e-3 of "
        "recomputed (%.6f, %.6f, %.6f)"
        % (rep.t_wkb, rep.t_asymptotic, rep.t_uniform, wkb_ref, asym_ref, uni_ref)
    )


def test_criterion_8_wavefunction_exactness_on_linear_wavenumber():
    pot = linear_potential()
    energy = 2.0
    xs = energy + np.linspace(-2.0, 4.0, 100)
    mine = np.array([psi_basis(pot, energy, energy, float(x))[0] for x in xs])
    ref = np.array([airy(float(x - energy)).ai for x in xs])
    const = float(np.dot(mine, ref) / np.dot(ref, ref))
    max_rel = float(np.max(np.abs(mine - const * ref) / np.abs(ref)))
    assert max_rel <= 1e-8

    forb = energy + np.linspace(0.0, 5.0, 60)[1:]
    pairs = [psi_basis(pot, energy, energy, float(x)) for x in forb]
    ai_vals = [abs(p[0]) for p in pairs]
    bi_vals = [abs(p[1]) for p in pairs]
    assert all(x > y for x, y in zip(ai_vals[:-1], ai_vals[1:]))
    assert all(x < y for x, y in zip(bi_vals[:-1], bi_vals[1:]))
    print(
        "ACCEPTANCE 8 PASS: uniform psi+ matches shifted Ai to %.2e (fitted constant "
        "%.10f); forbidden-region decay/growth strict over %d samples"
        % (max_rel, const, len(forb))
    )


def test_criterion_9_method_grading_sweep(capsys, tmp_path):
    out_path = tmp_path / "grading.csv"
    code = main([
        "sweep", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--emin", "0.1", "--emax", "0.95", "--n", "18",
        "--oracle", "--oracle-slices", "1500",
        "--output", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[-2:] == ["t_exact", "flux_defect"]
    idx = {name: i for i, name in enumerate(header)}

    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 18
    worst = {"t_wkb": 0.0, "t_asymptotic": 0.0, "t_uniform": 0.0}
    for row in rows:
        t_ref = row[idx["t_exact"]]
        assert 0.0 < t_ref <= 1.0
        for name in worst:
            rel_err = abs(row[idx[name]] - t_ref) / t_ref
            assert math.isfinite(rel_err)
            worst[name] = max(worst[name], rel_err)
    print(
        "ACCEPTANCE 9 PASS: sweep E/V0 in [0.1, 0.95] graded against the exact "
        "solver; worst relative errors: wkb %.3f, asymptotic %.3f, uniform %.3f "
        "(no winner asserted)" % (worst["t_wkb"], worst["t_asymptotic"], worst["t_uniform"])
    )
