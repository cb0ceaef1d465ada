"""Turning points, action integrals, midpoint balance, slope limits."""

import math

import mpmath
import numpy as np
import pytest

from airytunnel import (
    DegenerateTurningPointError,
    DomainError,
    GaussianBarrier,
    MultiHumpUnsupported,
    NoBarrierError,
    NonSmoothError,
    ParabolicBarrier,
    Sech2Barrier,
    SquareBarrier,
    TabulatedPotential,
    action_integral,
    alpha_limit,
    analyze_barrier,
    find_midpoint,
    find_turning_points,
)
from airytunnel.geometry import solve_bracketed

SQRT_HALF = math.sqrt(0.5)
ACOSH_SQRT2 = math.log(1.0 + math.sqrt(2.0))  # arccosh(sqrt(2))


def test_turning_points_parabolic():
    a, b = find_turning_points(ParabolicBarrier(1.0), 0.5, (-1.5, 1.5))
    assert a == pytest.approx(-SQRT_HALF, abs=1e-9)
    assert b == pytest.approx(+SQRT_HALF, abs=1e-9)


def test_turning_points_sech2():
    pot = Sech2Barrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.5)
    assert a == pytest.approx(-ACOSH_SQRT2, abs=1e-9)
    assert b == pytest.approx(+ACOSH_SQRT2, abs=1e-9)
    # polished roots really are roots of k2
    scale = max(1.0, 0.5)
    assert abs(pot.wavenumber_sq(0.5, a)) <= 1e-12 * scale
    assert abs(pot.wavenumber_sq(0.5, b)) <= 1e-12 * scale


def test_no_barrier_above_top():
    with pytest.raises(NoBarrierError):
        find_turning_points(Sech2Barrier(1.0, 1.0), 1.5)


def test_no_barrier_when_window_cuts_hump():
    with pytest.raises(NoBarrierError):
        find_turning_points(Sech2Barrier(1.0, 1.0), 0.5, (-20.0, 0.0))


def test_multi_hump_rejected(double_hump_barrier):
    with pytest.raises(MultiHumpUnsupported):
        find_turning_points(double_hump_barrier, 0.5, (-6.0, 6.0))


def test_narrow_hump_needs_finer_scan():
    pot = Sech2Barrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.9999, (-1.0, 1.0), n_scan=8192)
    assert 0.0 < b < 0.05
    assert a == pytest.approx(-b, abs=1e-9)


def test_solve_bracketed_rejects_unbracketed_interval():
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x * x - 2.0, lambda x: 2.0 * x, 2.0, 3.0, 1e-14)
    root = solve_bracketed(lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 3.0, 1e-14)
    assert root == pytest.approx(math.sqrt(2.0), rel=4e-16)


def test_turning_points_far_from_origin():
    # Near x = 1000 one ulp (1.1e-13) exceeds the 1e-14 absolute root
    # tolerance; the searches must still stop, at spline accuracy.
    v0, w, energy, x0 = 1.0, 1.0, 0.3, 1000.0
    x = np.linspace(x0 - 10.0, x0 + 10.0, 2001)
    pot = TabulatedPotential(x, v0 / np.cosh((x - x0) / w) ** 2)
    a, b = find_turning_points(pot, energy)
    offset = w * math.acosh(math.sqrt(v0 / energy))
    assert a - x0 == pytest.approx(-offset, abs=1e-8)
    assert b - x0 == pytest.approx(offset, abs=1e-8)
    geom = analyze_barrier(pot, energy)
    assert geom.c - x0 == pytest.approx(0.0, abs=1e-8)
    assert geom.theta == pytest.approx(math.pi * w * (math.sqrt(v0) - math.sqrt(energy)), rel=1e-8)


def test_energy_must_be_positive():
    with pytest.raises(DomainError):
        find_turning_points(Sech2Barrier(1.0, 1.0), -0.5)
    # Fewer than 3 scan points can never bracket two turning points.
    for n_scan in (0, 1, 2):
        with pytest.raises(ValueError):
            find_turning_points(Sech2Barrier(1.0, 1.0), 0.5, n_scan=n_scan)
    _, b = find_turning_points(Sech2Barrier(1.0, 1.0), 0.5, n_scan=3)
    assert b == pytest.approx(ACOSH_SQRT2, abs=1e-12)


def test_action_parabolic_semicircle():
    # integral of sqrt(r^2 - x^2) over the diameter = pi r^2 / 2, r^2 = 0.5
    theta = action_integral(ParabolicBarrier(1.0), 0.5, -SQRT_HALF, SQRT_HALF)
    assert theta == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_action_empty_interval():
    assert action_integral(Sech2Barrier(1.0, 1.0), 0.5, 0.3, 0.3) == 0.0


def test_action_sech2_closed_form_and_quad_oracle():
    pot = Sech2Barrier(1.0, 1.0)
    theta = action_integral(pot, 0.5, -ACOSH_SQRT2, ACOSH_SQRT2)
    assert theta == pytest.approx(math.pi * (1.0 - math.sqrt(0.5)), abs=1e-8)
    with mpmath.workdps(15):
        ref = mpmath.quad(
            lambda x: mpmath.sqrt(max(mpmath.sech(x) ** 2 - 0.5, 0)), [-ACOSH_SQRT2, ACOSH_SQRT2]
        )
    assert theta == pytest.approx(float(ref), rel=1e-9)


def test_action_rejects_allowed_region_inside():
    with pytest.raises(DomainError):
        action_integral(Sech2Barrier(1.0, 1.0), 0.5, -1.5, ACOSH_SQRT2)


def test_action_doubling_quadrature_effort_is_converged():
    pot = GaussianBarrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.4)
    theta = action_integral(pot, 0.4, a, b, rel_tol=1e-12)
    theta_hard = action_integral(pot, 0.4, a, b, rel_tol=1e-13)
    assert abs(theta - theta_hard) <= 1e-10 * theta


def test_midpoint_even_potentials():
    assert find_midpoint(ParabolicBarrier(1.0), 0.5, -SQRT_HALF, SQRT_HALF) == pytest.approx(0.0, abs=1e-10)
    pot = Sech2Barrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.3)
    assert find_midpoint(pot, 0.3, a, b) == pytest.approx(0.0, abs=1e-10)


def test_midpoint_balances_tilted_barrier(tilted_barrier):
    a, b = find_turning_points(tilted_barrier, 0.5, (-4.0, 4.0))
    c = find_midpoint(tilted_barrier, 0.5, a, b)
    assert a < c < b
    assert c != pytest.approx(0.0, abs=1e-3)  # genuinely asymmetric
    left = action_integral(tilted_barrier, 0.5, a, c)
    right = action_integral(tilted_barrier, 0.5, c, b)
    theta = left + right
    assert abs(left - right) <= 1e-10 * theta
    # independent check of each half, one tanh-sinh rule per spline piece;
    # V is a double, so double precision is all the rule can use
    knots = tilted_barrier.x_samples.tolist()
    for lo, hi, mine in ((a, c, left), (c, b, right)):
        with mpmath.workdps(15):
            ref = mpmath.quad(
                lambda x: math.sqrt(max(tilted_barrier.v(float(x)) - 0.5, 0.0)),
                [lo] + [k for k in knots if lo < k < hi] + [hi],
            )
        assert mine == pytest.approx(float(ref), abs=1e-10)


def test_alpha_limits_parabolic():
    pot = ParabolicBarrier(1.0)
    assert alpha_limit(pot, 0.5, -SQRT_HALF, "left") == pytest.approx(-math.sqrt(2.0), rel=1e-9)
    assert alpha_limit(pot, 0.5, +SQRT_HALF, "right") == pytest.approx(+math.sqrt(2.0), rel=1e-9)


def test_alpha_limit_sech2_closed_form():
    pot = Sech2Barrier(1.0, 1.0)
    _, b = find_turning_points(pot, 0.5)
    alpha = alpha_limit(pot, 0.5, b, "right")
    assert alpha == pytest.approx(2.0 * 0.5 * math.tanh(b), rel=1e-10)
    assert alpha == pytest.approx(SQRT_HALF, rel=1e-6)
    # finite-difference oracle for dk2/dx = -V'
    h = 1e-6
    fd = -(pot.v(b + h) - pot.v(b - h)) / (2 * h)
    assert alpha == pytest.approx(fd, rel=1e-8)


def test_alpha_limit_degenerate_at_barrier_top():
    with pytest.raises(DegenerateTurningPointError):
        alpha_limit(Sech2Barrier(1.0, 1.0), 1.0, 0.0, "left")


def test_alpha_limit_side_validation():
    pot = ParabolicBarrier(1.0)
    with pytest.raises(DomainError):
        alpha_limit(pot, 0.5, +SQRT_HALF, "left")
    with pytest.raises(ValueError):
        alpha_limit(pot, 0.5, +SQRT_HALF, "up")


def test_analyze_parabolic_composite():
    geom = analyze_barrier(ParabolicBarrier(1.0), 0.5)
    assert geom.a == pytest.approx(-SQRT_HALF, abs=1e-9)
    assert geom.b == pytest.approx(+SQRT_HALF, abs=1e-9)
    assert geom.c == pytest.approx(0.0, abs=1e-10)
    assert geom.theta == pytest.approx(math.pi / 4.0, abs=1e-10)
    assert geom.s_half == pytest.approx(3.0 * math.pi / 16.0, abs=1e-10)
    assert geom.alpha_plus == pytest.approx(-math.sqrt(2.0), rel=1e-9)
    assert geom.alpha_minus == pytest.approx(+math.sqrt(2.0), rel=1e-9)
    assert geom.energy == 0.5


def test_analyze_near_top_small_action():
    geom = analyze_barrier(Sech2Barrier(1.0, 1.0), 0.999)
    assert 0.0 < geom.theta <= 0.01


def test_analyze_square_rejected():
    with pytest.raises(NonSmoothError):
        analyze_barrier(SquareBarrier(1.0, 2.0), 0.5)


def _random_cases(n, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        kind = rng.integers(0, 3)
        v0 = float(rng.uniform(0.5, 3.0))
        frac = float(rng.uniform(0.1, 0.9))
        if kind == 0:
            yield ParabolicBarrier(v0), frac * v0
        elif kind == 1:
            yield Sech2Barrier(v0, float(rng.uniform(0.7, 2.5))), frac * v0
        else:
            yield GaussianBarrier(v0, float(rng.uniform(0.7, 2.5))), frac * v0


def test_equal_split_and_half_action_random_cases():
    for pot, energy in _random_cases(50):
        geom = analyze_barrier(pot, energy)
        left = action_integral(pot, energy, geom.a, geom.c)
        right = action_integral(pot, energy, geom.c, geom.b)
        assert abs(left - right) <= 1e-9 * geom.theta
        assert abs(geom.s_half - 0.75 * geom.theta) <= 1e-9 * geom.theta
        assert geom.alpha_plus < 0.0 < geom.alpha_minus


def test_even_potentials_symmetric_geometry():
    for pot in (ParabolicBarrier(2.0), Sech2Barrier(1.0, 1.4), GaussianBarrier(1.5, 0.9)):
        geom = analyze_barrier(pot, 0.37 * pot.v0)
        assert abs(geom.c) <= 1e-10
        assert abs(geom.alpha_plus + geom.alpha_minus) <= 1e-9 * abs(geom.alpha_minus)


def test_theta_strictly_decreasing_in_energy():
    for pot in (ParabolicBarrier(1.0), Sech2Barrier(1.0, 1.0), GaussianBarrier(1.0, 1.0)):
        thetas = [
            analyze_barrier(pot, float(e)).theta
            for e in np.linspace(0.02, 0.98, 50)
        ]
        assert all(x > y for x, y in zip(thetas[:-1], thetas[1:]))
