"""Turning points, action integrals, midpoint balance, slope limits."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

import truth
from airytunnel import (
    DegenerateTurningPointError,
    DomainError,
    GaussianBarrier,
    MultiHumpUnsupported,
    NoBarrierError,
    ParabolicBarrier,
    Potential,
    Sech2Barrier,
    TabulatedPotential,
    action_integral,
    alpha_limit,
    analyze_barrier,
    find_midpoint,
    find_turning_points,
    make_potential,
)
from airytunnel import geometry, potential, rate_report
from airytunnel.quadrature import integrate_endpoint_singular, solve_bracketed
from conftest import entry_matches, not_even

B_PARABOLIC = float(truth.turning_point("parabolic", 0.5, 1.0))
B_SECH2 = float(truth.turning_point("sech2", 0.5, 1.0, 1.0))


def test_turning_points_parabolic():
    a, b = find_turning_points(ParabolicBarrier(1.0), 0.5, (-1.5, 1.5))
    assert a == pytest.approx(-B_PARABOLIC, abs=1e-9)
    assert b == pytest.approx(+B_PARABOLIC, abs=1e-9)


def test_turning_points_sech2():
    pot = Sech2Barrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.5)
    assert a == pytest.approx(-B_SECH2, abs=1e-9)
    assert b == pytest.approx(+B_SECH2, abs=1e-9)
    # polished roots really are roots of k2
    scale = max(1.0, 0.5)
    assert np.all(np.abs(pot.gap(0.5, np.array([a, b]))) <= 1e-12 * scale)


def test_no_barrier_above_top():
    with pytest.raises(NoBarrierError):
        find_turning_points(Sech2Barrier(1.0, 1.0), 1.5)


def test_no_barrier_when_window_cuts_hump():
    with pytest.raises(NoBarrierError):
        find_turning_points(Sech2Barrier(1.0, 1.0), 0.5, (-20.0, 0.0))
    # a window inside the forbidden region has no crossing at all
    message = r"^forbidden region is not closed inside the window \(-0.5, 0.5\)$"
    with pytest.raises(NoBarrierError, match=message):
        find_turning_points(Sech2Barrier(1.0, 1.0), 0.5, (-0.5, 0.5))


def test_multi_hump_rejected(double_hump_barrier):
    with pytest.raises(MultiHumpUnsupported):
        find_turning_points(double_hump_barrier, 0.5, (-6.0, 6.0))


def test_narrow_hump_just_below_the_top():
    pot = Sech2Barrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.9999, (-1.0, 1.0))
    assert 0.0 < b < 0.05
    assert a == pytest.approx(-b, abs=1e-9)


def test_solve_bracketed_rejects_unbracketed_interval():
    def f(x, j=None):
        return x * x - 2.0, 2.0 * x

    def solve(lo, hi):
        lo, hi = np.array([lo]), np.array([hi])
        return solve_bracketed(f, lo, hi, f(lo)[0], f(hi)[0], 1e-14)

    with pytest.raises(ValueError):
        solve(2.0, 3.0)
    root = solve(0.0, 3.0)
    assert root.shape == (1,)
    assert root[0] == pytest.approx(math.sqrt(2.0), rel=4e-16)


def test_turning_points_far_from_origin():
    # Near x = 1000 one ulp (1.1e-13) exceeds the 1e-14 absolute root
    # tolerance; the searches must still stop, at spline accuracy.
    v0, w, energy, x0 = 1.0, 1.0, 0.3, 1000.0
    x = np.linspace(x0 - 10.0, x0 + 10.0, 2001)
    pot = TabulatedPotential(x, v0 / np.cosh((x - x0) / w) ** 2)
    a, b = find_turning_points(pot, energy)
    offset = truth.turning_point("sech2", energy, v0, w)
    assert a - x0 == pytest.approx(-offset, abs=1e-8)
    assert b - x0 == pytest.approx(offset, abs=1e-8)
    geom = analyze_barrier(pot, energy)
    assert geom.c - x0 == pytest.approx(0.0, abs=1e-8)
    assert geom.theta == pytest.approx(truth.theta("sech2", energy, v0, w), rel=1e-8)


def test_energy_must_be_positive():
    with pytest.raises(DomainError):
        find_turning_points(Sech2Barrier(1.0, 1.0), -0.5)


def test_action_parabolic_semicircle():
    # integral of sqrt(r^2 - x^2) over the diameter = pi r^2 / 2, r^2 = 0.5
    theta = action_integral(ParabolicBarrier(1.0), 0.5, -B_PARABOLIC, B_PARABOLIC)
    assert theta == pytest.approx(truth.theta("parabolic", 0.5, 1.0), abs=1e-12)


def test_action_empty_interval():
    assert action_integral(Sech2Barrier(1.0, 1.0), 0.5, 0.3, 0.3) == 0.0


def test_action_sech2_closed_form_and_quad_oracle():
    pot = Sech2Barrier(1.0, 1.0)
    theta = action_integral(pot, 0.5, -B_SECH2, B_SECH2)
    assert theta == pytest.approx(truth.theta("sech2", 0.5, 1.0, 1.0), rel=1e-9)


def test_action_rejects_allowed_region_inside():
    with pytest.raises(DomainError):
        action_integral(Sech2Barrier(1.0, 1.0), 0.5, -1.5, B_SECH2)


def test_action_names_the_segment_that_leaves_the_barrier():
    # [-3, 3] holds sech2's allowed tails, |x| > arccosh(sqrt 2) ~ 0.88, at E = 0.5
    pot = Sech2Barrier(1.0, 1.0)
    with pytest.raises(DomainError, match=r"^V < E inside \[-3, 3\]: inconsistent turning points$"):
        action_integral(pot, 0.5, -3.0, 3.0)
    with mpmath.workdps(15):
        ref = mpmath.quad(lambda x: mpmath.sqrt(mpmath.sech(x) ** 2 - 0.5), [-0.5, 0.8])
    assert action_integral(pot, 0.5, -0.5, 0.8) == pytest.approx(float(ref), rel=1e-12)


def test_action_doubling_quadrature_effort_is_converged():
    pot = GaussianBarrier(1.0, 1.0)
    a, b = find_turning_points(pot, 0.4)
    theta = action_integral(pot, 0.4, a, b)

    def kappa(x):
        return np.sqrt(np.maximum(pot.gap(0.4, x), 0.0))

    def integrate(rel_tol):
        return integrate_endpoint_singular(kappa, np.array([a]), np.array([b]), rel_tol=rel_tol).item()

    assert theta == integrate(1e-12)  # the integrator's own tolerance
    theta_hard = integrate(1e-13)
    assert abs(theta - theta_hard) <= 1e-10 * theta


def test_midpoint_even_potentials():
    assert find_midpoint(ParabolicBarrier(1.0), 0.5, -B_PARABOLIC, B_PARABOLIC) == pytest.approx(0.0, abs=1e-10)
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
    # independent check of each half: the spline's knot-split action in mpmath
    with mpmath.workdps(20):
        to_c, to_b = truth.mp_spline_action(tilted_barrier, 0.5, a, [c, b])
    assert left == pytest.approx(to_c, abs=1e-10) and right == pytest.approx(to_b - to_c, abs=1e-10)


def test_midpoint_search_step_outside_the_barrier_fails_its_energy(monkeypatch, tilted_barrier):
    # Theta's quadrature over [a, b] rejects a barrier with V < E inside
    # before its search starts, so no real barrier reaches the check on the
    # search's step segments; one flagged step of energy i stands in for one.
    window, energies, i = (-4.0, 4.0), np.array([0.3, 0.5, 0.7]), 1
    want = [analyze_barrier(tilted_barrier, e, window) for e in energies[:i].tolist()]
    a, b = find_turning_points(tilted_barrier, energies[i], window)
    message = "V < E inside [%g, %g]: inconsistent turning points" % (a, b)
    actions, solve = geometry._actions, geometry.solve_bracketed
    searching, flagged = [], []

    def search(*args):
        searching.append(True)
        try:
            return solve(*args)
        finally:
            searching.clear()

    def flag_one_step(pot, e, x1, x2, *rest):
        values, (outside, build_error) = actions(pot, e, x1, x2, *rest)
        if searching and not flagged:
            flagged.extend(np.flatnonzero(e == energies[i])[:1].tolist())
            outside[flagged] = True
        return values, (outside, build_error)

    monkeypatch.setattr(geometry, "solve_bracketed", search)
    monkeypatch.setattr(geometry, "_actions", flag_one_step)
    with pytest.raises(DomainError) as info:
        analyze_barrier(tilted_barrier, energies, window)
    assert flagged and type(info.value) is DomainError and str(info.value) == message
    flagged.clear()
    geom, exc = geometry._geometries(tilted_barrier, energies, window)
    assert flagged and type(exc) is DomainError and str(exc) == message
    assert geom.energy.size == i
    assert all(entry_matches(geom, k, want[k]) for k in range(i))


@pytest.mark.parametrize("offset", [-200, -57, 90, 311])
def test_bracket_end_at_a_knot_is_the_turning_point(offset, tilted_barrier):
    # At E = V at a knot, k2 is exactly 0 at that bracket end, which is then
    # the root: no iterate moves it off the knot.
    x, v = tilted_barrier.x_samples, tilted_barrier.v_samples
    i = int(np.argmax(v)) + offset
    energy, knot = float(v[i]), float(x[i])
    side = 0 if offset < 0 else 1  # a on the rising flank, b on the falling one
    assert find_turning_points(tilted_barrier, energy)[side] == knot
    geom = analyze_barrier(tilted_barrier, np.array([energy, 0.5]))
    assert (geom.a, geom.b)[side][0] == knot


def test_alpha_limits_parabolic():
    pot = ParabolicBarrier(1.0)
    assert alpha_limit(pot, 0.5, -B_PARABOLIC, "left") == pytest.approx(-math.sqrt(2.0), rel=1e-9)
    assert alpha_limit(pot, 0.5, +B_PARABOLIC, "right") == pytest.approx(+math.sqrt(2.0), rel=1e-9)


def test_alpha_limit_sech2_closed_form():
    pot = Sech2Barrier(1.0, 1.0)
    _, b = find_turning_points(pot, 0.5)
    alpha = alpha_limit(pot, 0.5, b, "right")
    assert alpha == pytest.approx(2.0 * 0.5 * math.tanh(b), rel=1e-10)
    assert alpha == pytest.approx(math.sqrt(0.5), rel=1e-6)
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
        alpha_limit(pot, 0.5, +B_PARABOLIC, "left")
    with pytest.raises(ValueError):
        alpha_limit(pot, 0.5, +B_PARABOLIC, "up")


def test_analyze_parabolic_composite():
    geom = analyze_barrier(ParabolicBarrier(1.0), 0.5)
    assert geom.a == pytest.approx(-B_PARABOLIC, abs=1e-9)
    assert geom.b == pytest.approx(+B_PARABOLIC, abs=1e-9)
    assert geom.c == pytest.approx(0.0, abs=1e-10)
    assert geom.theta == pytest.approx(truth.theta("parabolic", 0.5, 1.0), abs=1e-10)
    u = (3 * truth.theta("parabolic", 0.5, 1.0) / 4) ** (mpmath.mpf(2) / 3)
    assert rate_report(ParabolicBarrier(1.0), 0.5).airy_argument == pytest.approx(u, abs=1e-10)
    assert geom.alpha_plus == pytest.approx(-math.sqrt(2.0), rel=1e-9)
    assert geom.alpha_minus == pytest.approx(+math.sqrt(2.0), rel=1e-9)
    assert geom.energy == 0.5


def test_analyze_near_top_small_action():
    geom = analyze_barrier(Sech2Barrier(1.0, 1.0), 0.999)
    assert 0.0 < geom.theta <= 0.01


@settings(max_examples=50, deadline=None)
@given(case=truth.barriers(v0=(0.5, 3.0), w=(0.7, 2.5), fraction=(0.1, 0.9)))
def test_equal_split_and_half_action_random_cases(case):
    family, params, energy = case
    pot = make_potential(family, **params)
    report = rate_report(pot, energy)
    geom = report.geometry
    left = action_integral(pot, energy, geom.a, geom.c)
    right = action_integral(pot, energy, geom.c, geom.b)
    assert abs(left - right) <= 1e-9 * geom.theta
    assert report.airy_argument == (np.array([0.75 * geom.theta]) ** (2.0 / 3.0)).item()
    assert geom.alpha_plus < 0.0 < geom.alpha_minus


def test_even_potentials_symmetric_geometry():
    for pot in (ParabolicBarrier(2.0), Sech2Barrier(1.0, 1.4), GaussianBarrier(1.5, 0.9)):
        geom = analyze_barrier(pot, 0.37 * pot.v0)
        assert abs(geom.c) <= 1e-10
        assert abs(geom.alpha_plus + geom.alpha_minus) <= 1e-9 * abs(geom.alpha_minus)


EVEN_CASES = [(ParabolicBarrier, (2.0,)), (Sech2Barrier, (1.0, 1.4)), (GaussianBarrier, (1.5, 0.9))]


@pytest.mark.parametrize("cls, args", EVEN_CASES)
def test_even_barrier_takes_its_midpoint_from_symmetry(cls, args):
    energies = np.linspace(0.02, 0.95, 24) * args[0]
    report = rate_report(cls(*args), energies)
    geom = report.geometry
    searched = analyze_barrier(not_even(cls)(*args), energies)
    assert [t.hex() for t in geom.theta.tolist()] == [t.hex() for t in searched.theta.tolist()]
    assert np.all(geom.c == 0.0)
    assert report.airy_argument.tolist() == [
        (np.array([0.75 * t]) ** (2.0 / 3.0)).item() for t in geom.theta.tolist()
    ]
    # the search finds the same midpoint within its stop test
    assert np.all(np.abs(searched.c) <= 1e-13 * (searched.b - searched.a))


class TiltedClaimingEven(GaussianBarrier):
    """A tilted gaussian that keeps the even family's mirrored crossings:
    V < E inside [a, b] near a."""

    gap = Potential.gap  # V - E from the _v below, not the family's kernel

    def _v(self, x):
        return super()._v(x) * (1.0 + 0.3 * np.tanh(x / self.w))


class BumpedClaimingEven(GaussianBarrier):
    """A gaussian with a bump right of 0, V >= E on [a, b]: its half
    actions do not balance at c = 0."""

    gap = Potential.gap

    def _v(self, x):
        z = (x - 0.3 * self.w) / (0.2 * self.w)
        return super()._v(x) * (1.0 + 0.3 * np.exp(-z * z))


@pytest.mark.parametrize("cls, message", [
    (TiltedClaimingEven, "inconsistent turning points"),
    (BumpedClaimingEven, "failed to balance actions"),
])
def test_broken_even_promise_is_a_domain_error(cls, message):
    pot = cls(1.0, 1.0)
    for energy in (0.05, 0.5, 0.9, [0.2, 0.5, 0.8]):
        with pytest.raises(DomainError, match=message):
            rate_report(pot, energy)


def test_theta_strictly_decreasing_in_energy():
    for pot in (ParabolicBarrier(1.0), Sech2Barrier(1.0, 1.0), GaussianBarrier(1.0, 1.0)):
        thetas = [
            analyze_barrier(pot, float(e)).theta
            for e in np.linspace(0.02, 0.98, 50)
        ]
        assert all(x > y for x, y in zip(thetas[:-1], thetas[1:]))


@pytest.mark.parametrize("v0", [1.0, 2.0, 500.0 / math.pi])
def test_parabolic_turning_points_are_the_closed_form(v0):
    energies = np.linspace(0.02, 0.97, 32) * v0
    geom = analyze_barrier(ParabolicBarrier(v0), energies)
    half = np.sqrt(v0 - energies)
    assert geom.a.tolist() == (-half).tolist() and geom.b.tolist() == half.tolist()


def test_tabulated_polish_takes_few_steps(monkeypatch, tilted_barrier):
    # The polish starts at each bracket's regula-falsi point and stops within
    # the rounding noise of k2, so no bracket bisects down to 1e-14.
    per_bracket = []

    def counting(f, lo, hi, f_lo, f_hi, xtol, x0=None):
        calls = Counter()

        def g(x, j):
            calls.update(j.tolist())
            return f(x, j)

        root = solve_bracketed(g, lo, hi, f_lo, f_hi, xtol, x0)
        per_bracket.extend(calls.values())
        return root

    monkeypatch.setattr(potential, "solve_bracketed", counting)
    analyze_barrier(tilted_barrier, np.linspace(0.02, 0.97, 32), (-4.0, 4.0))
    assert len(per_bracket) == 64
    assert max(per_bracket) <= 3, Counter(per_bracket)


def test_balance_check_allows_for_rounding_next_to_a_table_top(tilted_barrier):
    # E - V rounds at ~eps E, so near the top each half action carries a
    # relative error of ~eps E ((b - a)/theta)**2, which a fixed 1e-10 theta
    # balance tolerance rejected. Here on the midpoint search's path, 1e-8
    # below the peak of the spline, found to ~1e-12 on a fine grid.
    i = int(np.argmax(tilted_barrier.v_samples))
    x = tilted_barrier.x_samples
    peak = float(np.max(tilted_barrier.v(np.linspace(x[i - 1], x[i + 1], 20001))))
    report = rate_report(tilted_barrier, peak * (1.0 - 1e-8), (-4.0, 4.0))
    g = report.geometry
    assert g.a < g.c < g.b and 0.9 < report.t_uniform <= 1.0
