"""Uniform wavefunction basis: anchor limits, exactness, ODE defect."""

import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truth
from airytunnel import (
    DegenerateTurningPointError,
    ParabolicBarrier,
    Sech2Barrier,
    WavefunctionGrid,
    airy,
    find_turning_points,
    make_potential,
    ode_residual,
    psi_basis,
    sample_grid,
    superpose,
)
from airytunnel import wavefunction
from airytunnel.specfun import AI_ZERO, BI_ZERO
from conftest import linear_potential

A_PARABOLIC = -float(truth.turning_point("parabolic", 0.5, 1.0))


def test_anchor_limit_value_parabolic():
    # at the anchor the prefactor limit is |alpha|^(-1/6); for the
    # parabolic barrier at E = 0.5, |alpha| = sqrt(2)
    pot = ParabolicBarrier(1.0)
    ai_part, bi_part = psi_basis(pot, 0.5, A_PARABOLIC, A_PARABOLIC)
    amp = math.sqrt(2.0) ** (-1.0 / 6.0)
    assert ai_part == pytest.approx(0.33510186034608274, rel=1e-9, abs=0)
    assert ai_part == pytest.approx(amp * AI_ZERO, rel=1e-12, abs=0)
    assert bi_part == pytest.approx(amp * BI_ZERO, rel=1e-12, abs=0)


def test_degenerate_anchor_is_rejected_wherever_the_points_lie():
    # At the top of Sech2Barrier(1, 1) the slope of k2 is 0, so no uniform
    # basis is anchored there, whether or not a point falls on the anchor.
    pot = Sech2Barrier(1.0, 1.0)
    for x in (0.0, 1e-9, 0.3, -2.0):
        with pytest.raises(DegenerateTurningPointError):
            psi_basis(pot, 1.0, 0.0, x)
    with pytest.raises(DegenerateTurningPointError):
        sample_grid(pot, 1.0, (-2.0, 2.0), 4, 1.0, 0.0, 0.0)


def test_continuity_at_the_anchor():
    pot = ParabolicBarrier(1.0)
    a = A_PARABOLIC
    limit = psi_basis(pot, 0.5, a, a)
    for x in (a - 1e-6, a + 1e-6):
        vals = psi_basis(pot, 0.5, a, x)
        for v, ref in zip(vals, limit):
            assert abs(v - ref) <= 1e-4 * abs(ref)


def test_forbidden_region_ordering():
    # anchored at a, the Ai branch decays toward b and the Bi branch grows.
    # The decay claim excludes a layer at b where the anchored form
    # diverges through its 1/sqrt|k| prefactor (the breakdown that
    # motivates the midpoint construction); the growth claim has no such
    # caveat since both factors push the Bi branch up.
    pot = Sech2Barrier(1.0, 2.0)
    a, b = find_turning_points(pot, 0.5)
    bulk = np.linspace(a, b - 0.25 * (b - a), 40)[1:]
    ai_vals = [abs(psi_basis(pot, 0.5, a, float(x))[0]) for x in bulk]
    assert all(x > y for x, y in zip(ai_vals[:-1], ai_vals[1:]))
    everywhere = np.linspace(a, b, 52)[1:-1]
    bi_vals = [abs(psi_basis(pot, 0.5, a, float(x))[1]) for x in everywhere]
    assert all(x < y for x, y in zip(bi_vals[:-1], bi_vals[1:]))


def test_forbidden_region_ordering_linear_global():
    # on a linear k2 there is no far turning point and the ordering is
    # global: Ai(x - E) decays and Bi(x - E) grows for all x > E
    pot = linear_potential()
    energy = 2.0
    xs = np.linspace(energy, energy + 5.0, 60)[1:]
    pairs = [psi_basis(pot, energy, energy, float(x)) for x in xs]
    ai_vals = [abs(p[0]) for p in pairs]
    bi_vals = [abs(p[1]) for p in pairs]
    assert all(x > y for x, y in zip(ai_vals[:-1], ai_vals[1:]))
    assert all(x < y for x, y in zip(bi_vals[:-1], bi_vals[1:]))


def test_allowed_region_is_oscillatory_with_negative_argument():
    # window deep enough into the allowed region that the Airy argument
    # passes its first two zeros
    pot = ParabolicBarrier(1.0)
    a, _ = find_turning_points(pot, 0.5, (-1.5, 1.5))
    grid = sample_grid(pot, 0.5, (-3.6, a - 0.05), 200, 1.0, 0.0, a)
    assert np.all(grid.airy_arg < 0.0)
    assert np.all(grid.ksq > 0.0)
    signs = np.sign(grid.psi.real)
    assert np.count_nonzero(signs[:-1] != signs[1:]) >= 2


def test_superpose_is_plain_linear_combination():
    assert superpose(1.0, 0.0, (0.3, 0.7)) == pytest.approx(0.3)
    assert superpose(0.0, 0.0, (0.3, 0.7)) == 0.0
    assert superpose(2.0, 3.0, (0.1, 0.2)) == pytest.approx(0.8)
    mixed = superpose(1j, 2.0, (0.5, 0.25))
    assert mixed == pytest.approx(0.5 + 0.5j)


def test_sample_grid_shapes_and_signs():
    pot = ParabolicBarrier(1.0)
    a, b = find_turning_points(pot, 0.5, (-1.5, 1.5))
    grid = sample_grid(pot, 0.5, (-3.0, 3.0), 601, 1.0, 0.0, a)
    for field in ("x", "psi", "ksq", "airy_arg", "psi_ai", "psi_bi"):
        assert getattr(grid, field).shape == (601,)
    assert np.all(grid.airy_arg[grid.ksq > 0] < 0)
    assert np.all(grid.airy_arg[grid.ksq < 0] > 0)
    assert np.all(np.isfinite(np.abs(grid.psi)))
    # the action grows away from the anchor, so |arg| peaks at the edges
    args = np.abs(grid.airy_arg)
    assert args.argmax() in (0, args.size - 1)
    assert max(args[0], args[-1]) == args.max()
    # Ai branch: decaying through the barrier, bounded oscillation beyond
    left_peak = np.abs(grid.psi[grid.x < a]).max()
    beyond = np.abs(grid.psi[grid.x > b + 0.3]).max()
    assert beyond < 1.5 * left_peak


def test_sample_grid_two_points_and_validation():
    pot = ParabolicBarrier(1.0)
    grid = sample_grid(pot, 0.5, (-1.0, 1.0), 2, 1.0, 0.0, A_PARABOLIC)
    assert grid.x.tolist() == [-1.0, 1.0]
    with pytest.raises(ValueError):
        sample_grid(pot, 0.5, (-1.0, 1.0), 1, 1.0, 0.0, A_PARABOLIC)


def test_exact_on_linear_wavenumber():
    # V(x) = x gives k2 = E - x; anchored at the turning point x = E the
    # construction reproduces Ai(x - E) up to one global constant
    pot = linear_potential()
    energy = 2.0
    xs = energy + np.linspace(-2.0, 4.0, 100)
    mine = np.array([psi_basis(pot, energy, energy, float(x))[0] for x in xs])
    ref = np.array([airy(float(x - energy)).ai for x in xs])
    const = float(np.dot(mine, ref) / np.dot(ref, ref))
    assert const == pytest.approx(1.0, rel=1e-8, abs=0)
    assert np.max(np.abs(mine - const * ref) / np.abs(ref)) <= 1e-8


def test_ode_residual_linear_potential():
    # the approximation solves the equation exactly for linear k2, so the
    # residual is pure finite-difference truncation
    pot = linear_potential()
    energy = 2.0
    grid = sample_grid(pot, energy, (2.5, 4.5), 2001, 1.0, 0.0, energy)
    assert ode_residual(grid) <= 1e-4


def test_ode_residual_flat_allowed_window():
    # allowed-region window far from the anchor: small residual, oscillatory
    pot = linear_potential()
    energy = 2.0
    grid = sample_grid(pot, energy, (-2.0, 0.0), 2001, 1.0, 0.0, energy)
    assert ode_residual(grid) <= 1e-4
    signs = np.sign(grid.psi.real)
    assert np.count_nonzero(signs[:-1] != signs[1:]) >= 1


def test_ode_residual_parabolic_regression_bounds():
    # Desk-scale regression values. The defect of the anchored transform
    # scales like 1/V0**2 for this family, so the 0.05 bound needs a
    # barrier tall enough to be semiclassical (measured: 0.035 forbidden
    # side, 0.025 allowed side at V0 = 6).
    pot = ParabolicBarrier(6.0)
    energy = 3.0
    a, b = find_turning_points(pot, energy)
    inside = sample_grid(pot, energy, (a + 0.2, 0.0), 101, 1.0, 1.0, a)
    assert ode_residual(inside) <= 0.05
    outside = sample_grid(pot, energy, (a - 1.2, a - 0.2), 101, 1.0, 0.0, a)
    assert ode_residual(outside) <= 0.05


def test_ode_residual_grows_toward_far_turning_point():
    # at desk scale (V0 = 1) the anchored form is only locally valid: the
    # defect near the anchor stays O(1) while the span reaching the far
    # turning point is an order of magnitude worse
    pot = ParabolicBarrier(1.0)
    a, b = find_turning_points(pot, 0.5, (-1.5, 1.5))
    near_anchor = sample_grid(pot, 0.5, (a + 0.2, 0.0), 61, 1.0, 1.0, a)
    full_span = sample_grid(pot, 0.5, (a + 0.2, b - 0.2), 61, 1.0, 1.0, a)
    r_near = ode_residual(near_anchor)
    r_full = ode_residual(full_span)
    assert r_near <= 1.5
    assert r_full > 3.0 * r_near


def test_ode_residual_validation():
    pot = ParabolicBarrier(1.0)
    grid = sample_grid(pot, 0.5, (-0.4, 0.4), 9, 1.0, 0.0, A_PARABOLIC)
    short = WavefunctionGrid(*(getattr(grid, f.name)[:4] for f in fields(grid)))
    with pytest.raises(ValueError):
        ode_residual(short)
    skewed_x = grid.x.copy()
    skewed_x[5] += 1e-3
    with pytest.raises(ValueError):
        ode_residual(replace(grid, x=skewed_x))


def test_airy_argument_zero_at_anchor_sample():
    pot = ParabolicBarrier(1.0)
    a, b = find_turning_points(pot, 0.5, (-1.5, 1.5))
    grid = sample_grid(pot, 0.5, (a, b), 3, 1.0, 0.0, a)
    assert grid.airy_arg[0] == 0.0
    assert grid.psi[0].real == pytest.approx(0.33510186034608274, rel=1e-9, abs=0)


def test_far_turning_point_is_infinite_not_nan():
    # E = 0.75 puts the turning points of 1 - x**2 at exactly +-0.5, so the
    # last sample has k2 == 0.0 with finite action: both basis values are
    # +inf, and the zero Bi coefficient must not turn psi into 0 * inf
    grid = sample_grid(ParabolicBarrier(1.0), 0.75, (-0.5, 0.5), 5, 1.0, 0.0, -0.5)
    assert grid.ksq[-1] == 0.0
    assert grid.psi_ai[-1] == math.inf and grid.psi_bi[-1] == math.inf
    assert grid.psi[-1] == complex(math.inf, 0.0)
    assert grid.psi.dtype == np.complex128
    assert all(getattr(grid, f).dtype == np.float64 for f in ("x", "ksq", "airy_arg", "psi_ai", "psi_bi"))
    assert superpose(1.0, 0.0, (grid.psi_ai[-1], grid.psi_bi[-1])) == math.inf
    assert superpose(0.0, 2.0, (math.inf, 0.5)) == 1.0
    assert type(psi_basis(ParabolicBarrier(1.0), 0.75, -0.5, 0.5)[0]) is float


@pytest.mark.parametrize("anchor, far", [(-0.5, 6), (0.5, 2)])
def test_far_turning_point_keeps_its_action_in_the_airy_argument(anchor, far):
    # k2 is exactly 0.0 at the far turning point, where the action across
    # the barrier is theta: |airy_arg| is (3 theta/2)**(2/3), on the forbidden side
    grid = sample_grid(ParabolicBarrier(1.0), 0.75, (-1.0, 1.0), 9, 1.0, 0.0, anchor)
    assert grid.x[far] == -anchor and grid.ksq[far] == 0.0
    assert grid.airy_arg[far] == pytest.approx((1.5 * truth.theta("parabolic", 0.75, 1.0)) ** (2 / 3), rel=1e-12, abs=0)


@pytest.mark.parametrize("energy, anchor, x", [
    (0.5, A_PARABOLIC, [0.3, -0.2, 0.3, A_PARABOLIC, -0.2, 0.3]),  # repeats, one on the anchor
    (0.5, A_PARABOLIC, [0.0, -0.0, 0.4, -0.0]),
    (0.75, -0.5, np.linspace(-1.0, 1.0, 9)),  # the anchor and both crossings on grid points
])
def test_cuts_are_np_unique_of_the_points_the_anchor_and_the_crossings(monkeypatch, energy, anchor, x):
    # The quadrature's segments run between neighbouring cuts, which are
    # np.unique's, bit for bit, signed zeros included.
    pot = ParabolicBarrier(1.0)
    segments = []
    integrate = wavefunction.integrate_endpoint_singular
    monkeypatch.setattr(wavefunction, "integrate_endpoint_singular",
                        lambda f, lo, hi, **kw: segments.append((lo, hi)) or integrate(f, lo, hi, **kw))
    psi_basis(pot, energy, anchor, x)
    xs = np.asarray(x, dtype=float)
    _, crossings = pot.crossings(np.array([energy]), min(xs.min(), anchor), max(xs.max(), anchor))
    expected = np.unique(np.concatenate((xs, [anchor], crossings)))
    [(lo, hi)] = segments
    assert np.append(lo, hi[-1]).tobytes() == expected.tobytes()
    assert lo[1:].tobytes() == hi[:-1].tobytes()


def test_chunked_integrand_changes_no_bit(monkeypatch, tilted_barrier):
    # |k| is elementwise, so the chunk size of its evaluation cannot show
    grids = []
    for chunk in (100, wavefunction.NODE_CHUNK, 10**9):
        monkeypatch.setattr(wavefunction, "NODE_CHUNK", chunk)
        grids.append([sample_grid(pot, 0.5, (-3.0, 3.0), 401, 1.0, 0.0, find_turning_points(pot, 0.5)[0])
                      for pot in (Sech2Barrier(1.0, 1.0), tilted_barrier)])
    for grid in grids[1:]:
        for one, ref in zip(grid, grids[0]):
            assert one.psi_ai.tobytes() == ref.psi_ai.tobytes() and one.psi_bi.tobytes() == ref.psi_bi.tobytes()


def test_array_psi_basis_takes_crossings_once_and_matches_scalar_calls(monkeypatch, tilted_barrier):
    # one crossings call covers every point of an array call; each point
    # then agrees with its own scalar call, whose crossings and cuts differ
    energy = 0.5
    xs = np.linspace(-2.0, 2.0, 41)
    for pot, side in ((Sech2Barrier(1.0, 1.0), 0), (tilted_barrier, 1)):
        anchor = find_turning_points(pot, energy)[side]
        calls = []
        crossings = type(pot).crossings
        monkeypatch.setattr(type(pot), "crossings",
                            lambda self, *args: calls.append(args) or crossings(self, *args))
        ai_part, bi_part = psi_basis(pot, energy, anchor, xs)
        monkeypatch.undo()
        assert len(calls) == 1
        assert ai_part.shape == bi_part.shape == xs.shape
        singles = np.array([psi_basis(pot, energy, anchor, x) for x in xs.tolist()])
        assert ai_part == pytest.approx(singles[:, 0], rel=1e-9, abs=1e-12)
        assert bi_part == pytest.approx(singles[:, 1], rel=1e-9, abs=1e-12)


def test_deep_window_matches_mpmath():
    # (2/3)|u|**1.5 = action from the left turning point out to x = -9,
    # which puts u near -15.2, past the Airy kernel's grid. On the parabola
    # k2 = x**2 - r**2 (r**2 = 1/2), so the basis is a 30-digit mpmath
    # integral and two Airy calls; measured 1.2e-14 of the envelope.
    pot = ParabolicBarrier(1.0)
    a, _ = find_turning_points(pot, 0.5)
    grid = sample_grid(pot, 0.5, (-9.0, a), 50, 1.0, 0.0, a)
    assert grid.airy_arg.min() == pytest.approx(-15.2, abs=0.05)
    with mpmath.workdps(30):
        r = mpmath.sqrt(mpmath.mpf(0.5))
        for x, ai_part, bi_part in zip(grid.x[:-1].tolist(), grid.psi_ai.tolist(), grid.psi_bi.tolist()):
            s = 1.5 * mpmath.quad(lambda t: mpmath.sqrt(t * t - r * r), [x, -r])
            u = -s ** (mpmath.mpf(2) / 3)
            amp = s ** (mpmath.mpf(1) / 6) / mpmath.sqrt(mpmath.sqrt(x * x - r * r))
            envelope = amp * mpmath.hypot(mpmath.airyai(u), mpmath.airybi(u))
            assert abs(ai_part - amp * mpmath.airyai(u)) <= 1e-13 * envelope, x
            assert abs(bi_part - amp * mpmath.airybi(u)) <= 1e-13 * envelope, x
    ai_part, bi_part = psi_basis(pot, 0.5, a, -9.0)
    assert (ai_part, bi_part) == (pytest.approx(grid.psi_ai[0], rel=1e-14, abs=0), pytest.approx(grid.psi_bi[0], rel=1e-14, abs=0))


def test_action_on_tabulated_barrier_matches_mpmath(tilted_barrier):
    # the grid action read back from airy_arg, (2/3)|u|**1.5, against a
    # 30-digit integral of the same spline
    energy = 0.5
    a, b = find_turning_points(tilted_barrier, energy)
    grid = sample_grid(tilted_barrier, energy, (-1.6, 1.6), 161, 1.0, 0.0, a)
    xs, args = grid.x[::8], grid.airy_arg[::8]
    probe = np.abs(args) > 0.01
    with mpmath.workdps(30):
        want = truth.mp_spline_action(tilted_barrier, energy, a, xs[probe].tolist())
    for x, u, ref in zip(xs[probe], args[probe], want):
        got = (2.0 / 3.0) * abs(u) ** 1.5
        assert abs(got - float(ref)) <= 1e-12 * float(ref), x


@settings(max_examples=40, deadline=None)
@given(
    case=truth.barriers(v0=(0.5, 3.0), w=(0.5, 2.0), fraction=(0.1, 0.9)),
    side=st.sampled_from([0, 1]),
    pad=st.floats(0.05, 0.5),
    n_points=st.integers(5, 90),
)
def test_basis_properties(case, side, pad, n_points):
    family, params, energy = case
    pot = make_potential(family, **params)
    turning = find_turning_points(pot, energy)
    anchor = turning[side]
    width = turning[1] - turning[0]
    window = (turning[0] - pad * width, turning[1] + pad * width)
    grid = sample_grid(pot, energy, window, n_points, 1.0, 0.0, anchor)

    # |airy_arg| = S**(2/3) never decreases away from the anchor, exact
    # zeros of k2 included.
    size = np.abs(grid.airy_arg)
    left, right = size[grid.x <= anchor], size[grid.x >= anchor]
    assert np.all(left[:-1] >= left[1:])
    assert np.all(right[:-1] <= right[1:])

    arg, ksq = grid.airy_arg, grid.ksq
    both = (arg != 0.0) & (ksq != 0.0)
    assert np.all(np.sign(arg[both]) == -np.sign(ksq[both]))
    # the far turning point, reached through the barrier
    assert np.all(arg[(arg != 0.0) & (ksq == 0.0)] > 0.0)

    # the basis at an array of points agrees with the grid at the same x
    every = slice(None, None, max(1, n_points // 6))
    ai_part, bi_part = psi_basis(pot, energy, anchor, grid.x[every])
    assert ai_part == pytest.approx(grid.psi_ai[every], rel=1e-9, abs=1e-12)
    assert bi_part == pytest.approx(grid.psi_bi[every], rel=1e-9, abs=1e-12)
