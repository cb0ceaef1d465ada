"""Mapped Gauss-Legendre quadrature: each segment of a batch gets the bits of a call of its own."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from airytunnel import GaussianBarrier, Sech2Barrier, find_turning_points
from airytunnel import quadrature
from airytunnel.quadrature import _gauss_legendre, integrate_endpoint_singular


def _action_integrand(pot, energy):
    return lambda x: np.sqrt(np.abs(energy - pot.v(x)))


def integrate_one(f, x1, x2, **kwargs):
    """The integrator on the one segment [x1, x2]: its one-entry array's value."""
    out = integrate_endpoint_singular(f, np.array([x1]), np.array([x2]), **kwargs)
    assert out.shape == (1,)
    return out.item()


def reference_integrate(f, x1, x2, rel_tol=1e-12, n_start=64, n_max=2048):
    """The one-segment loop that the batched integrator replaced, kept as its reference."""
    span = x2 - x1
    if span == 0.0:
        return 0.0
    prev = None
    prev_diff = None
    n = n_start
    while True:
        xg, wg = _gauss_legendre(n)
        t = (math.pi / 4.0) * (xg + 1.0)
        x = x1 + span * np.sin(t) ** 2
        vals = f(x) * np.sin(2.0 * t)
        est = (math.pi / 4.0) * span * float(np.dot(wg, vals))
        if prev is not None:
            diff = abs(est - prev)
            if diff <= rel_tol * abs(est) + 1e-300:
                return est
            if prev_diff is not None and diff >= 0.25 * prev_diff:
                return est
            prev_diff = diff
        if n >= n_max:
            return est
        prev = est
        n *= 2


@pytest.mark.parametrize("n_start", [16, 64])
@pytest.mark.parametrize(
    "pot, energy",
    [(Sech2Barrier(1.0, 2.0), 0.5), (GaussianBarrier(3.0, 0.7), 0.2)],
)
def test_segment_array_matches_scalar_calls_bit_for_bit(pot, energy, n_start):
    a, b = find_turning_points(pot, energy)
    # turning-point ends, wide and narrow segments, reversed and zero-width ones
    x1 = np.array([a, a, 0.5 * (a + b), a - 3.0, b, 0.3, a + 1e-3, b])
    x2 = np.array([b, 0.5 * (a + b), b, a, a, 0.3, a + 2e-3, b + 4.0])
    f = _action_integrand(pot, energy)
    batched = integrate_endpoint_singular(f, x1, x2, n_start=n_start)
    assert isinstance(batched, np.ndarray) and batched.shape == x1.shape
    for p, q, got in zip(x1.tolist(), x2.tolist(), batched.tolist()):
        single = integrate_one(f, p, q, n_start=n_start)
        # bit for bit, not approximately: same arithmetic as the old loop
        assert got == single == reference_integrate(f, p, q, n_start=n_start)
    assert batched[5] == 0.0
    assert batched[4] < 0.0  # reversed segment


def test_zero_width_segments_are_not_sampled():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.ones_like(x)

    assert integrate_endpoint_singular(f, np.array([1.5]), np.array([1.5])).tolist() == [0.0]
    assert calls == []
    out = integrate_endpoint_singular(f, np.array([0.0, 2.0]), np.array([1.0, 2.0]))
    assert out.tolist() == [pytest.approx(1.0, rel=1e-14), 0.0]
    assert all(size % 64 == 0 and size // 64 in (1, 2) for size in calls)


def test_segments_stop_independently():
    # x**2 stops one doubling before exp(8x) and is not sampled at the last
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.where(x < 2.0, x * x, np.exp(8.0 * (x - 2.0)))

    out = integrate_endpoint_singular(f, np.array([0.0, 2.0]), np.array([1.0, 3.0]), n_start=4)
    assert out[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert out[1] == pytest.approx((math.exp(8.0) - 1.0) / 8.0, rel=1e-13)
    assert sizes == [2 * 4, 2 * 8, 16 + 16, 32 + 32, 64]
    assert out.tolist() == [
        integrate_one(f, 0.0, 1.0, n_start=4),
        integrate_one(f, 2.0, 3.0, n_start=4),
    ]


def _mixed_exits(x):
    # [0, 1] converges, [1, 3] has a kink and hits the noise-floor rule,
    # [4, 5] is still converging at n_max, and [6, 7] is all NaN
    return np.select(
        [x < 1.0, x < 3.0, x < 5.0],
        [np.ones_like(x), np.sqrt(np.abs(x - 1.7)), np.exp(24.0 * (x - 4.0))],
        np.nan,
    )


def test_mixed_exits_match_single_calls_bit_for_bit(monkeypatch):
    monkeypatch.setattr(quadrature, "N_MAX", 32)  # read at call time
    x1, x2 = np.array([0.0, 1.0, 4.0, 6.0]), np.array([1.0, 3.0, 5.0, 7.0])
    rows, sampled = [], []

    def f(x):
        sampled.append(list(rows))
        return _mixed_exits(x)

    out = integrate_endpoint_singular(f, x1, x2, n_start=4, rows=rows)
    for p, q, got in zip(x1.tolist(), x2.tolist(), out.tolist()):
        single = integrate_one(_mixed_exits, p, q, n_start=4)
        ref = reference_integrate(_mixed_exits, p, q, n_start=4, n_max=32)
        assert got.hex() == single.hex() == ref.hex()  # bit for bit, NaN included
    # the NaN segment meets neither stop test and is sampled at every doubling
    assert sampled == [[0, 1, 2, 3]] * 3 + [[2, 3]]
    assert math.isnan(out[3])

    def estimate(p, q, n):
        return reference_integrate(_mixed_exits, p, q, n_start=n, n_max=n)

    converged = abs(estimate(0.0, 1.0, 16) - estimate(0.0, 1.0, 8))
    assert converged <= 1e-12 * out[0]
    floor = abs(estimate(1.0, 3.0, 16) - estimate(1.0, 3.0, 8))
    assert floor > 1e-12 * out[1]  # stopped at 16 without converging
    monkeypatch.setattr(quadrature, "N_MAX", 64)
    assert integrate_one(_mixed_exits, 4.0, 5.0, n_start=4) != out[2]


def test_segment_ends_must_match():
    f = np.sqrt
    with pytest.raises(ValueError):
        integrate_endpoint_singular(f, np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        integrate_endpoint_singular(f, np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):  # no scalar ends
        integrate_endpoint_singular(f, 0.0, 1.0)


# Fixed-point scale of the high-precision reference rule: 200 bits, ~60 digits.
_FIX = 200


def _fixed_point_rule(n, start):
    """Weights at the n-point Gauss-Legendre roots next to ``start``, to ~40 digits.

    Newton's method on the Legendre recurrence in exact integer arithmetic
    scaled by 2**200, on a numpy object array of Python ints: two passes
    take float roots to ~1e-48, and a third evaluates the weights
    2 / ((1 - x^2) P_n'(x)^2) there. The weights agree with a 40-digit
    mpmath evaluation of the same formula.
    """
    one = 1 << _FIX
    x = np.array([int(v * 2.0 ** 60) << (_FIX - 60) for v in start.tolist()], dtype=object)
    for _ in range(3):
        p0, p1 = np.full(x.shape, one, dtype=object), x.copy()
        for j in range(1, n):
            p0, p1 = p1, (((2 * j + 1) * x * p1 >> _FIX) - j * p0) // (j + 1)
        one_minus_x2 = one - (x * x >> _FIX)
        dp = (n * (p0 - (x * p1 >> _FIX)) << _FIX) // one_minus_x2
        x = x - (p1 << _FIX) // dp
    w = (2 << (4 * _FIX)) // (one_minus_x2 * dp * dp)
    return [Fraction(int(v), one) for v in w.tolist()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 64, 255, 256, 1024])
def test_gauss_legendre_nodes_match_leggauss(n):
    x, w = _gauss_legendre(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.abs(x - xl).max() <= 2.3e-16
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert math.fsum(w.tolist()) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_gauss_legendre_weights_no_farther_from_exact_rule_than_leggauss(n):
    x, w = _gauss_legendre(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    half = slice(n // 2, None)
    exact = _fixed_point_rule(n, x[half])

    def errors(weights):
        return np.array([float(abs(Fraction(a) - b) / b) for a, b in zip(weights[half].tolist(), exact)])

    ours, theirs = errors(w), errors(wl)
    assert ours[-1] <= theirs[-1]  # the end node, where leggauss is least accurate
    # Node by node both are at rounding level in the interior, where either
    # can be the closer one; ranked from best to worst node, ours is no worse.
    assert np.all(np.sort(ours) <= np.sort(theirs))
    assert ours.max() <= 1e-12


def test_gauss_legendre_needs_no_dense_matrix():
    tracemalloc.start()
    try:
        _gauss_legendre(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unconverged_gauss_legendre_rule_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PASSES", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _gauss_legendre(64)
