"""Mapped Gauss-Legendre quadrature: scalar and batched segments agree."""

import math

import numpy as np
import pytest

from airytunnel import GaussianBarrier, Sech2Barrier, find_turning_points
from airytunnel.quadrature import integrate_endpoint_singular


def _action_integrand(pot, energy):
    return lambda x: np.sqrt(np.abs(energy - pot.v(x)))


def reference_integrate(f, x1, x2, rel_tol=1e-12, n_start=64, n_max=2048):
    """The one-segment loop that the batched integrator replaced, kept as its reference."""
    span = x2 - x1
    if span == 0.0:
        return 0.0
    prev = None
    prev_diff = None
    n = n_start
    while True:
        xg, wg = np.polynomial.legendre.leggauss(n)
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
        single = integrate_endpoint_singular(f, p, q, n_start=n_start)
        assert type(single) is float
        # bit for bit, not approximately: same arithmetic as the old loop
        assert got == single == reference_integrate(f, p, q, n_start=n_start)
    assert batched[5] == 0.0
    assert batched[4] < 0.0  # reversed segment


def test_zero_width_segments_are_not_sampled():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.ones_like(x)

    assert integrate_endpoint_singular(f, 1.5, 1.5) == 0.0
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
        integrate_endpoint_singular(f, 0.0, 1.0, n_start=4),
        integrate_endpoint_singular(f, 2.0, 3.0, n_start=4),
    ]


def test_segment_ends_must_match():
    f = np.sqrt
    with pytest.raises(ValueError):
        integrate_endpoint_singular(f, np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        integrate_endpoint_singular(f, np.zeros((2, 2)), np.ones((2, 2)))
