"""Shared builders for the test suite."""

import numpy as np
import pytest

from airytunnel import TabulatedPotential
from airytunnel.oracle import _transfer_once


def tilted_gaussian_samples(n=1201, span=6.0):
    """Asymmetric single-hump barrier: exp(-x^2) * (1 + 0.3 tanh x)."""
    x = np.linspace(-span, span, n)
    v = np.exp(-(x ** 2)) * (1.0 + 0.3 * np.tanh(x))
    return x, v


def double_hump_samples(n=1601, span=6.0):
    """Two separated gaussian humps; unsupported by the single-hump method."""
    x = np.linspace(-span, span, n)
    v = np.exp(-((x - 2.0) ** 2)) + np.exp(-((x + 2.0) ** 2))
    return x, v


def linear_potential(span=8.0, n=321):
    """Tabulated V(x) = x; the natural spline reproduces a line exactly."""
    x = np.linspace(-span, span, n)
    return TabulatedPotential(x, x.copy())


def midpoint_samples(pot, x_left, x_right, n):
    """V at the midpoints of n uniform slices, as the oracle samples it."""
    d = (x_right - x_left) / n
    return np.asarray(pot.v(x_left + (np.arange(n) + 0.5) * d), dtype=float)


def transfer_once(pot, energy, x_left, x_right, n):
    """(T, R) of one transfer-matrix pass at n slices and one energy."""
    t, r = _transfer_once(
        midpoint_samples(pot, x_left, x_right, n), np.array([energy]), x_left, x_right, n
    )
    return float(t[0]), float(r[0])


@pytest.fixture
def tilted_barrier():
    return TabulatedPotential(*tilted_gaussian_samples())


@pytest.fixture
def double_hump_barrier():
    return TabulatedPotential(*double_hump_samples())
