"""Shared builders and fixtures for the test suite; the exact values are in truth.py."""

from dataclasses import fields, is_dataclass

import mpmath
import numpy as np
import pytest

from airytunnel import Potential, TabulatedPotential
from airytunnel.oracle import _transfer_once


class SquareBarrier(Potential):
    """Rectangular barrier V = V0 on |x| <= L/2, else 0.

    Calibrates the transfer-matrix oracle against the textbook closed form.
    Its edges are jumps, so it has no turning-point slopes and no Airy
    method applies to it.
    """

    def __init__(self, v0, length):
        self.v0 = float(v0)
        self.length = float(length)

    def _v(self, x):
        return np.where(np.abs(x) <= 0.5 * self.length, self.v0, 0.0)

    def _v_prime(self, x):
        raise NotImplementedError("square barrier has no derivative at its edges")

    def crossings(self, energies, lo, hi):
        raise NotImplementedError("square barrier has no simple zeros of k2 at its edges")

    def suggested_window(self):
        return (-2.5 * self.length, 2.5 * self.length)

    def __repr__(self):
        return "SquareBarrier(v0=%g, length=%g)" % (self.v0, self.length)


def not_even(cls):
    """A subclass of cls with even = False, so that the oracle and the
    midpoint search take their general paths on its barriers."""
    return type("NotEven" + cls.__name__, (cls,), {"even": False})


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


def entry_matches(record, i, one):
    """Whether entry i of a record of arrays (a RateReport, BarrierGeometry
    or OracleResult from an array of energies) has, field by field, the
    type and the bits of the record of scalars one."""
    assert type(record) is type(one)
    for field in fields(one):
        got, want = getattr(record, field.name), getattr(one, field.name)
        if is_dataclass(want):
            if not entry_matches(got, i, want):
                return False
        elif want is None:
            if got is not None:
                return False
        else:
            assert isinstance(got, np.ndarray) and got.ndim == 1
            value = got[i].item()
            if type(value) is not type(want):
                return False
            if value != want if isinstance(want, int) else value.hex() != want.hex():
                return False
    return True


@pytest.fixture
def tilted_barrier():
    return TabulatedPotential(*tilted_gaussian_samples())


@pytest.fixture
def double_hump_barrier():
    return TabulatedPotential(*double_hump_samples())


@pytest.fixture(autouse=True)
def mpmath_precision_is_restored():
    """Fail a test that leaves mpmath's global precision changed.

    A test that sets mpmath.mp.dps for its own reference values would
    otherwise slow every later mpmath call in the run; mpmath.workdps(n)
    scopes the precision to one block.
    """
    dps = mpmath.mp.dps
    yield
    if mpmath.mp.dps != dps:
        left = mpmath.mp.dps
        mpmath.mp.dps = dps
        pytest.fail("the test left mpmath.mp.dps at %d, not %d" % (left, dps))
