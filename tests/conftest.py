"""Shared builders for the test suite."""

import math
from dataclasses import fields, is_dataclass

import mpmath
import numpy as np
import pytest

from airytunnel import DomainError, Potential, TabulatedPotential
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


def square_barrier_closed_form(v0, length, energy):
    """Textbook transmission through a rectangular barrier, 0 < E < V0.

    T = 1 / (1 + V0**2 sinh(kappa L)**2 / (4 E (V0 - E))), kappa = sqrt(V0 - E).
    """
    v0 = float(v0)
    length = float(length)
    energy = float(energy)
    if v0 <= 0.0 or length < 0.0:
        raise ValueError("need v0 > 0 and length >= 0")
    if not 0.0 < energy < v0:
        raise DomainError("closed form requires 0 < E < V0, got E=%g, V0=%g" % (energy, v0))
    kappa = math.sqrt(v0 - energy)
    s = math.sinh(kappa * length)
    return 1.0 / (1.0 + v0 ** 2 * s * s / (4.0 * energy * (v0 - energy)))


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


def _mp_spline(pot, energy):
    """(k2, piece) of a tabulated barrier in mpmath arithmetic: k2(i) is
    E - V on spline piece i as a function of x, and piece(x) the index of
    x's piece."""
    knots = pot.x_samples
    e = mpmath.mpf(energy)

    def k2(i):
        x0, v, b, c, d = (mpmath.mpf(float(arr[i])) for arr in (knots, pot.v_samples, pot._b, pot._c, pot._d))

        def on_piece(x):
            t = x - x0
            return e - (v + t * (b + t * (c + t * d)))

        return on_piece

    def piece(x):
        return int(np.searchsorted(knots[1:-1], float(x), side="right"))

    return k2, piece


def mp_spline_roots(pot, energy, lo, hi):
    """The zeros of k2 of a tabulated barrier in (lo, hi), each refined in
    mpmath from the crossing the potential finds."""
    k2, piece = _mp_spline(pot, energy)
    return [
        mpmath.findroot(k2(piece(r)), mpmath.mpf(r))
        for r in pot.crossings(np.array([energy]), float(lo), float(hi))[1].tolist()
    ]


def mp_spline_action(pot, energy, x0, points):
    """mpmath action integral of |k| from x0 to each point of a tabulated barrier.

    The spline pieces are cubics in mpmath arithmetic, integrated piece by
    piece between knots and the turning points, and summed outward from x0.
    """
    k2, piece = _mp_spline(pot, energy)
    knots = pot.x_samples
    lo, hi = min(min(points), x0), max(max(points), x0)
    cuts = sorted({mpmath.mpf(x) for x in [x0, *points, *mp_spline_roots(pot, energy, lo, hi)]}
                  | {mpmath.mpf(k) for k in knots if lo < k < hi})
    start = cuts.index(mpmath.mpf(x0))
    action = {cuts[start]: mpmath.mpf(0)}
    for step, stop in ((1, len(cuts)), (-1, -1)):
        for j in range(start + step, stop, step):
            p, q = sorted((cuts[j - step], cuts[j]))
            f = k2(piece((p + q) / 2))
            seg = mpmath.quad(lambda x: mpmath.sqrt(abs(f(x))), [p, q])
            action[cuts[j]] = action[cuts[j - step]] + seg
    return [action[mpmath.mpf(x)] for x in points]


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
