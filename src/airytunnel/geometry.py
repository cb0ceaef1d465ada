"""Barrier geometry: turning points, actions, midpoint, slopes.

For a single-hump barrier at energy E the forbidden interval [a, b] is
bounded by the simple zeros of k2(x) = E - V(x). The quantities computed
here are:

* theta  = integral of kappa over [a, b], kappa = sqrt(V - E)
* c      = the interior point splitting that action into equal halves, the
  construction's matching point; the rates do not read it (action(a, c) =
  theta/2 by definition), and it is a printed column whose balance is checked
* alpha_plus / alpha_minus = d(k2)/dx at a and b, i.e. the limits of
  k2(x)/(x - a) and k2(x)/(x - b); for a barrier alpha_plus < 0 and
  alpha_minus > 0.

alpha is taken from the analytic (or spline) derivative of V rather than
the raw difference quotient, which loses half the significant digits near
the root.

analyze_barrier takes one energy or an array of them, and the geometry
of all of them is one batched pass; the one-energy stage functions are
that pass at a single energy. The turning points of all energies are
one Potential.crossings call. An even barrier (Potential.even) has
mirrored turning points -b, b and its midpoint at 0 by symmetry, so
theta and the right half action over [0, b] are its one quadrature call,
and the balance of the halves is checked, not assumed. For any other
barrier, theta and the action up to (a + b)/2, the midpoint search's
first iterate, are one quadrature call. Each later step of the search is
one more, over the segments from each barrier's last iterate to its
next, which hold no turning point; the right half actions are one more.
The midpoint is the search's last evaluated iterate, whose left half
action is already summed, so an energy's geometry takes two action
quadrature calls when its midpoint search takes one step.

The pass keeps its results in arrays and its checks are masks. It ends
at its first failing energy (errors.first_failure): after each check every
array is cut to the energies before it, so an entry's position is its
energy index, and Python builds one exception, that energy's. Each energy
takes the same arithmetic steps as it would alone. errors.batched runs a
sweep longer than BLOCK energies in blocks of BLOCK, bounding its memory.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateTurningPointError,
    DomainError,
    MultiHumpUnsupported,
    NoBarrierError,
    _entry,
    batched,
    first_failure,
    judge,
    outcome,
)
from .potential import Potential
from .quadrature import integrate_endpoint_singular, solve_bracketed

#: Energies in one batched geometry pass. A longer sweep runs in blocks of
#: this many, which caps the memory its arrays take (several KB per
#: energy); each energy's result is the same in any block.
BLOCK = 1024

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BarrierGeometry:
    """Everything the rate formulas need about one barrier at one energy;
    from the batched pass, arrays of it with one entry per energy."""

    a: float
    b: float
    c: float
    theta: float
    alpha_plus: float
    alpha_minus: float
    energy: float


_EMPTY = BarrierGeometry(*[np.empty(0)] * len(fields(BarrierGeometry)))


def _turning_points(pot, energies, window):
    """(a, b, exc): the forbidden interval [a, b] in the window of each
    energy before the first that has not exactly one, and that energy's
    exception, or None. An error that no energy alone causes (a bad window,
    V failing there) is raised.
    """
    e, k = energies, energies.size
    lo, hi = pot.window(window)
    which, x = pot.crossings(e, lo, hi)
    counts = np.bincount(which, minlength=k)
    # One crossing, or none with V >= E at lo, so on the whole window: a window
    # inside the forbidden region. A parabola's V(lo) may overflow to -inf.
    unclosed = counts == 1
    if not counts.all():
        with np.errstate(over="ignore"):
            unclosed |= (counts == 0) & ~(pot.v(lo) < e)
    k, exc = first_failure(
        k, None,
        (unclosed, lambda p: NoBarrierError(
            "forbidden region is not closed inside the window (%g, %g)" % (lo, hi)
        )),
        (counts == 0, lambda p: NoBarrierError(
            "no barrier at E=%g: k2 does not change sign in (%g, %g)" % (e[p], lo, hi)
        )),
        (counts > 2, lambda p: MultiHumpUnsupported(
            "%d sign changes of k2 in (%g, %g); single-hump barriers only" % (counts[p], lo, hi)
        )),
    )
    a, b, e = x[0:2 * k:2], x[1:2 * k:2], e[:k]  # two crossings per energy before k
    k, exc = first_failure(k, exc, (e - pot.v(0.5 * (a + b)) >= 0.0, lambda p: NoBarrierError(
        "window (%g, %g) does not bracket a forbidden interval at E=%g" % (lo, hi, e[p])
    )))
    return a[:k], b[:k], exc


def find_turning_points(pot, energy, window=None):
    """Locate the forbidden interval (a, b) with k2(a) = k2(b) = 0.

    Raises NoBarrierError when no closed forbidden interval lies inside
    the window and MultiHumpUnsupported when the window contains more than one.
    """
    a, b, exc = _turning_points(pot, np.array(judge(energy)), window)
    if exc is not None:
        raise exc
    return float(a[0]), float(b[0])


def _actions(pot, energies, x1, x2):
    """Action integrals over the segments [x1, x2], each at its own energy.

    Returns (values, check): check, for first_failure, rejects a segment
    with V < E inside, i.e. one not contained in the forbidden region. One
    quadrature call covers every segment.
    """
    neg_tol = 1e-10 * np.maximum(1.0, np.abs(energies))
    rows, outside = [], np.zeros(x1.size, dtype=bool)

    def integrand(x):
        g = pot.gap(energies[rows, None], x.reshape(len(rows), -1))
        outside[np.array(rows)[(g < -neg_tol[rows, None]).any(axis=1)]] = True
        return np.sqrt(np.maximum(g, 0.0, out=g), out=g).ravel()

    values = integrate_endpoint_singular(integrand, x1, x2, rows=rows)
    return values, (outside, lambda p: DomainError(
        "V < E inside [%g, %g]: inconsistent turning points" % (x1[p], x2[p])
    ))


def action_integral(pot, energy, x1, x2):
    """Integral of sqrt(V - E) over [x1, x2] inside the barrier.

    The integrand has square-root zeros at the turning points; the mapped
    Gauss-Legendre rule handles those. V < E strictly inside the range
    means the supplied interval is not contained in the forbidden region
    and raises DomainError, as do an energy that is not positive and
    finite and an end that is not finite.
    """
    energy, x1, x2 = judge(energy, x1=x1, x2=x2)
    if x1 > x2:
        raise ValueError("x1 must be <= x2, got %g > %g" % (x1, x2))
    values, check = _actions(pot, np.array([energy]), np.array([x1]), np.array([x2]))
    _, exc = first_failure(1, None, check)
    if exc is not None:
        raise exc
    return float(values[0])


def _midpoints(pot, energies, a, b):
    """(theta, c, exc) for the barriers [a, b], each at its own energy,
    before the first without a midpoint, and that barrier's exception, or
    None.

    theta is the action over [a, b] and c splits it into equal halves,
    left = action(a, c) and right = action(c, b) with |left - right| <=
    (1e-10 + eps E ((b - a)/theta)**2) theta where the potential keeps the
    base Potential.gap (tables), and <= 1e-10 theta where its own gap is
    exact next to the top (the families). The second term is the rounding
    noise of the subtraction V - E, which matters only next to the barrier
    top. A barrier fails at its first failing step: theta,
    then each iterate of the search in turn, then the right half and the
    balance.

    An even barrier (Potential.even) whose crossings are mirrors, a = -b,
    has c = (a + b)/2 = 0 and left = theta/2 by symmetry: one quadrature
    call integrates [a, b] and the right half [c, b], and there is no
    search. Every other barrier searches for c, as follows.

    g(c) = action(a, c) - theta/2 rises from -theta/2 at a to theta/2 at b,
    the values the solver is given there, with the closed-form slope
    sqrt(V(c) - E), which Newton steps use: one call gives g and its slope
    at every iterate. All barriers step together. The search's first
    interior iterate is always (a + b)/2, so one quadrature call integrates
    [a, b] and [a, (a + b)/2] of every barrier, and g needs no quadrature
    at (a + b)/2. Each later step is one batched quadrature of the signed
    segments [c_prev, x] from each barrier's last interior iterate c_prev,
    added to the left action known there: an interior segment has no
    square-root end and converges in fewer nodes than [a, x]. c is the
    last iterate the search evaluated, kept with its left action: the
    solver stopped because the step from that iterate is below
    1e-13 (b - a) + 4 eps |c|, so c is within that tolerance of the root.
    The right halves action(c, b) take one more quadrature call from the
    turning point b, not a sum of the steps.

    Either way the balance check compares left with a right half
    integrated on its own, so it verifies c, and for an even barrier the
    symmetry that gave it.
    """
    m = a.size
    mid = 0.5 * (a + b)
    even = pot.even and np.array_equal(a, -b)
    x1, x2 = (mid, b) if even else (a, mid)
    s, (outside, build_error) = _actions(
        pot, np.concatenate((energies, energies)), np.concatenate((a, x1)), np.concatenate((b, x2))
    )
    theta = s[:m]
    # theta's segments come first, and the second segments count after theta's checks
    k, exc = first_failure(
        m, None,
        (outside[:m], build_error),
        (theta <= 0.0, lambda p: DegenerateTurningPointError(
            "vanishing barrier action between %g and %g" % (a[p], b[p])
        )),
        (outside[m:], lambda p: build_error(m + p)),
    )
    energies, a, b, theta = energies[:k], a[:k], b[:k], theta[:k]
    half = 0.5 * theta
    c = mid[:k]
    if even:
        left, right = half, s[m:m + k]
    else:
        # The last interior iterate evaluated and its left action; the first
        # is (a + b)/2, which the theta call integrated.
        left = s[m:m + k]
        search = np.zeros(k, dtype=bool)

        def imbalance(x, j):
            # An iterate adds the signed segment from the last one to that one's left action.
            s = left[j]
            new = x != c[j]
            if new.any():
                i = j[new]
                step, (outside, _) = _actions(pot, energies[i], c[i], x[new])
                s[new] += step
                search[i[outside]] = True
            c[j], left[j] = x, s
            return s - half[j], np.sqrt(np.maximum(pot.gap(energies[j], x), 0.0))

        # action(a, a) = 0 and action(a, b) = theta
        solve_bracketed(imbalance, a, b, -half, theta - half, 1e-13 * (b - a))

        # an iterate's segment lies in [a, b], which the theta call's error names
        k, exc = first_failure(k, exc, (search, build_error))
        right, check = _actions(pot, energies[:k], c[:k], b[:k])
        k, exc = first_failure(k, exc, check)
    # Where V - E is the base gap's subtraction (tables), it rounds at ~eps E
    # while V - E ~ (theta/(b - a))**2, so each half carries a relative error
    # of ~eps E ((b - a)/theta)**2, a noise floor that is invariant under
    # x -> lambda x, V -> V/lambda**2. A family's own gap has no such floor.
    noise = 0.0
    if type(pot).gap is Potential.gap:
        noise = _EPS * energies[:k] * ((b[:k] - a[:k]) / theta[:k]) ** 2
    tol = (1e-10 + noise) * theta[:k]
    k, exc = first_failure(k, exc, (np.abs(left[:k] - right[:k]) > tol, lambda p: DomainError(
        "midpoint search failed to balance actions (%g vs %g)" % (left[p], right[p])
    )))
    return theta[:k], c[:k], exc


def find_midpoint(pot, energy, a, b):
    """Interior point c with equal half actions, integral a..c == c..b.

    c is the last iterate of a Newton-bisection search on action(a, c) =
    theta / 2 (see _midpoints), within 1e-13 (b - a) + 4 eps |c| of the
    root; on an even barrier with a = -b it is 0. The result satisfies
    |action(a, c) - action(c, b)| <= 1e-10 theta, plus eps E ((b - a)/theta)**2
    theta for a potential whose V - E is the base Potential.gap's subtraction.
    An energy that is not positive and finite, or an end that is not
    finite, raises DomainError.
    """
    energy, a, b = judge(energy, a=a, b=b)
    if a > b:
        raise ValueError("a must be <= b, got %g > %g" % (a, b))
    _, c, exc = _midpoints(pot, np.array([energy]), np.array([a]), np.array([b]))
    if exc is not None:
        raise exc
    return float(c[0])


def _degenerate(alpha, energy):
    """True for a slope alpha of k2 below 1e-10 of the energy scale, where
    the turning point is degenerate (energy at the barrier top); floats
    or arrays."""
    return np.abs(alpha) < 1e-10 * np.maximum(1.0, np.abs(energy))


def _alpha_checks(alpha, energies, x0, side):
    """The checks, for first_failure, that alpha_limit runs on each slope
    alpha at its turning point x0 (arrays)."""
    degenerate = _degenerate(alpha, energies), lambda p: DegenerateTurningPointError(
        "|dk2/dx| = %g at x=%g: degenerate turning point (barrier top)" % (abs(alpha[p]), x0[p])
    )
    if side == "left":
        return degenerate, (alpha >= 0.0, lambda p: DomainError(
            "left turning point at %g has alpha >= 0; not a barrier entry" % x0[p]
        ))
    return degenerate, (alpha <= 0.0, lambda p: DomainError(
        "right turning point at %g has alpha <= 0; not a barrier exit" % x0[p]
    ))


def alpha_limit(pot, energy, x0, side):
    """Slope of k2 at a turning point: lim k2(x)/(x - x0) = -V'(x0).

    ``side`` is "left" for the entry point a (alpha < 0) or "right" for
    the exit point b (alpha > 0). A slope below 1e-10 of the energy scale
    means the turning point is degenerate (energy at the barrier top) and
    the limit definition fails. An energy that is not positive and finite,
    or an x0 that is not finite, raises DomainError.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right', got %r" % side)
    energy, x0 = judge(energy, x0=x0)
    alpha = -pot.v_prime(np.array([x0]))
    _, exc = first_failure(1, None, *_alpha_checks(alpha, np.array([energy]), [x0], side))
    if exc is not None:
        raise exc
    return alpha.item()


def _geometry_check(geom):
    """The check, for first_failure, of a BarrierGeometry of arrays: c must
    lie strictly between a and b and theta must be positive."""
    a, c, b = geom.a, geom.c, geom.b
    return ~((a < c) & (c < b)) | (geom.theta <= 0.0), lambda p: DomainError(
        "inconsistent barrier geometry: %r" % (_entry(geom, p),)
    )


def _analyze(pot, energies, window):
    """(geom, exc): the BarrierGeometry of arrays of the energies before the
    first that fails a check, and that energy's exception, or None."""
    a, b, exc = _turning_points(pot, energies, window)
    if not a.size:
        return _EMPTY, exc
    theta, c, failed = _midpoints(pot, energies[:a.size], a, b)
    k = theta.size
    if failed is not None:
        exc = failed
    e, a, b = energies[:k], a[:k], b[:k]
    alpha = -pot.v_prime(np.concatenate((a, b)))
    columns = (a, b, c, theta, alpha[:k], alpha[k:], e)
    geom = BarrierGeometry(*columns)
    k, exc = first_failure(
        k, exc,
        *_alpha_checks(geom.alpha_plus, e, a, "left"),
        *_alpha_checks(geom.alpha_minus, e, b, "right"),
        _geometry_check(geom),
    )
    return BarrierGeometry(*(column[:k] for column in columns)), exc


def _geometries(pot, energies, window=None):
    """(geom, exc): the geometry of a scalar or a 1D array of energies
    before the first that fails, and that energy's exception, or None.

    geom is a BarrierGeometry of arrays, entry i that of energy i. The
    energies run in blocks of BLOCK through errors.batched, so an error of
    a stage as a whole (a bad window, a window beyond a table's range, a
    root search that does not converge) is the error of the first energy
    of its block. energies beyond 1D raise ValueError.
    """
    return batched(lambda block: _analyze(pot, block, window), energies, _EMPTY, BLOCK)


def analyze_barrier(pot, energy, window=None):
    """Geometry of one barrier at one energy or at each of an array of them.

    A scalar energy (a float or a 0-d array) gives a BarrierGeometry of
    floats, a 1D array or list one BarrierGeometry of arrays, one entry per
    energy; a 2-D array raises ValueError. All energies run in one batched
    pass (see _geometries), and a failure raises the error of the lowest
    failing energy.
    """
    return outcome(*_geometries(pot, energy, window), energy)
