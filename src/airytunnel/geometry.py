"""Per-energy barrier geometry: turning points, actions, midpoint, slopes.

For a single-hump barrier at energy E the forbidden interval [a, b] is
bounded by the simple zeros of k2(x) = E - V(x). The quantities computed
here feed the transmission formulas:

* theta  = integral of kappa over [a, b], kappa = sqrt(V - E)
* c      = the interior point splitting that action into equal halves
* s_half = (3/2) * integral of kappa over [a, c]
* alpha_plus / alpha_minus = d(k2)/dx at a and b, i.e. the limits of
  k2(x)/(x - a) and k2(x)/(x - b); for a barrier alpha_plus < 0 and
  alpha_minus > 0.

alpha is taken from the analytic (or spline) derivative of V rather than
the raw difference quotient, which loses half the significant digits near
the root.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTurningPointError,
    DomainError,
    MultiHumpUnsupported,
    NoBarrierError,
    NonSmoothError,
)
from .quadrature import integrate_endpoint_singular

#: Uniform samples used to bracket sign changes of k2 before root polishing.
#: Narrow humps (energy within ~1e-4 of the barrier top for unit-width
#: barriers) may need a finer scan or a tighter window.
DEFAULT_SCAN_POINTS = 2048


@dataclass(frozen=True)
class BarrierGeometry:
    """Everything the rate formulas need about one barrier at one energy."""

    a: float
    b: float
    c: float
    theta: float
    s_half: float
    alpha_plus: float
    alpha_minus: float
    energy: float


def solve_bracketed(f, fprime, lo, hi, xtol):
    """Root of f between lo and hi by safeguarded Newton-bisection.

    f(lo) and f(hi) must not share a sign (ValueError otherwise). Each step
    is a Newton step when it lands inside the shrinking bracket and is at
    most half the previous step, else a bisection. Stops once a step is
    below xtol + 4 eps |x|; more than 100 steps raise DomainError.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError("f(%g) = %g, f(%g) = %g: no sign change" % (lo, f_lo, hi, f_hi))
    if f_lo > 0.0:
        lo, hi = hi, lo  # from here on f(lo) < 0 < f(hi)
    x = 0.5 * (lo + hi)
    step = step_before = abs(hi - lo)
    for _ in range(100):
        fx = f(x)
        if fx == 0.0:
            return x
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        slope = fprime(x)
        step_before, step = step, fx / slope if slope else math.inf
        if not min(lo, hi) < x - step < max(lo, hi) or abs(step) > 0.5 * abs(step_before):
            step = x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= xtol + 4.0 * np.finfo(float).eps * abs(x):
            return x
    raise DomainError("no root to %g found in 100 steps near x=%g" % (xtol, x))


def find_crossings(pot, energy, lo, hi, n_scan=DEFAULT_SCAN_POINTS):
    """Sorted simple zeros of k2 in [lo, hi].

    Scans n_scan uniform samples for sign changes of k2 and polishes each
    bracket by solve_bracketed on the potential's own derivative.
    """
    xs = np.linspace(lo, hi, n_scan)
    ksq = np.asarray(pot.wavenumber_sq(energy, xs), dtype=float)
    signs = np.where(ksq > 0.0, 1.0, -1.0)
    brackets = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]

    def k2(x):
        return energy - float(pot.v(x))

    def k2_prime(x):
        return -float(pot.v_prime(x))

    return [solve_bracketed(k2, k2_prime, float(xs[i]), float(xs[i + 1]), 1e-14) for i in brackets]


def find_turning_points(pot, energy, window=None, n_scan=DEFAULT_SCAN_POINTS):
    """Locate the forbidden interval (a, b) with k2(a) = k2(b) = 0.

    Scans the window for sign changes of k2 (find_crossings; n_scan must
    be at least 3 to bracket two of them). Raises NoBarrierError when no
    closed forbidden interval lies inside the window and
    MultiHumpUnsupported when the window contains more than one.
    """
    energy = float(energy)
    if energy <= 0.0 or not math.isfinite(energy):
        raise DomainError("energy must be positive and finite, got %r" % energy)
    if window is None:
        window = pot.suggested_window()
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy xmin < xmax, got (%g, %g)" % (lo, hi))
    if int(n_scan) < 3:
        raise ValueError("n_scan must be >= 3 to bracket two turning points, got %d" % n_scan)

    roots = find_crossings(pot, energy, lo, hi, int(n_scan))
    if len(roots) == 0:
        raise NoBarrierError(
            "no barrier at E=%g: k2 does not change sign in (%g, %g)" % (energy, lo, hi)
        )
    if len(roots) > 2:
        raise MultiHumpUnsupported(
            "%d sign changes of k2 in (%g, %g); single-hump barriers only"
            % (len(roots), lo, hi)
        )
    if len(roots) == 1:
        raise NoBarrierError(
            "forbidden region is not closed inside the window (%g, %g)" % (lo, hi)
        )
    a, b = roots
    if energy - float(pot.v(0.5 * (a + b))) >= 0.0:
        raise NoBarrierError(
            "window (%g, %g) does not bracket a forbidden interval at E=%g"
            % (lo, hi, energy)
        )
    return a, b


def action_integral(pot, energy, x1, x2, rel_tol=1e-12):
    """Integral of sqrt(V - E) over [x1, x2] inside the barrier.

    The integrand has square-root zeros at the turning points; the mapped
    Gauss-Legendre rule handles those. V < E strictly inside the range
    means the supplied interval is not contained in the forbidden region
    and raises DomainError.
    """
    x1 = float(x1)
    x2 = float(x2)
    if x1 > x2:
        raise ValueError("x1 must be <= x2, got %g > %g" % (x1, x2))
    if x1 == x2:
        return 0.0
    energy = float(energy)
    neg_tol = 1e-10 * max(1.0, abs(energy))

    def integrand(x):
        g = np.asarray(pot.v(x), dtype=float) - energy
        if np.any(g < -neg_tol):
            raise DomainError(
                "V < E inside [%g, %g]: inconsistent turning points" % (x1, x2)
            )
        return np.sqrt(np.maximum(g, 0.0))

    return integrate_endpoint_singular(integrand, x1, x2, rel_tol=rel_tol)


def find_midpoint(pot, energy, a, b):
    """Interior point c with equal half actions, integral a..c == c..b.

    The result satisfies |action(a, c) - action(c, b)| <= 1e-10 * theta.
    """
    return _balanced_midpoint(pot, energy, a, b, action_integral(pot, energy, a, b))[0]


def _balanced_midpoint(pot, energy, a, b, theta):
    """(c, action(a, c)) for the midpoint of a barrier whose action is theta.

    g(c) = action(a, c) - theta/2 rises from -theta/2 at a to theta/2 at b
    with the closed-form slope sqrt(V(c) - E), which Newton steps use.
    """
    if theta <= 0.0:
        raise DegenerateTurningPointError(
            "vanishing barrier action between %g and %g" % (a, b)
        )
    half = 0.5 * theta

    def imbalance(c):
        # action(a, a) = 0 and action(a, b) = theta need no quadrature.
        if c == a or c == b:
            return half if c == b else -half
        return action_integral(pot, energy, a, c) - half

    def slope(c):
        return math.sqrt(max(float(pot.v(c)) - energy, 0.0))

    c = solve_bracketed(imbalance, slope, a, b, 1e-13 * (b - a))
    left = action_integral(pot, energy, a, c)
    right = action_integral(pot, energy, c, b)
    if abs(left - right) > 1e-10 * theta:
        raise DomainError(
            "midpoint search failed to balance actions (%g vs %g)" % (left, right)
        )
    return c, left


def alpha_limit(pot, energy, x0, side):
    """Slope of k2 at a turning point: lim k2(x)/(x - x0) = -V'(x0).

    ``side`` is "left" for the entry point a (alpha < 0) or "right" for
    the exit point b (alpha > 0). A slope below 1e-10 of the energy scale
    means the turning point is degenerate (energy at the barrier top) and
    the limit definition fails.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right', got %r" % side)
    alpha = -float(pot.v_prime(x0))
    threshold = 1e-10 * max(1.0, abs(float(energy)))
    if abs(alpha) < threshold:
        raise DegenerateTurningPointError(
            "|dk2/dx| = %g at x=%g: degenerate turning point (barrier top)"
            % (abs(alpha), x0)
        )
    if side == "left" and alpha >= 0.0:
        raise DomainError("left turning point at %g has alpha >= 0; not a barrier entry" % x0)
    if side == "right" and alpha <= 0.0:
        raise DomainError("right turning point at %g has alpha <= 0; not a barrier exit" % x0)
    return alpha


def analyze_barrier(pot, energy, window=None, n_scan=DEFAULT_SCAN_POINTS):
    """Full per-energy analysis; the one-stop entry point for the rates."""
    if not pot.smooth:
        raise NonSmoothError(
            "potential %r has jumps; turning-point slopes do not exist" % pot
        )
    a, b = find_turning_points(pot, energy, window, n_scan)
    theta = action_integral(pot, energy, a, b)
    c, left = _balanced_midpoint(pot, energy, a, b, theta)
    s_half = 1.5 * left
    alpha_plus = alpha_limit(pot, energy, a, "left")
    alpha_minus = alpha_limit(pot, energy, b, "right")

    geom = BarrierGeometry(
        a=a,
        b=b,
        c=c,
        theta=theta,
        s_half=s_half,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        energy=float(energy),
    )
    # Internal consistency: c splits theta equally, so s_half = (3/4) theta.
    if not (a < c < b) or theta <= 0.0 or s_half <= 0.0:
        raise DomainError("inconsistent barrier geometry: %r" % (geom,))
    if abs(s_half - 0.75 * theta) > 1e-9 * theta:
        raise DomainError(
            "half action %g inconsistent with theta %g" % (s_half, theta)
        )
    return geom
