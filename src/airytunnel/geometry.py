"""Barrier geometry: turning points, actions, midpoint, slopes.

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

The geometry of a whole array of energies is one batched pass
(analyze_barriers), and the one-energy functions are that pass at a
single energy. V is sampled once on the scan grid and each energy's
brackets come from comparing E against it; every turning-point bracket
is polished by one array call of solve_bracketed; theta, every Newton
step of the midpoint search and the final half actions are one
quadrature call each. Each energy takes the same arithmetic steps as it
would alone. An energy that fails a stage takes no part in later ones.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTurningPointError,
    DomainError,
    MultiHumpUnsupported,
    NoBarrierError,
    NonSmoothError,
    TunnelError,
    energy_error,
)
from .quadrature import integrate_endpoint_singular

#: Uniform samples used to bracket sign changes of k2 before root polishing.
#: Narrow humps (energy within ~1e-4 of the barrier top for unit-width
#: barriers) may need a finer scan or a tighter window.
DEFAULT_SCAN_POINTS = 2048

# Relative part of the root solver's stop test, 4 eps.
_EPS4 = 4.0 * np.finfo(float).eps


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


def solve_bracketed(f, fprime, lo, hi, xtol, rows=None):
    """Root of f between lo and hi by safeguarded Newton-bisection.

    f(lo) and f(hi) must not share a sign (ValueError otherwise). Each step
    is a Newton step when it lands inside the shrinking bracket and is at
    most half the previous step, else a bisection. Stops once a step is
    below xtol + 4 eps |x|; more than 100 steps raise DomainError.

    f and fprime take an array of iterates. lo, hi and xtol may be
    equal-length 1D arrays of brackets, solved together: each call then
    gets one iterate per bracket still stepping (the first call both ends
    of every bracket), and ``rows``, if given, is a list the loop keeps
    equal to the bracket index of each point of the next call. A bracket
    takes the steps it would take alone and drops out when it stops; the
    result is then an array of roots.
    """
    scalar = np.ndim(lo) == 0
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if lo.ndim > 1 or lo.shape != hi.shape:
        raise ValueError("bracket ends must be scalars or equal-length 1D arrays")
    tol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
    track = rows if rows is not None else []
    n = lo.size
    if not n:
        return lo
    track[:] = list(range(n)) * 2
    ends = f(np.concatenate((lo, hi)))
    f_lo, f_hi = ends[:n], ends[n:]
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    live = np.flatnonzero(np.isnan(root))
    bad = live[(f_lo[live] < 0.0) == (f_hi[live] < 0.0)]
    if bad.size:
        j = bad[0]
        raise ValueError("f(%g) = %g, f(%g) = %g: no sign change" % (lo[j], f_lo[j], hi[j], f_hi[j]))
    # From here on f(lo) < 0 < f(hi).
    swap = f_lo[live] > 0.0
    lo, hi = np.where(swap, hi[live], lo[live]), np.where(swap, lo[live], hi[live])
    tol = tol[live]
    x = 0.5 * (lo + hi)
    step = np.abs(hi - lo)
    track[:] = live.tolist()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(100):
            if not live.size:
                break
            fx = f(x)
            neg = fx < 0.0
            lo, hi = np.where(neg, x, lo), np.where(neg, hi, x)
            # A zero slope gives an infinite (or nan) step, which bisects.
            step_before, step = step, fx / fprime(x)
            trial = x - step
            newton = (np.minimum(lo, hi) < trial) & (trial < np.maximum(lo, hi))
            newton &= np.abs(step) <= 0.5 * np.abs(step_before)
            step = np.where(newton, step, x - 0.5 * (lo + hi))
            x_next = x - step
            stop = np.abs(step) <= tol + _EPS4 * np.abs(x_next)
            zero = fx == 0.0
            if zero.any():  # x is a root already
                x_next[zero] = x[zero]
                stop |= zero
            x = x_next
            if stop.any():
                root[live[stop]] = x[stop]
                go = ~stop
                live, x, lo, hi, step, tol = live[go], x[go], lo[go], hi[go], step[go], tol[go]
                track[:] = live.tolist()
    if live.size:
        raise DomainError("no root to %g found in 100 steps near x=%g" % (tol[0], x[0]))
    return float(root[0]) if scalar else root


def _sign_changes(v, energies):
    """(energy index, j) of every scan interval [xs[j], xs[j+1]] on which
    k2 = E - V changes sign, given v = V(xs); sorted by energy, then j."""
    allowed = v < energies[:, None]  # k2 > 0, without forming E - V
    return np.nonzero(allowed[:, 1:] != allowed[:, :-1])


def _polish(pot, energies, lo, hi):
    """Zeros of k2 = E - V in the brackets [lo, hi], each at its own energy.

    An iterate where |k2| is within 4 eps max(|E|, |V|), the rounding
    noise of E - V, counts as a root: its computed sign says nothing, and
    a wrong one would send the solver into a long bisection.
    """
    rows = []

    def k2(x):
        e = energies[rows]
        v = pot.v(x)
        g = e - v
        g[np.abs(g) <= _EPS4 * np.maximum(np.abs(e), np.abs(v))] = 0.0
        return g

    def k2_prime(x):
        return -pot.v_prime(x)

    return solve_bracketed(k2, k2_prime, lo, hi, 1e-14, rows=rows)


def find_crossings(pot, energy, lo, hi, n_scan=DEFAULT_SCAN_POINTS):
    """Sorted simple zeros of k2 in [lo, hi].

    Scans n_scan uniform samples for sign changes of k2 and polishes all
    brackets together by solve_bracketed on the potential's own derivative.
    """
    xs = np.linspace(lo, hi, n_scan)
    _, j = _sign_changes(pot.v(xs), np.array([float(energy)]))
    return _polish(pot, np.full(j.size, float(energy)), xs[j], xs[j + 1]).tolist()


def _settle(out, at, errors):
    """Record errors, keyed by position in at, as those energies' outcomes.

    Returns the mask of the positions still in play.
    """
    keep = np.ones(at.size, dtype=bool)
    for j, exc in errors.items():
        out[at[j]] = exc
        keep[j] = False
    return keep


def _turning_points(pot, energies, window, n_scan, out):
    """(at, a, b): the indices of the energies with one forbidden interval
    [a, b] in the window, and its ends. The other energies' errors go to out.

    An error that no energy alone causes (bad window or n_scan, V failing
    on the scan) is raised, unless every energy has already failed.
    """
    at = np.arange(energies.size)
    errors = enumerate(map(energy_error, energies.tolist()))
    at = at[_settle(out, at, {j: exc for j, exc in errors if exc is not None})]
    if not at.size:
        return at, energies[at], energies[at]
    lo, hi = pot.window(window)
    if int(n_scan) < 3:
        raise ValueError("n_scan must be >= 3 to bracket two turning points, got %d" % n_scan)

    xs = np.linspace(lo, hi, int(n_scan))
    e = energies[at]
    which, j = _sign_changes(pot.v(xs), e)
    counts = np.bincount(which, minlength=at.size)
    errors = {}
    for p, (count, energy) in enumerate(zip(counts.tolist(), e.tolist())):
        if count == 0:
            errors[p] = NoBarrierError(
                "no barrier at E=%g: k2 does not change sign in (%g, %g)" % (energy, lo, hi)
            )
        elif count > 2:
            errors[p] = MultiHumpUnsupported(
                "%d sign changes of k2 in (%g, %g); single-hump barriers only"
                % (count, lo, hi)
            )
        elif count == 1:
            errors[p] = NoBarrierError(
                "forbidden region is not closed inside the window (%g, %g)" % (lo, hi)
            )
    keep = _settle(out, at, errors)
    j = j[keep[which]]  # two brackets per remaining energy: a's, then b's
    at, e = at[keep], e[keep]
    roots = _polish(pot, np.repeat(e, 2), xs[j], xs[j + 1])
    a, b = roots[0::2], roots[1::2]
    inside = e - pot.v(0.5 * (a + b)) >= 0.0
    errors = {
        p: NoBarrierError(
            "window (%g, %g) does not bracket a forbidden interval at E=%g" % (lo, hi, e[p])
        )
        for p in np.flatnonzero(inside).tolist()
    }
    keep = _settle(out, at, errors)
    return at[keep], a[keep], b[keep]


def find_turning_points(pot, energy, window=None, n_scan=DEFAULT_SCAN_POINTS):
    """Locate the forbidden interval (a, b) with k2(a) = k2(b) = 0.

    Scans the window for sign changes of k2 (find_crossings; n_scan must
    be at least 3 to bracket two of them). Raises NoBarrierError when no
    closed forbidden interval lies inside the window and
    MultiHumpUnsupported when the window contains more than one.
    """
    out = [None]
    _, a, b = _turning_points(pot, np.array([float(energy)]), window, n_scan, out)
    if out[0] is not None:
        raise out[0]
    return float(a[0]), float(b[0])


def _actions(pot, energies, x1, x2, rel_tol=1e-12):
    """Action integrals over the segments [x1, x2], each at its own energy.

    Returns (values, errors): errors maps a segment index to the
    DomainError of a segment with V < E inside, i.e. one not contained in
    the forbidden region. One quadrature call covers every segment.
    """
    neg_tol = 1e-10 * np.maximum(1.0, np.abs(energies))
    rows, errors = [], {}

    def integrand(x):
        g = pot.v(x).reshape(len(rows), -1) - energies[rows, None]
        for j in np.flatnonzero((g < -neg_tol[rows, None]).any(axis=1)).tolist():
            r = rows[j]
            errors.setdefault(r, DomainError(
                "V < E inside [%g, %g]: inconsistent turning points" % (x1[r], x2[r])
            ))
        return np.sqrt(np.maximum(g, 0.0, out=g), out=g).ravel()

    values = integrate_endpoint_singular(integrand, x1, x2, rel_tol=rel_tol, rows=rows)
    return values, errors


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
    values, errors = _actions(
        pot, np.array([float(energy)]), np.array([x1]), np.array([x2]), rel_tol
    )
    if errors:
        raise errors[0]
    return float(values[0])


def _midpoints(pot, energies, a, b, theta):
    """(c, left, errors) for barriers [a, b] at energies whose actions are theta.

    c splits each action into equal halves, |left - right| <= 1e-10 theta,
    and left = action(a, c). errors maps a position to the exception of a
    barrier without a midpoint; its left is nan.

    g(c) = action(a, c) - theta/2 rises from -theta/2 at a to theta/2 at b
    with the closed-form slope sqrt(V(c) - E), which Newton steps use. All
    barriers step together, each step one batched quadrature.
    """
    errors = {
        j: DegenerateTurningPointError("vanishing barrier action between %g and %g" % (a[j], b[j]))
        for j in np.flatnonzero(theta <= 0.0).tolist()
    }
    go = np.flatnonzero(theta > 0.0)
    half = 0.5 * theta
    rows = []

    def imbalance(c):
        j = go[rows]
        # action(a, a) = 0 and action(a, b) = theta need no quadrature.
        at_b = c == b[j]
        left, errs = _actions(pot, energies[j], a[j], np.where(at_b, a[j], c))
        for r, exc in errs.items():
            errors.setdefault(int(j[r]), exc)
        return np.where(at_b, half[j], left - half[j])

    def slope(c):
        return np.sqrt(np.maximum(pot.v(c) - energies[go[rows]], 0.0))

    c = np.full(theta.size, np.nan)
    c[go] = solve_bracketed(imbalance, slope, a[go], b[go], 1e-13 * (b[go] - a[go]), rows=rows)

    fine = np.array([j for j in range(theta.size) if j not in errors], dtype=int)
    m = fine.size
    halves, errs = _actions(
        pot, np.tile(energies[fine], 2),
        np.concatenate((a[fine], c[fine])), np.concatenate((c[fine], b[fine])),
    )
    for r in sorted(errs):  # a left half fails before its right half
        errors.setdefault(int(fine[r % m]), errs[r])
    left = np.full(theta.size, np.nan)
    left[fine] = halves[:m]
    for j, lh, rh in zip(fine.tolist(), halves[:m].tolist(), halves[m:].tolist()):
        if j not in errors and abs(lh - rh) > 1e-10 * theta[j]:
            errors[j] = DomainError(
                "midpoint search failed to balance actions (%g vs %g)" % (lh, rh)
            )
    return c, left, errors


def find_midpoint(pot, energy, a, b):
    """Interior point c with equal half actions, integral a..c == c..b.

    The result satisfies |action(a, c) - action(c, b)| <= 1e-10 * theta.
    """
    theta = action_integral(pot, energy, a, b)
    c, _, errors = _midpoints(
        pot, np.array([float(energy)]), np.array([float(a)]), np.array([float(b)]),
        np.array([theta]),
    )
    if errors:
        raise errors[0]
    return float(c[0])


def _degenerate(alpha, energy):
    """True for a slope alpha of k2 below 1e-10 of the energy scale, where
    the turning point is degenerate (energy at the barrier top)."""
    return abs(alpha) < 1e-10 * max(1.0, abs(energy))


def _alpha_error(alpha, energy, x0, side):
    """The error alpha_limit raises for slope alpha at turning point x0, or None."""
    if _degenerate(alpha, energy):
        return DegenerateTurningPointError(
            "|dk2/dx| = %g at x=%g: degenerate turning point (barrier top)"
            % (abs(alpha), x0)
        )
    if side == "left" and alpha >= 0.0:
        return DomainError("left turning point at %g has alpha >= 0; not a barrier entry" % x0)
    if side == "right" and alpha <= 0.0:
        return DomainError("right turning point at %g has alpha <= 0; not a barrier exit" % x0)
    return None


def alpha_limit(pot, energy, x0, side):
    """Slope of k2 at a turning point: lim k2(x)/(x - x0) = -V'(x0).

    ``side`` is "left" for the entry point a (alpha < 0) or "right" for
    the exit point b (alpha > 0). A slope below 1e-10 of the energy scale
    means the turning point is degenerate (energy at the barrier top) and
    the limit definition fails.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right', got %r" % side)
    alpha = -pot.v_prime(x0)
    exc = _alpha_error(alpha, float(energy), x0, side)
    if exc is not None:
        raise exc
    return alpha


def _geometry(a, b, c, theta, left, alpha_plus, alpha_minus, energy):
    """The BarrierGeometry of one energy, or the DomainError of an inconsistent one."""
    s_half = 1.5 * left
    geom = BarrierGeometry(
        a=a,
        b=b,
        c=c,
        theta=theta,
        s_half=s_half,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        energy=energy,
    )
    # Internal consistency: c splits theta equally, so s_half = (3/4) theta.
    if not (a < c < b) or theta <= 0.0 or s_half <= 0.0:
        return DomainError("inconsistent barrier geometry: %r" % (geom,))
    if abs(s_half - 0.75 * theta) > 1e-9 * theta:
        return DomainError("half action %g inconsistent with theta %g" % (s_half, theta))
    return geom


def _analyze(pot, energies, window, n_scan, out):
    """Fill out with the geometry or the error of each energy."""
    if not pot.smooth:
        raise NonSmoothError(
            "potential %r has jumps; turning-point slopes do not exist" % pot
        )
    at, a, b = _turning_points(pot, energies, window, n_scan, out)
    if not at.size:
        return
    e = energies[at]
    theta, errors = _actions(pot, e, a, b)
    keep = _settle(out, at, errors)
    at, e, a, b, theta = at[keep], e[keep], a[keep], b[keep], theta[keep]

    c, left, errors = _midpoints(pot, e, a, b, theta)
    keep = _settle(out, at, errors)
    at, e, a, b, c, theta, left = (arr[keep] for arr in (at, e, a, b, c, theta, left))

    m = at.size
    alpha = -pot.v_prime(np.concatenate((a, b)))
    rows = zip(at.tolist(), a.tolist(), b.tolist(), c.tolist(), theta.tolist(),
               left.tolist(), alpha[:m].tolist(), alpha[m:].tolist(), e.tolist())
    for i, a_i, b_i, c_i, theta_i, left_i, plus, minus, energy in rows:
        out[i] = (
            _alpha_error(plus, energy, a_i, "left")
            or _alpha_error(minus, energy, b_i, "right")
            or _geometry(a_i, b_i, c_i, theta_i, left_i, plus, minus, energy)
        )


def analyze_barriers(pot, energies, window=None, n_scan=DEFAULT_SCAN_POINTS):
    """Geometry of one barrier at each of an array of energies, in one pass.

    Returns one entry per energy: its BarrierGeometry, or the exception
    that analyze_barrier raises at that energy. An error of a stage as a
    whole (a bad window, a tabulated range the scan leaves, a root search
    that does not converge) is the error of every energy that had not
    failed before it.
    """
    energies = np.array(energies, dtype=float).reshape(-1)
    out = [None] * energies.size
    try:
        _analyze(pot, energies, window, n_scan, out)
    except (TunnelError, ValueError, ArithmeticError) as exc:
        return [exc if r is None else r for r in out]
    return out


def analyze_barrier(pot, energy, window=None, n_scan=DEFAULT_SCAN_POINTS):
    """Full per-energy analysis; the one-stop entry point for the rates."""
    (result,) = analyze_barriers(pot, [energy], window, n_scan)
    if isinstance(result, Exception):
        raise result
    return result
