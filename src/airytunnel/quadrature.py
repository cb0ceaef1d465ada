"""The package's two batched kernels: the action quadrature and the root search.

Both take equal-length 1D arrays, one entry per segment or bracket, and
return the array of results. Each entry takes the arithmetic steps it
would take alone, so its result does not depend on the other entries.

integrate_endpoint_singular: action integrands behave like sqrt(x - a) at
turning points. The substitution x = x1 + (x2 - x1) sin(t)**2 absorbs a
square-root zero at either endpoint into a smooth function of t, after
which Gauss-Legendre converges spectrally. Every unfinished segment is
sampled at the same mapped nodes, f sees them all in one call, and each
segment doubles its node count until its own stop test holds. The stop
tests are masks, written negated so that a NaN estimate keeps doubling to
N_MAX, and the live arrays are compacted only when a segment stops.

The rules come from Newton's method on the three-term recurrence for
P_n, started from Tricomi's asymptotic nodes and vectorised over the
nonnegative roots (Hale & Townsend, SIAM J. Sci. Comput. 35, A652
(2013)): O(n) memory and no eigensolve, where the Golub-Welsch route of
``numpy.polynomial.legendre.leggauss`` solves a dense n x n eigenproblem.
The nodes agree with leggauss's to an ulp, and the weights are more
accurate, most of all near the ends of large rules.

solve_bracketed: safeguarded Newton-bisection on sign-change brackets,
given f at the bracket ends. It finds the turning points of a tabulated
barrier and the midpoint that balances a barrier's two half actions.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError


#: Largest Gauss-Legendre rule of the quadrature: a segment still doubling
#: at this many nodes returns its estimate there.
N_MAX = 2048

# Relative part of the root solver's stop test, 4 eps.
_EPS4 = 4.0 * np.finfo(float).eps

#: Newton passes allowed per rule. From Tricomi's nodes the rules of 1 to
#: 1024, 2048 and 4096 nodes converge in at most 4; an unconverged rule raises.
_MAX_PASSES = 8


def _gauss_legendre(n):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Each Newton pass runs the recurrence (j + 1) P_{j+1} = (2j + 1) x P_j
    - j P_{j-1} on all nonnegative roots at once, as P_{j+1} = xP_j +
    j/(j + 1) (xP_j - P_{j-1}), and stops once the largest step is below
    1e-15. The negative roots are the mirror images.
    """
    m = (n + 1) // 2
    k = np.arange(1, m + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # the middle root; P_n(0) is exactly 0 for odd n
    ratio = [j / (j + 1.0) for j in range(n)]
    for _ in range(_MAX_PASSES):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            xp = x * p1
            p0, p1 = p1, xp + ratio[j] * (xp - p0)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2
        step = p1 / dp
        if np.abs(step).max() < 1e-15:
            break
        x = x - step
    else:
        raise ArithmeticError(
            "%d-point Gauss-Legendre rule did not converge in %d Newton passes" % (n, _MAX_PASSES)
        )
    # The last pass's P_n' gives the weights 2 / ((1 - x^2) P_n'^2). Its step
    # moves the root by under an ulp, and by Legendre's equation
    # d/dx[(1 - x^2) P_n'^2] = 2x P_n'^2 at a root, so to first order the
    # weight at the root x - step is:
    w = 2.0 / ((one_minus_x2 - 2.0 * x * step) * dp * dp)
    x = x - step
    h = n // 2
    return np.concatenate((-x[:h], x[::-1])), np.concatenate((w[:h], w[::-1]))


@lru_cache(maxsize=None)
def _mapped_rule(n):
    """(sin(t)**2, sin(2t), weight column) at the n Gauss-Legendre nodes t in [0, pi/2]."""
    xg, wg = _gauss_legendre(n)
    t = (math.pi / 4.0) * (xg + 1.0)
    rule = (np.sin(t) ** 2, np.sin(2.0 * t), wg[:, None])
    for arr in rule:
        arr.flags.writeable = False
    return rule


def integrate_endpoint_singular(f, x1, x2, rel_tol=1e-12, n_start=64, rows=None):
    """Integrals of f over the segments [x1, x2], tolerating sqrt endpoint behavior.

    x1 and x2 are equal-length 1D arrays of segment ends (ValueError
    otherwise); the result is the array of per-segment estimates. f must
    accept a 1D numpy array. A segment's node count doubles from n_start
    until two successive Gauss-Legendre estimates agree to rel_tol, the
    difference stops shrinking (the integrand's floating-point noise
    floor, e.g. from cancellation in E - V near a turning point), or N_MAX
    is reached; the finer estimate is returned. A NaN estimate meets
    neither stop test, so its segment doubles up to N_MAX. ``rows``, if
    given, is a list the loop keeps equal to the indices of the segments
    whose nodes the next f call gets, n consecutive nodes per segment, so
    f can look up per-segment data such as each segment's own energy.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim != 1 or x1.shape != x2.shape:
        raise ValueError("segment ends must be equal-length 1D arrays")
    width = x2 - x1
    est = np.zeros(width.size)
    live = np.flatnonzero(width)
    lo, width = x1[live], width[live]
    prev = prev_diff = None
    n = n_start
    while live.size:
        s2, s2t, wg = _mapped_rule(n)
        if rows is not None:
            rows[:] = live.tolist()
        vals = f((lo[:, None] + width[:, None] * s2).ravel()).reshape(-1, 1, n) * s2t
        # A stack of (1 x n) @ (n x 1) products: numpy takes each as one BLAS
        # dot, so every segment sums in the same order as it would alone.
        e = (math.pi / 4.0) * width * np.matmul(vals, wg).ravel()
        est[live] = e
        if n >= N_MAX:
            break
        if prev is not None:
            step = np.abs(e - prev)
            # Negated tests, so that a NaN step fails both and keeps going.
            going = ~(step <= rel_tol * np.abs(e) + 1e-300)  # not converged
            if prev_diff is not None:
                going &= ~(step >= 0.25 * prev_diff)  # still shrinking: above the noise floor
            if not going.all():
                live, lo, width, e, step = live[going], lo[going], width[going], e[going], step[going]
            prev_diff = step
        prev = e
        n *= 2
    return est


def solve_bracketed(f, lo, hi, f_lo, f_hi, xtol, x0=None):
    """Roots of f in the brackets [lo, hi] by safeguarded Newton-bisection.

    lo, hi and the values f_lo, f_hi of f there are equal-length 1D arrays,
    one entry per bracket; xtol and x0 are arrays like them or scalars. A
    bracket's f_lo and f_hi must not share a sign (ValueError otherwise),
    and an end where f is 0 is its root. The first interior iterate is x0
    where it lies strictly inside the bracket, else the midpoint. Each step
    is a Newton step when it lands inside the shrinking bracket and is at
    most half the previous step, else a bisection. Stops once a step is
    below xtol + 4 eps |x|; more than 100 steps raise DomainError.

    f(x, j) takes one iterate x per bracket j still stepping and returns
    (f, f'), both arrays like x. The brackets step together: each takes
    the steps it would take alone and drops out when it stops. Returns
    the array of roots.
    """
    tol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
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
    if x0 is not None:
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), root.shape)[live]
        x = np.where((np.minimum(lo, hi) < x0) & (x0 < np.maximum(lo, hi)), x0, x)
    step = np.abs(hi - lo)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(100):
            if not live.size:
                break
            fx, slope = f(x, live)
            neg = fx < 0.0
            lo, hi = np.where(neg, x, lo), np.where(neg, hi, x)
            # A zero slope gives an infinite (or nan) step, which bisects.
            step_before, step = step, fx / slope
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
    if live.size:
        raise DomainError("no root to %g found in 100 steps near x=%g" % (tol[0], x[0]))
    return root
