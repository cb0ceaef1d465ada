"""Gauss-Legendre quadrature with turning-point-tolerant endpoint mapping.

Action integrands behave like sqrt(x - a) at turning points. The
substitution x = x1 + (x2 - x1) sin(t)**2 absorbs a square-root zero at
either endpoint into a smooth function of t, after which Gauss-Legendre
converges spectrally. Node counts double until two successive estimates
agree to the requested relative tolerance.

The rules come from Newton's method on the three-term recurrence for
P_n, started from Tricomi's asymptotic nodes and vectorised over the
nonnegative roots (Hale & Townsend, SIAM J. Sci. Comput. 35, A652
(2013)): O(n) memory and no eigensolve, where the Golub-Welsch route of
``numpy.polynomial.legendre.leggauss`` solves a dense n x n eigenproblem.
The nodes agree with leggauss's to an ulp, and the weights are more
accurate, most of all near the ends of large rules.

An array of segments is integrated in one pass: every unfinished segment
is sampled at the same mapped nodes, f sees them all in one call, and
each segment stops by its own test. A segment's result does not depend
on which other segments share the call.
"""

import math
from functools import lru_cache

import numpy as np


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


def integrate_endpoint_singular(f, x1, x2, rel_tol=1e-12, n_start=64, n_max=2048, rows=None):
    """Integrate f over [x1, x2], tolerating sqrt endpoint behavior.

    f must accept a 1D numpy array. Node counts double until two
    successive Gauss-Legendre estimates agree to rel_tol, the difference
    stops shrinking (the integrand's floating-point noise floor, e.g. from
    cancellation in E - V near a turning point), or n_max is reached;
    the finer estimate is returned.

    x1 and x2 may be equal-length 1D arrays of segment ends; the result is
    then an array of per-segment estimates, each equal bit for bit to the
    scalar call on its segment. Scalar ends return a float. ``rows``, if
    given, is a list the loop keeps equal to the indices of the segments
    whose nodes the next f call gets, n consecutive nodes per segment, so
    f can look up per-segment data such as each segment's own energy.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim > 1 or x1.shape != x2.shape:
        raise ValueError("segment ends must be scalars or equal-length 1D arrays")
    lo = x1.reshape(-1, 1)
    width = x2.reshape(-1, 1) - lo
    spans = width.ravel().tolist()
    est = [0.0] * len(spans)
    idx = [i for i, w in enumerate(spans) if w != 0.0]
    if len(idx) < len(spans):
        lo, width, spans = lo[idx], width[idx], [spans[i] for i in idx]
    prev = prev_diff = None
    n = n_start
    while idx:
        s2, s2t, wg = _mapped_rule(n)
        if rows is not None:
            rows[:] = idx
        vals = f((lo + width * s2).ravel()).reshape(-1, 1, n) * s2t
        # A stack of (1 x n) @ (n x 1) products: numpy takes each as one BLAS
        # dot, so every segment sums in the same order as a scalar call.
        dots = np.matmul(vals, wg).ravel().tolist()
        going, new, diff = [], [], []
        for j, (i, w, d) in enumerate(zip(idx, spans, dots)):
            est[i] = e = (math.pi / 4.0) * w * d
            if prev is not None:
                step = abs(e - prev[j])
                if step <= rel_tol * abs(e) + 1e-300:
                    continue  # converged
                if prev_diff is not None and step >= 0.25 * prev_diff[j]:
                    continue  # noise floor: the difference stopped shrinking
                diff.append(step)
            going.append(j)
            new.append(e)
        if n >= n_max:
            break
        if len(going) < len(idx):
            idx, spans = [idx[j] for j in going], [spans[j] for j in going]
            lo, width = lo[going], width[going]
        prev, prev_diff = new, (diff if prev is not None else None)
        n *= 2
    return np.array(est) if x1.ndim else est[0]
