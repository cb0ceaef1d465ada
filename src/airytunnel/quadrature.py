"""Gauss-Legendre quadrature with turning-point-tolerant endpoint mapping.

Action integrands behave like sqrt(x - a) at turning points. The
substitution x = x1 + (x2 - x1) sin(t)**2 absorbs a square-root zero at
either endpoint into a smooth function of t, after which Gauss-Legendre
converges spectrally. Node counts double until two successive estimates
agree to the requested relative tolerance.

An array of segments is integrated in one pass: every unfinished segment
is sampled at the same mapped nodes, f sees them all in one call, and
each segment stops by its own test. A segment's result does not depend
on which other segments share the call.
"""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _mapped_rule(n):
    """(sin(t)**2, sin(2t), weight column) at the n Gauss-Legendre nodes t in [0, pi/2]."""
    xg, wg = np.polynomial.legendre.leggauss(n)
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
        del vals  # not held through the next rule's eigensolve
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
