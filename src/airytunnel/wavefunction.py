"""Uniform approximate wavefunctions across turning points.

The basis pair anchored at a turning point x0 is

    psi_ai(x) = |k(x)|**(-1/2) S(x)**(1/6) Ai(sgn(-k2(x)) S(x)**(2/3))
    psi_bi(x) =          same prefactor    Bi(        same argument   )

with S(x) = (3/2) |integral of |k| from x0 to x|, accumulated as a
magnitude so S grows monotonically away from the anchor even across
further turning points. All fractional powers are real positive; the
allowed/forbidden distinction lives entirely in the sign of the Airy
argument (negative where k2 > 0, positive where k2 < 0, zero at the
anchor). At a far turning point, where k2 = 0 but S is finite, the sign
is that of -k2 halfway between it and the anchor.

The basis is built for a whole array of points at once, a scalar as an
array of size one. The points, the anchor and every sign change of k2
between them are the breakpoints, so k2 keeps one sign on each segment
between neighbours and the quadrature's endpoint map absorbs its
square-root zeros. One batched quadrature call integrates |k| over all
segments, and a cumulative sum outward from the anchor gives S at every
point. The Airy functions are then evaluated on the whole argument array
in one call.

At the anchor itself the 0/0 prefactor has the finite limit
|alpha|**(-1/6) with alpha = dk2/dx, so a guard band |S| < 1e-8 is
evaluated by that limit instead. At a far turning point (k2 = 0 with
finite S) the prefactor, and so the basis pair, is infinite. For a linear
k2 the construction is exact: it reproduces Ai and Bi of the shifted
argument identically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTurningPointError, as_1d, judge
from .geometry import _degenerate
from .quadrature import integrate_endpoint_singular
from .specfun import AI_ZERO, BI_ZERO, airy

#: Below this action the anchor limit formula replaces the 0/0 prefactor.
ANCHOR_GUARD_S = 1e-8

#: |k| is evaluated this many quadrature nodes at a time (see _basis_arrays).
NODE_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class WavefunctionGrid:
    """Superposed psi (complex) plus the basis pair it came from, arrays over x."""

    x: np.ndarray
    psi: np.ndarray
    ksq: np.ndarray
    airy_arg: np.ndarray
    psi_ai: np.ndarray
    psi_bi: np.ndarray


def _basis_arrays(pot, energy, anchor, xs, crossings):
    """(psi_ai, psi_bi, ksq, airy_arg) arrays at the points xs, given a valid
    energy and every crossing of k2 between the anchor and the points."""
    alpha = -pot.v_prime(anchor)
    if _degenerate(alpha, energy):
        raise DegenerateTurningPointError("anchor %g is a degenerate turning point" % anchor)
    # np.unique's arithmetic (sort, keep each entry unequal to the one before,
    # so -0.0 and 0.0 are one cut) without its lazy import of numpy.ma
    cuts = np.sort(np.concatenate((xs, [anchor], crossings)))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]

    def abs_k(x):
        # In chunks, so the potential's temporaries stay at 32 KB whatever the
        # grid. A 32-node pass over a 401-point grid at once takes ~0.5 MB of
        # short-lived arrays, which glibc's malloc hands back to the system
        # after each call and faults in again on the next.
        k = np.empty_like(x)
        for i in range(0, x.size, NODE_CHUNK):
            k[i:i + NODE_CHUNK] = pot.gap(energy, x[i:i + NODE_CHUNK])
        return np.sqrt(np.abs(k, out=k), out=k)

    # Grid segments are short, so 16 nodes usually settle them at once. A
    # spline knot inside a segment slows convergence enough that the 16-
    # and 32-node estimates can agree to 1e-12 while both are still off by
    # more; asking for 1e-13 sends those segments one doubling further.
    pieces = integrate_endpoint_singular(abs_k, cuts[:-1], cuts[1:], rel_tol=1e-13, n_start=16)
    # Summed outward from the anchor, so the action never decreases away
    # from it and carries no cancellation between two long sums.
    at = np.searchsorted(cuts, anchor)
    action = np.zeros(cuts.size)
    action[at + 1:] = np.cumsum(pieces[at:])
    action[:at] = np.cumsum(pieces[:at][::-1])[::-1]
    s_action = 1.5 * action[np.searchsorted(cuts, xs)]

    ksq = 0.0 - pot.gap(energy, xs)  # not -gap, whose zero would print as -0
    guard = s_action < ANCHOR_GUARD_S
    sign = np.sign(-ksq)
    far = (ksq == 0.0) & ~guard  # far turning points take the side of the stretch toward the anchor
    if far.any():
        mid = 0.5 * (xs[far] + anchor)
        sign[far] = np.sign(pot.gap(energy, mid))
    arg = np.where(guard, 0.0, sign * s_action ** (2.0 / 3.0))
    pair = airy(arg)
    ai, bi = pair.ai, pair.bi
    amp = np.empty(xs.size)
    if guard.any():
        amp[guard] = abs(alpha) ** (-1.0 / 6.0)
        ai[guard], bi[guard] = AI_ZERO, BI_ZERO
    # A far turning point (k2 = 0 with finite action) gets an infinite
    # amplitude: the uniform approximation genuinely diverges there.
    with np.errstate(divide="ignore"):
        np.divide(s_action ** (1.0 / 6.0), np.sqrt(np.sqrt(np.abs(ksq))), out=amp, where=~guard)
    return amp * ai, amp * bi, ksq, arg


def _scanned_basis(pot, energy, anchor, x):
    """_basis_arrays at x (a scalar or 1D) from one Potential.crossings call;
    errors.judge names a bad energy, anchor or point before it."""
    xs, _ = as_1d(x, "x")
    energy, anchor, xs = judge(energy, anchor=anchor, x=xs)
    ends = np.append(xs, anchor)
    _, crossings = pot.crossings(np.array([energy]), ends.min(), ends.max())
    return _basis_arrays(pot, energy, anchor, xs, crossings)


def psi_basis(pot, energy, anchor, x):
    """The (Ai-based, Bi-based) uniform basis pair at x, anchored at a turning
    point: two floats at a scalar x, two arrays at a 1D x."""
    ai_part, bi_part, _, _ = _scanned_basis(pot, energy, anchor, x)
    if np.ndim(x) == 0:
        return float(ai_part[0]), float(bi_part[0])
    return ai_part, bi_part


def superpose(c_plus, c_minus, basis):
    """psi = c_plus * psi_ai + c_minus * psi_bi, elementwise on arrays.

    A zero coefficient drops its term, so an infinite basis value at a far
    turning point does not turn psi into nan (0 * inf).
    """
    psi = 0.0
    for coeff, part in zip((c_plus, c_minus), basis):
        if coeff != 0:
            psi = psi + coeff * part
    return psi


def _grid(pot, window, n_points):
    """The uniform grid of n_points >= 2 points over pot.window(window)."""
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError("n_points must be >= 2, got %d" % n_points)
    return np.linspace(*pot.window(window), n_points)


def sample_grid(pot, energy, window, n_points, c_plus, c_minus, anchor):
    """Evaluate the superposed wavefunction on a uniform grid.

    Returns one WavefunctionGrid; needs n_points >= 2.
    """
    xs = _grid(pot, window, n_points)
    psi_ai, psi_bi, ksq, arg = _scanned_basis(pot, energy, anchor, xs)
    psi = np.broadcast_to(superpose(c_plus, c_minus, (psi_ai, psi_bi)), xs.shape).astype(complex)
    return WavefunctionGrid(x=xs, psi=psi, ksq=ksq, airy_arg=arg, psi_ai=psi_ai, psi_bi=psi_bi)


def ode_residual(grid):
    """Worst normalized defect |psi'' + k2 psi| over the interior of a grid.

    psi'' is a central difference, so the grid must be uniform (to 1e-9
    relative) and contain at least 5 points. Each defect is normalized by
    max(|k2 psi|, floor), where the floor is 1% of the grid-wide maximum
    of |k2 psi|; that keeps oscillation nodes from dominating the
    statistic. Meaningful away from turning points.
    """
    xs, psi, ksq = grid.x, grid.psi, grid.ksq
    if xs.size < 5:
        raise ValueError("need at least 5 samples, got %d" % xs.size)
    dx = np.diff(xs)
    h = dx[0]
    if h <= 0.0 or np.any(np.abs(dx - h) > 1e-9 * abs(h)):
        raise ValueError("samples must lie on a uniform grid")

    d2 = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (h * h)
    defect = np.abs(d2 + ksq[1:-1] * psi[1:-1])
    signal = np.abs(ksq * psi)
    floor = 0.01 * signal.max() + 1e-300
    denom = np.maximum(signal[1:-1], floor)
    return float((defect / denom).max())
