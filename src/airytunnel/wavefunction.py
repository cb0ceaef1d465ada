"""Uniform approximate wavefunctions across turning points.

The basis pair anchored at a turning point x0 is

    psi_ai(x) = |k(x)|**(-1/2) S(x)**(1/6) Ai(sgn(-k2(x)) S(x)**(2/3))
    psi_bi(x) =          same prefactor    Bi(        same argument   )

with S(x) = (3/2) |integral of |k| from x0 to x|, accumulated as a
magnitude so S grows monotonically away from the anchor even across
further turning points. All fractional powers are real positive; the
allowed/forbidden distinction lives entirely in the sign of the Airy
argument (negative where k2 > 0, positive where k2 < 0, zero at turning
points).

At the anchor itself the 0/0 prefactor has the finite limit
|alpha|**(-1/6) with alpha = dk2/dx, so a guard band |S| < 1e-8 is
evaluated by that limit instead. For a linear k2 the construction is
exact: it reproduces Ai and Bi of the shifted argument identically.

Note the Airy kernel is range-limited to arguments >= -10; windows that
reach so deep into the allowed region that S**(2/3) exceeds 10 raise
DomainError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTurningPointError
from .geometry import find_crossings
from .quadrature import integrate_endpoint_singular
from .specfun import AI_ZERO, BI_ZERO, airy

#: Below this action the anchor limit formula replaces the 0/0 prefactor.
ANCHOR_GUARD_S = 1e-8


@dataclass(frozen=True)
class WavefunctionSample:
    """One grid sample: superposed psi plus the basis pair it came from."""

    x: float
    psi: complex
    ksq: float
    airy_arg: float
    psi_ai: float
    psi_bi: float


def _action_magnitude(pot, energy, x1, x2, crossings=None):
    """Integral of sqrt(|k2|) from x1 to x2, split at sign changes of k2."""
    lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
    if lo == hi:
        return 0.0
    if crossings is None:
        crossings = find_crossings(pot, energy, lo, hi)
    cuts = [lo] + [c for c in crossings if lo < c < hi] + [hi]

    def integrand(x):
        return np.sqrt(np.abs(np.asarray(pot.wavenumber_sq(energy, x), dtype=float)))

    return sum(
        integrate_endpoint_singular(integrand, p, q)
        for p, q in zip(cuts[:-1], cuts[1:])
    )


def _basis_point(pot, energy, anchor, x, crossings=None):
    """(psi_ai, psi_bi, ksq, airy_arg) at one x."""
    s_action = 1.5 * _action_magnitude(pot, energy, anchor, x, crossings)
    ksq = float(pot.wavenumber_sq(energy, x))

    if s_action < ANCHOR_GUARD_S:
        alpha = -float(pot.v_prime(anchor))
        if abs(alpha) < 1e-10 * max(1.0, abs(energy)):
            raise DegenerateTurningPointError(
                "anchor %g is a degenerate turning point" % anchor
            )
        amp = abs(alpha) ** (-1.0 / 6.0)
        return amp * AI_ZERO, amp * BI_ZERO, ksq, 0.0

    arg = float(np.sign(-ksq)) * s_action ** (2.0 / 3.0)
    pair = airy(arg)
    k_mag = math.sqrt(abs(ksq))
    if k_mag == 0.0:
        # Far turning point reached with finite action: the uniform
        # approximation genuinely diverges there.
        return math.inf * np.sign(pair.ai), math.inf * np.sign(pair.bi), ksq, arg
    amp = s_action ** (1.0 / 6.0) / math.sqrt(k_mag)
    return amp * pair.ai, amp * pair.bi, ksq, arg


def psi_basis(pot, energy, anchor, x):
    """The (Ai-based, Bi-based) uniform basis pair at x, anchored at a turning point."""
    ai_part, bi_part, _, _ = _basis_point(pot, energy, float(anchor), float(x))
    return ai_part, bi_part


def superpose(c_plus, c_minus, basis):
    """psi = c_plus * psi_ai + c_minus * psi_bi."""
    return c_plus * basis[0] + c_minus * basis[1]


def sample_grid(pot, energy, window, n_points, c_plus, c_minus, anchor):
    """Evaluate the superposed wavefunction on a uniform grid.

    Returns one WavefunctionSample per node; needs n_points >= 2.
    """
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError("n_points must be >= 2, got %d" % n_points)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy xmin < xmax")
    anchor = float(anchor)
    scan_lo = min(lo, anchor)
    scan_hi = max(hi, anchor)
    crossings = find_crossings(pot, energy, scan_lo, scan_hi)

    samples = []
    for x in np.linspace(lo, hi, n_points):
        ai_part, bi_part, ksq, arg = _basis_point(
            pot, energy, anchor, float(x), crossings
        )
        samples.append(
            WavefunctionSample(
                x=float(x),
                psi=complex(c_plus * ai_part + c_minus * bi_part),
                ksq=ksq,
                airy_arg=arg,
                psi_ai=ai_part,
                psi_bi=bi_part,
            )
        )
    return samples


def ode_residual(samples, floor_fraction=0.01):
    """Worst normalized defect |psi'' + k2 psi| over the interior samples.

    psi'' is a central difference, so the grid must be uniform (to 1e-9
    relative) and contain at least 5 samples. Each defect is normalized by
    max(|k2 psi|, floor), where the floor is ``floor_fraction`` of the
    grid-wide maximum of |k2 psi|; that keeps oscillation nodes from
    dominating the statistic. Meaningful away from turning points.
    """
    if len(samples) < 5:
        raise ValueError("need at least 5 samples, got %d" % len(samples))
    xs = np.array([s.x for s in samples])
    psi = np.array([s.psi for s in samples], dtype=complex)
    ksq = np.array([s.ksq for s in samples])
    dx = np.diff(xs)
    h = dx[0]
    if h <= 0.0 or np.any(np.abs(dx - h) > 1e-9 * abs(h)):
        raise ValueError("samples must lie on a uniform grid")

    d2 = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (h * h)
    defect = np.abs(d2 + ksq[1:-1] * psi[1:-1])
    signal = np.abs(ksq * psi)
    floor = floor_fraction * signal.max() + 1e-300
    denom = np.maximum(signal[1:-1], floor)
    return float((defect / denom).max())
