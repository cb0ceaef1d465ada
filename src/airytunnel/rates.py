"""Transmission estimates for a single-hump barrier.

Three approximations, in decreasing order of fidelity to the uniform
Airy construction:

* t_uniform    : T = 3 (Ai(u)/Bi(u))**2 * |alpha+/alpha-|**(1/3), with
                 u = s_half**(2/3). Valid through the barrier top, where
                 it tends to 3 (Ai(0)/Bi(0))**2 = 1.
* t_asymptotic : T = (3/4) |alpha+/alpha-|**(1/3) exp(-2 theta), the
                 large-action limit of the above.
* t_wkb        : T = exp(-2 theta), the plain WKB (Gamow) factor.

The Airy ratio is evaluated in log domain, so t_uniform survives barriers
thick enough that Bi(u)**2 alone would overflow (theta beyond ~350).

These are amplitude-ratio quantities, not flux-normalized transmission
coefficients; t_uniform is deliberately not clamped to <= 1 so its
behavior near the barrier top can be studied against the exact solver.

rate_report takes one energy or an array of them, and a sweep is one
batched pass that stays in arrays: the geometry of all its energies
comes from the batched geometry pass, their Airy ratios from one
log_bi_over_ai call and their exact values from one batched oracle pass.
An array of energies gives one RateReport of arrays, a scalar energy runs
as an array of size one and gives a RateReport of floats. The powers,
exponentials and logarithms of the rates stay math's, entry by entry, so
every entry has the bits of the one-energy report.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateTurningPointError
from .geometry import BarrierGeometry, _geometries, _outcome
from .oracle import OracleResult, _transmissions
from .specfun import log_bi_over_ai


@dataclass(frozen=True)
class RateReport:
    """All transmission estimates for one barrier at one energy, or, from
    an array of energies, arrays of them: each float field is then an
    array, geometry a BarrierGeometry of arrays and oracle an OracleResult
    of arrays. Compare array reports field by field."""

    energy: float
    geometry: BarrierGeometry
    airy_argument: float
    t_wkb: float
    t_asymptotic: float
    t_uniform: float
    t_exact: Optional[float] = None
    oracle: Optional[OracleResult] = None


def t_wkb(theta):
    """WKB transmission factor exp(-2 theta)."""
    theta = float(theta)
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError("theta must be >= 0, got %r" % theta)
    return math.exp(-2.0 * theta)


def t_asymptotic(theta, alpha_plus, alpha_minus):
    """Asymptotic rate (3/4) |alpha+/alpha-|**(1/3) exp(-2 theta)."""
    if alpha_plus == 0.0 or alpha_minus == 0.0:
        raise DegenerateTurningPointError("alpha = 0: barrier-top degeneracy")
    ratio = abs(alpha_plus / alpha_minus)
    return 0.75 * ratio ** (1.0 / 3.0) * t_wkb(theta)


def t_uniform(geom: BarrierGeometry):
    """Uniform Airy-ratio rate 3 (Ai(u)/Bi(u))**2 |alpha+/alpha-|**(1/3).

    u = s_half**(2/3); the square of the Airy ratio is computed as
    exp(-2 ln(Bi/Ai)) so thick barriers cannot overflow.
    """
    if geom.s_half <= 0.0:
        raise ValueError("geometry has non-positive half action %r" % geom.s_half)
    ratio = abs(geom.alpha_plus / geom.alpha_minus)
    log_ratio = log_bi_over_ai(geom.s_half ** (2.0 / 3.0))
    return math.exp(math.log(3.0) - 2.0 * log_ratio + math.log(ratio) / 3.0)


def _each(fn, x):
    """fn, a function of one float, at each entry of the 1D array x. numpy's
    exp, log and power can differ from math's in the last bit."""
    return np.array([fn(v) for v in x.tolist()], dtype=float)


def _estimates(geom):
    """(u, t_wkb, t_asymptotic, t_uniform) of a BarrierGeometry of arrays,
    entry by entry the values t_wkb, t_asymptotic and t_uniform give."""
    bad = np.flatnonzero(~((geom.theta >= 0.0) & np.isfinite(geom.theta)))
    if bad.size:
        t_wkb(geom.theta[bad[0]])  # raises t_wkb's ValueError
    ratio = np.abs(geom.alpha_plus / geom.alpha_minus)
    u = _each(lambda s: s ** (2.0 / 3.0), geom.s_half)
    wkb = _each(math.exp, -2.0 * geom.theta)
    asymptotic = 0.75 * _each(lambda r: r ** (1.0 / 3.0), ratio) * wkb
    log_t = math.log(3.0) - 2.0 * log_bi_over_ai(u) + _each(math.log, ratio) / 3.0
    return u, wkb, asymptotic, _each(math.exp, log_t)


def rate_report(pot, energy, window=None, with_oracle=False, oracle_slices=4000):
    """All transmission estimates at one energy or at each of an array of them.

    A scalar energy (a float or a 0-d array) gives a RateReport of floats,
    a 1D array or list one RateReport of arrays, one entry per energy; a
    2-D array raises ValueError. The geometry is one batched pass over all
    energies, t_uniform one log_bi_over_ai call and the exact
    transfer-matrix values, included when ``with_oracle`` is set, one
    batched oracle pass over the same window as the geometry, so the
    window must then reach far enough that V has decayed to its zero
    asymptote.

    Fails as a loop of one-energy reports would: with the error of the
    lowest energy whose geometry or oracle fails.
    """
    geom, exc = _geometries(pot, energy, window)
    u, wkb, asymptotic, uniform = _estimates(geom)
    oracle = t_exact = None
    if with_oracle:
        oracle, oracle_exc = _transmissions(pot, geom.energy, window, oracle_slices)
        if oracle_exc is not None:
            raise oracle_exc
        t_exact = oracle.t_exact
    report = RateReport(geom.energy, geom, u, wkb, asymptotic, uniform, t_exact, oracle)
    return _outcome(report, exc, energy)
