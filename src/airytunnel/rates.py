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
as an array of size one and gives a RateReport of floats. Each rate
formula is written once, over arrays, and t_wkb, t_asymptotic and t_uniform
run a scalar as an array of size one: numpy's exp, log and powers give an
entry of an array the bits of a call of size one.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateTurningPointError, as_1d, outcome
from .geometry import BarrierGeometry, _geometries
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


def _estimates(theta, alpha_plus=None, alpha_minus=None, s_half=None):
    """(u, t_wkb, t_asymptotic, t_uniform) at each entry of 1D float arrays;
    without the alphas only t_wkb, without s_half neither u nor t_uniform
    (None). The squared Airy ratio is exp(-2 ln(Bi/Ai)), which cannot overflow."""
    bad = np.flatnonzero(~((theta >= 0.0) & np.isfinite(theta)))
    if bad.size:
        raise ValueError("theta must be >= 0, got %r" % theta[bad[0]].item())
    wkb = np.exp(-2.0 * theta)
    if alpha_plus is None:
        return None, wkb, None, None
    if np.any((alpha_plus == 0.0) | (alpha_minus == 0.0)):
        raise DegenerateTurningPointError("alpha = 0: barrier-top degeneracy")
    ratio = np.abs(alpha_plus / alpha_minus)
    asymptotic = 0.75 * ratio ** (1.0 / 3.0) * wkb
    if s_half is None:
        return None, wkb, asymptotic, None
    bad = np.flatnonzero(s_half <= 0.0)
    if bad.size:
        raise ValueError("geometry has non-positive half action %r" % s_half[bad[0]].item())
    u = s_half ** (2.0 / 3.0)
    uniform = np.exp(np.log(3.0) - 2.0 * log_bi_over_ai(u) + np.log(ratio) / 3.0)
    return u, wkb, asymptotic, uniform


def _rate(k, **args):
    """Rate k of _estimates at the named args: a float where every arg is a
    scalar, else an array. A scalar runs as an array of size one."""
    arrays, scalars = zip(*(as_1d(x, name) for name, x in args.items()))
    value = _estimates(*arrays)[k]
    return value.item() if all(scalars) else value


def t_wkb(theta):
    """WKB transmission factor exp(-2 theta)."""
    return _rate(1, theta=theta)


def t_asymptotic(theta, alpha_plus, alpha_minus):
    """Asymptotic rate (3/4) |alpha+/alpha-|**(1/3) exp(-2 theta)."""
    return _rate(2, theta=theta, alpha_plus=alpha_plus, alpha_minus=alpha_minus)


def t_uniform(geom: BarrierGeometry):
    """Uniform Airy-ratio rate 3 (Ai(u)/Bi(u))**2 |alpha+/alpha-|**(1/3),
    u = s_half**(2/3)."""
    return _rate(3, theta=geom.theta, alpha_plus=geom.alpha_plus,
                 alpha_minus=geom.alpha_minus, s_half=geom.s_half)


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
    estimates = _estimates(geom.theta, geom.alpha_plus, geom.alpha_minus, geom.s_half)
    oracle = t_exact = None
    if with_oracle:
        oracle, oracle_exc = _transmissions(pot, geom.energy, window, oracle_slices)
        if oracle_exc is not None:
            raise oracle_exc
        t_exact = oracle.t_exact
    report = RateReport(geom.energy, geom, *estimates, t_exact, oracle)
    return outcome(report, exc, energy)
