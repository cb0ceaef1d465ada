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

A sweep is one batched pass (rate_reports): the geometry of all its
energies comes from geometry.analyze_barriers, their Airy ratios from one
log_bi_over_ai call and their exact values from one
oracle.exact_transmissions call. rate_report is the one-energy case.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateTurningPointError
from .geometry import BarrierGeometry, analyze_barriers
from .oracle import OracleResult, exact_transmissions
from .specfun import log_bi_over_ai


@dataclass(frozen=True)
class RateReport:
    """All transmission estimates for one barrier at one energy."""

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
    return _uniform_rate(geom, log_bi_over_ai(geom.s_half ** (2.0 / 3.0)))


def _uniform_rate(geom, log_ratio):
    """t_uniform of geom, given log_ratio = ln(Bi(u)/Ai(u)) at its u."""
    ratio = abs(geom.alpha_plus / geom.alpha_minus)
    log_t = math.log(3.0) - 2.0 * log_ratio + math.log(ratio) / 3.0
    return math.exp(log_t)


def rate_reports(pot, energies, window=None, with_oracle=False, oracle_slices=4000):
    """Assemble all transmission estimates at each of an array of energies.

    The geometry is one batched pass over all energies, t_uniform one
    log_bi_over_ai call and the exact transfer-matrix values, included
    when ``with_oracle`` is set, one exact_transmissions call over the
    same window as the geometry scan, so the window must then reach far
    enough that V has decayed to its zero asymptote.

    Fails as a loop of single-energy reports would: with the error of the
    lowest energy whose geometry or oracle fails.
    """
    results = analyze_barriers(pot, energies, window)
    failed = next((i for i, r in enumerate(results) if isinstance(r, Exception)), None)
    geoms = results[:failed]
    u = [geom.s_half ** (2.0 / 3.0) for geom in geoms]
    reports = [
        RateReport(
            energy=geom.energy,
            geometry=geom,
            airy_argument=u_i,
            t_wkb=t_wkb(geom.theta),
            t_asymptotic=t_asymptotic(geom.theta, geom.alpha_plus, geom.alpha_minus),
            t_uniform=_uniform_rate(geom, log_ratio),
        )
        for geom, u_i, log_ratio in zip(geoms, u, log_bi_over_ai(np.array(u)).tolist())
    ]
    if with_oracle:
        oracle = exact_transmissions(
            pot, [geom.energy for geom in geoms], window, slices=oracle_slices
        )
        for i, result in enumerate(oracle):
            if isinstance(result, Exception):
                raise result
            reports[i] = replace(reports[i], t_exact=result.t_exact, oracle=result)
    if failed is not None:
        raise results[failed]
    return reports


def rate_report(pot, energy, window=None, with_oracle=False, oracle_slices=4000):
    """Assemble all transmission estimates at one energy.

    The exact transfer-matrix value is included when ``with_oracle`` is
    set; it uses the same window as the geometry scan, so the window must
    then reach far enough that V has decayed to its zero asymptote.
    """
    return rate_reports(pot, [energy], window, with_oracle, oracle_slices)[0]
