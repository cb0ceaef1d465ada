"""Airy functions Ai, Bi and first derivatives on the real line.

Self-contained double-precision kernel, no external special-function library. Two
evaluation regimes:

* ``u <= SERIES_ASYMPTOTIC_SWITCH``: Taylor series of the defining ODE
  y'' = u y, advanced node to node from numerically stable seeds. Ai and
  its derivative are seeded from the fully converged asymptotic expansion
  at u = 12 and propagated leftward (the direction in which Ai grows, so
  Bi contamination dies out); Bi is seeded at u = 0 from the exact
  Gamma-function values and propagated outward (rightward Bi grows, so Ai
  contamination dies out; leftward both solutions are oscillatory and the
  stepping is neutral). A query is evaluated by one short Taylor step from
  the nearest node, whose derivatives are computed once at import; an
  array of queries takes all its steps in one vectorised pass over the
  gathered nodes. This sidesteps the catastrophic cancellation that a
  single Maclaurin sum from u = 0 suffers for 4 < |u| <= 10 in double
  precision.

* ``u > SERIES_ASYMPTOTIC_SWITCH``: standard asymptotic expansions in
  zeta = (2/3) u^(3/2), truncated at the smallest term. At the switch
  point the smallest term is already below 1e-15 relative, so the two
  regimes agree to machine precision in the overlap window.

Oscillatory arguments are supported down to u = -10, which is all the
tunneling formulas and wavefunction plotting need.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AiryOverflowError, DomainError

# Gamma function at the two thirds, to 20 significant digits. Everything
# at u = 0 derives from these.
GAMMA_ONE_THIRD = 2.6789385347077476337
GAMMA_TWO_THIRDS = 1.3541179394264004170

#: Ai(0) = 1 / (9^(1/3) Gamma(2/3))
AI_ZERO = 1.0 / (9.0 ** (1.0 / 3.0) * GAMMA_TWO_THIRDS)
#: Ai'(0) = -1 / (3^(1/3) Gamma(1/3))
AIP_ZERO = -1.0 / (3.0 ** (1.0 / 3.0) * GAMMA_ONE_THIRD)
#: Bi(0) = 1 / (3^(1/6) Gamma(2/3)) = sqrt(3) Ai(0)
BI_ZERO = 1.0 / (3.0 ** (1.0 / 6.0) * GAMMA_TWO_THIRDS)
#: Bi'(0) = 3^(1/6) / Gamma(1/3) = sqrt(3) |Ai'(0)|
BIP_ZERO = 3.0 ** (1.0 / 6.0) / GAMMA_ONE_THIRD

#: Regime switch for positive u: ODE-Taylor grid below, asymptotics above.
SERIES_ASYMPTOTIC_SWITCH = 9.0

#: Oscillatory evaluation is range-limited; the rate formulas need u >= 0.
U_MIN_SUPPORTED = -10.0

# zeta ceiling before exp(zeta) leaves double range (with a little slack).
_ZETA_OVERFLOW = 705.0

_SQRT_PI = math.sqrt(math.pi)

_GRID_STEP = 0.25
_GRID_LO = -10.25  # one node of margin past U_MIN_SUPPORTED
_GRID_HI = 10.25   # overlap margin past the switch point
_AI_CHAIN_START = 12.0  # asymptotic seed for the Ai chain


@dataclass(frozen=True)
class AiryPair:
    """Ai, Bi and first derivatives at one argument, or arrays of them."""

    ai: float
    bi: float
    ai_prime: float
    bi_prime: float


def _taylor_derivs(x0, y, yp, order):
    """y^(n)(x0) for n = 0 .. order + 1, where y'' = x*y and (y, y') = (y, yp) at x0.

    Derivatives follow the recurrence y^(n+2)(x0) = x0 y^(n) + n y^(n-1),
    which at x0 = 0 reproduces the two standard Maclaurin auxiliary series.
    """
    d = [0.0] * (order + 2)
    d[0] = y
    d[1] = yp
    for n in range(order):
        d[n + 2] = x0 * d[n] + (n * d[n - 1] if n >= 1 else 0.0)
    return d


def _taylor_sum(d, h):
    """(y, y') at x0 + h from the derivatives d = [y(x0), y'(x0), ...].

    Elementwise when h and the d[n] are arrays: every entry then takes the
    same arithmetic steps as a float would.
    """
    sy = 0.0
    syp = 0.0
    hk = 1.0  # h^n / n!
    for n in range(len(d) - 1):
        sy += d[n] * hk
        syp += d[n + 1] * hk
        hk *= h / (n + 1)
    return sy, syp


def _taylor_advance(x0, y, yp, h, order=30):
    """Advance (y, y') of y'' = x*y from x0 by h via the local Taylor series."""
    return _taylor_sum(_taylor_derivs(x0, y, yp, order), h)


def _asymptotic_sums(zeta, max_terms=60):
    """Truncated asymptotic correction sums for (Ai, Bi, Ai', Bi').

    Coefficients u_k (values) and v_k (derivatives) by recurrence; the sums
    stop at the smallest term, the standard rule for divergent asymptotic
    series.
    """
    sa = sb = sc = sd = 1.0
    uk = 1.0
    sign = 1.0
    prev = 1.0
    zk = 1.0
    for k in range(1, max_terms):
        uk *= (6 * k - 1) * (6 * k - 3) * (6 * k - 5) / (216.0 * k * (2 * k - 1))
        vk = -uk * (6 * k + 1) / (6 * k - 1.0)
        zk *= zeta
        t = uk / zk
        if abs(t) >= prev:
            break
        prev = abs(t)
        sign = -sign
        sa += sign * t
        sb += t
        sc += sign * vk / zk
        sd += vk / zk
    return sa, sb, sc, sd


def _airy_asymptotic(u):
    """Asymptotic-regime evaluation, valid to ~1e-15 for u >= 8."""
    zeta = (2.0 / 3.0) * u ** 1.5
    if zeta > _ZETA_OVERFLOW:
        raise AiryOverflowError(zeta)
    sa, sb, sc, sd = _asymptotic_sums(zeta)
    q = u ** 0.25
    em = math.exp(-zeta)
    ep = math.exp(zeta)
    ai = em * sa / (2.0 * _SQRT_PI * q)
    ai_prime = -q * em * sc / (2.0 * _SQRT_PI)
    bi = ep * sb / (_SQRT_PI * q)
    bi_prime = q * ep * sd / _SQRT_PI
    return ai, bi, ai_prime, bi_prime


def _build_seed_tables():
    n_nodes = int(round((_GRID_HI - _GRID_LO) / _GRID_STEP)) + 1
    ai_seeds = [None] * n_nodes
    bi_seeds = [None] * n_nodes

    # Ai: march down from the asymptotic anchor.
    x = _AI_CHAIN_START
    ai0, _, aip0, _ = _airy_asymptotic(x)
    y, yp = ai0, aip0
    while x > _GRID_LO - 1e-9:
        idx = int(round((x - _GRID_LO) / _GRID_STEP))
        if 0 <= idx < n_nodes and abs(_GRID_LO + idx * _GRID_STEP - x) < 1e-9:
            ai_seeds[idx] = (y, yp)
        y, yp = _taylor_advance(x, y, yp, -_GRID_STEP)
        x -= _GRID_STEP

    # Bi: march outward from the exact origin values.
    i0 = int(round((0.0 - _GRID_LO) / _GRID_STEP))
    x, y, yp = 0.0, BI_ZERO, BIP_ZERO
    i = i0
    while i < n_nodes:
        bi_seeds[i] = (y, yp)
        y, yp = _taylor_advance(x, y, yp, _GRID_STEP)
        x += _GRID_STEP
        i += 1
    x, y, yp = 0.0, BI_ZERO, BIP_ZERO
    i = i0
    while i >= 0:
        bi_seeds[i] = (y, yp)
        y, yp = _taylor_advance(x, y, yp, -_GRID_STEP)
        x -= _GRID_STEP
        i -= 1

    return ai_seeds, bi_seeds


_AI_SEEDS, _BI_SEEDS = _build_seed_tables()
_N_NODES = len(_AI_SEEDS)
#: Terms in a query's Taylor step from its node.
_GRID_ORDER = 24
# Taylor derivatives y^(n), n = 0 .. _GRID_ORDER + 1, of Ai and Bi at every
# node, computed once: as (Ai list, Bi list) per node for float queries
# and as one array indexed [n, Ai/Bi, node] for array queries.
_NODE_DERIVS = [
    tuple(_taylor_derivs(_GRID_LO + i * _GRID_STEP, y, yp, _GRID_ORDER) for y, yp in pair)
    for i, pair in enumerate(zip(_AI_SEEDS, _BI_SEEDS))
]
_DERIVS = np.ascontiguousarray(np.array(_NODE_DERIVS).transpose(2, 1, 0))


def _airy_grid(u):
    """Grid-regime (Ai, Bi, Ai', Bi'): one short Taylor step from the nearest node.

    u is a float or a 1D float array. An array gathers each entry's node
    derivatives and runs the same Taylor sum on all entries at once, so
    each equals the float result bit for bit.
    """
    if isinstance(u, float):
        idx = min(max(int(round((u - _GRID_LO) / _GRID_STEP)), 0), _N_NODES - 1)
        h = u - (_GRID_LO + idx * _GRID_STEP)
        (ai, ai_prime), (bi, bi_prime) = (_taylor_sum(d, h) for d in _NODE_DERIVS[idx])
        return ai, bi, ai_prime, bi_prime
    idx = np.clip(np.rint((u - _GRID_LO) / _GRID_STEP).astype(int), 0, _N_NODES - 1)
    h = u - (_GRID_LO + idx * _GRID_STEP)
    (ai, bi), (ai_prime, bi_prime) = _taylor_sum(_DERIVS[:, :, idx], h)
    return ai, bi, ai_prime, bi_prime


def airy(u):
    """Evaluate Ai(u), Bi(u), Ai'(u), Bi'(u).

    Relative accuracy is ~1e-13 or better away from zeros of the
    individual functions. Raises DomainError for u < -10 (outside the
    supported oscillatory range) and AiryOverflowError once exp((2/3)
    u^(3/2)) leaves double-precision range; the exception carries the
    offending exponent so callers can switch to log_bi_over_ai.

    A 1D numpy array u gives an AiryPair of arrays, each entry equal to
    the scalar result; a DomainError then names the lowest argument.
    """
    if isinstance(u, np.ndarray) and u.ndim:
        return _airy_array(u.astype(float, copy=False))
    u = float(u)
    if math.isnan(u) or math.isinf(u):
        raise DomainError("airy argument must be finite, got %r" % u)
    if u < U_MIN_SUPPORTED - 1e-9:
        raise DomainError(
            "airy argument %g below supported range u >= %g" % (u, U_MIN_SUPPORTED)
        )
    if u > SERIES_ASYMPTOTIC_SWITCH:
        vals = _airy_asymptotic(u)
    else:
        vals = _airy_grid(u)
    return AiryPair(*vals)


def _airy_array(u):
    """airy() on a 1D array: grid entries in one pass, asymptotic ones singly."""
    if not np.all(np.isfinite(u)):
        raise DomainError("airy arguments must be finite")
    if u.size and u.min() < U_MIN_SUPPORTED - 1e-9:
        raise DomainError(
            "airy argument %g below supported range u >= %g" % (u.min(), U_MIN_SUPPORTED)
        )
    far = u > SERIES_ASYMPTOTIC_SWITCH
    vals = np.array(_airy_grid(np.where(far, 0.0, u)))
    for i in np.flatnonzero(far):
        vals[:, i] = _airy_asymptotic(float(u[i]))
    return AiryPair(*vals)


def log_bi_over_ai(u):
    """ln(Bi(u)/Ai(u)) for u >= 0, safe for arbitrarily large u.

    Below the regime switch this is the direct quotient; beyond, it is
    computed in log domain from the asymptotic expansions,
    ln 2 + (4/3) u^(3/2) + ln of the correction-series ratio, and never
    overflows.
    """
    u = float(u)
    if math.isnan(u) or u < 0.0:
        raise DomainError("log_bi_over_ai requires u >= 0, got %r" % u)
    if u <= SERIES_ASYMPTOTIC_SWITCH:
        ai, bi, _, _ = _airy_grid(u)
        return math.log(bi / ai)
    zeta = (2.0 / 3.0) * u ** 1.5
    sa, sb, _, _ = _asymptotic_sums(zeta)
    return math.log(2.0) + 2.0 * zeta + math.log(sb / sa)
