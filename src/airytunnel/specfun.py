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
  the nearest node, whose derivatives are computed once at import. This
  sidesteps the catastrophic cancellation that a single Maclaurin sum from
  u = 0 suffers for 4 < |u| <= 10 in double precision.

* ``u > SERIES_ASYMPTOTIC_SWITCH``: standard asymptotic expansions in
  zeta = (2/3) u^(3/2), truncated at the smallest term. At the switch
  point the smallest term is already below 1e-15 relative, so the two
  regimes agree to machine precision in the overlap window.

Oscillatory arguments are supported down to u = -10, which is all the
tunneling formulas and wavefunction plotting need.

``airy`` and ``log_bi_over_ai`` have one evaluation path each. They take a
scalar or a 1D array; a scalar runs as an array of size one. All grid-regime
entries of a call take their Taylor steps in one vectorised pass, and each
asymptotic entry runs singly.
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

# A quarter ulp of numbers in [0.5, 1). The asymptotic sums stay within
# 1 +- 0.01, and no term smaller than this changes a sum in [0.5, 2).
_QUARTER_ULP_OF_ONE_HALF = 2.0 ** -55

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
    """(y, y') at x0 + h from d = [y(x0), y'(x0), ...], elementwise for arrays.

    h^n / n! for n = 0 .. len(d) - 2 is one running product of
    [1, h/1, h/2, ...]. The y and y' terms stand side by side in a new
    C-ordered axis, so each sum is one reduction over the leading term
    axis that adds the terms in order n = 0, 1, ...; numpy would sum a
    lone 1D term axis pairwise, which rounds differently.
    """
    d = np.asarray(d)
    h = np.asarray(h)
    n = len(d) - 1
    hk = np.empty((n,) + (1,) * (d.ndim - h.ndim) + h.shape)
    hk[0] = 1.0
    np.divide(h, np.arange(1.0, n).reshape((-1,) + (1,) * (hk.ndim - 1)), out=hk[1:])
    np.multiply.accumulate(hk, axis=0, out=hk)
    terms = np.empty((n, 2) + d.shape[1:])
    terms[:, 0] = d[:-1]
    terms[:, 1] = d[1:]
    terms *= hk
    return np.add.reduce(terms, axis=0)


def _asymptotic_sums(zeta, max_terms=60):
    """Truncated asymptotic correction sums for (Ai, Bi, Ai', Bi').

    Coefficients u_k (values) and v_k (derivatives) by recurrence; the sums
    stop at the smallest term, the standard rule for divergent asymptotic
    series, or earlier once the terms no longer change any sum.
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
        tv = vk / zk
        # |u_k| < |v_k|, so once v_k's term rounds away from every sum, all
        # terms do, and the later ones are smaller still.
        if abs(t) >= prev or abs(tv) < _QUARTER_ULP_OF_ONE_HALF:
            break
        prev = abs(t)
        sign = -sign
        sa += sign * t
        sb += t
        sc += sign * tv
        sd += tv
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


def _march(x, y, yp, step, count):
    """(y, y') at x, x + step, ...: count nodes of a 30-term Taylor march from (x, y, y')."""
    nodes = []
    for _ in range(count):
        nodes.append((y, yp))
        y, yp = _taylor_sum(_taylor_derivs(x, y, yp, 30), step)
        x += step
    return nodes


def _build_seed_tables():
    n_nodes = int(round((_GRID_HI - _GRID_LO) / _GRID_STEP)) + 1
    above = int(round((_AI_CHAIN_START - _GRID_HI) / _GRID_STEP))
    origin = int(round((0.0 - _GRID_LO) / _GRID_STEP))
    # Ai: march down from the asymptotic anchor, which lies above the grid.
    ai0, _, aip0, _ = _airy_asymptotic(_AI_CHAIN_START)
    ai_down = _march(_AI_CHAIN_START, ai0, aip0, -_GRID_STEP, above + n_nodes)
    # Bi: march outward both ways from the exact origin values.
    bi_up = _march(0.0, BI_ZERO, BIP_ZERO, _GRID_STEP, n_nodes - origin)
    bi_down = _march(0.0, BI_ZERO, BIP_ZERO, -_GRID_STEP, origin + 1)
    return ai_down[above:][::-1], bi_down[::-1] + bi_up[1:]


_AI_SEEDS, _BI_SEEDS = _build_seed_tables()
_N_NODES = len(_AI_SEEDS)
#: Terms in a query's Taylor step from its node.
_GRID_ORDER = 24
# Taylor derivatives y^(n), n = 0 .. _GRID_ORDER + 1, of Ai and Bi at every
# node, computed once as one array indexed [n, Ai/Bi, node].
_DERIVS = np.ascontiguousarray(np.array([
    [_taylor_derivs(_GRID_LO + i * _GRID_STEP, y, yp, _GRID_ORDER) for y, yp in pair]
    for i, pair in enumerate(zip(_AI_SEEDS, _BI_SEEDS))
]).transpose(2, 1, 0))


def _airy_grid(u):
    """Grid-regime (Ai, Bi, Ai', Bi'): one short Taylor step from the nearest node.

    u is a float or a 1D float array; one Taylor sum runs on all entries at once.
    """
    idx = np.clip(np.rint((u - _GRID_LO) / _GRID_STEP).astype(int), 0, _N_NODES - 1)
    h = u - (_GRID_LO + idx * _GRID_STEP)
    (ai, bi), (ai_prime, bi_prime) = _taylor_sum(_DERIVS[:, :, idx], h)
    return ai, bi, ai_prime, bi_prime


def _arguments(u):
    """(u as a 1D float array, whether u was a scalar); ValueError beyond 1D."""
    scalar = np.ndim(u) == 0
    u = np.array(u, dtype=float, ndmin=1)
    if u.ndim > 1:
        raise ValueError("Airy arguments must be a scalar or 1D, got shape %s" % (u.shape,))
    return u, scalar


def airy(u):
    """Evaluate Ai(u), Bi(u), Ai'(u), Bi'(u).

    Relative accuracy is ~1e-13 or better away from zeros of the
    individual functions. Raises DomainError for u < -10 (outside the
    supported oscillatory range) and AiryOverflowError once exp((2/3)
    u^(3/2)) leaves double-precision range; the exception carries the
    offending exponent so callers can switch to log_bi_over_ai.

    A scalar u gives an AiryPair of floats, a 1D array an AiryPair of
    arrays of its shape; a DomainError then names the lowest argument.
    """
    u, scalar = _arguments(u)
    if not np.all(np.isfinite(u)):
        raise DomainError(
            "airy argument must be finite, got %r" % float(u[0]) if scalar
            else "airy arguments must be finite"
        )
    if u.size and u.min() < U_MIN_SUPPORTED - 1e-9:
        raise DomainError(
            "airy argument %g below supported range u >= %g" % (u.min(), U_MIN_SUPPORTED)
        )
    far = u > SERIES_ASYMPTOTIC_SWITCH
    vals = np.array(_airy_grid(np.where(far, 0.0, u)))
    for i, x in zip(np.flatnonzero(far).tolist(), u[far].tolist()):
        vals[:, i] = _airy_asymptotic(x)
    return AiryPair(*(vals[:, 0].tolist() if scalar else vals))


def log_bi_over_ai(u):
    """ln(Bi(u)/Ai(u)) for u >= 0, safe for arbitrarily large u.

    Below the regime switch this is the direct quotient; beyond, it is
    computed in log domain from the asymptotic expansions,
    ln 2 + (4/3) u^(3/2) + ln of the correction-series ratio, and never
    overflows.

    A scalar u gives a float, a 1D array an array of its shape. The
    logarithm stays math.log, entry by entry, as np.log can differ by an ulp.
    """
    u, scalar = _arguments(u)
    bad = np.flatnonzero(~(u >= 0.0))
    if bad.size:
        raise DomainError("log_bi_over_ai requires u >= 0, got %r" % float(u[bad[0]]))
    far = u > SERIES_ASYMPTOTIC_SWITCH
    ai, bi, _, _ = _airy_grid(np.where(far, 0.0, u))
    out = [math.log(q) for q in (bi / ai).tolist()]
    for i, x in zip(np.flatnonzero(far).tolist(), u[far].tolist()):
        zeta = (2.0 / 3.0) * x ** 1.5
        sa, sb, _, _ = _asymptotic_sums(zeta)
        out[i] = math.log(2.0) + 2.0 * zeta + math.log(sb / sa)
    return out[0] if scalar else np.array(out)
