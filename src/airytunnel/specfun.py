"""Airy functions Ai, Bi and first derivatives on the real line.

Self-contained double-precision kernel, no external special-function library. Three
evaluation regimes:

* ``u < OSCILLATORY_SWITCH``: the oscillatory asymptotic expansions in
  zeta = (2/3) z^(3/2), z = -u (DLMF 9.7.9, 9.7.11): cos(zeta - pi/4) and
  sin(zeta - pi/4) times the even and odd parts of the series that the
  u > 9 regime sums, with signs alternating in pairs, cut by the same
  stop rule. At the switch zeta is 21, and no sum keeps more than 21
  terms of the table. The phase zeta - pi/4
  carries the rounding of zeta, so the error relative to the envelope
  sqrt(Ai^2 + Bi^2) grows like eps zeta: that is the conditioning of
  Ai(-z) in z, not a loss of the expansion.

* ``OSCILLATORY_SWITCH <= u <= SERIES_ASYMPTOTIC_SWITCH``: Taylor series
  of the defining ODE y'' = u y, advanced node to node from numerically stable seeds. Ai and
  its derivative are seeded from the fully converged asymptotic expansion
  at u = 12 and propagated leftward (the direction in which Ai grows, so
  Bi contamination dies out); Bi is seeded at u = 0 from the exact
  Gamma-function values and propagated outward (rightward Bi grows, so Ai
  contamination dies out; leftward both solutions are oscillatory and the
  stepping is neutral). A query is evaluated by one short Taylor step from
  the nearest node, whose derivatives are computed once at import. This
  sidesteps the catastrophic cancellation that a single Maclaurin sum from
  u = 0 suffers for 4 < |u| <= 10 in double precision. The step sums the
  17 terms h^0 .. h^16: with |h| <= 1/8 no later term changes a double on
  the grid, while 16 terms already change bits, a margin of one term.

* ``u > SERIES_ASYMPTOTIC_SWITCH``: standard asymptotic expansions in
  zeta = (2/3) u^(3/2), truncated at the smallest term. At the switch
  point the smallest term is already below 1e-15 relative, so the two
  regimes agree to machine precision in the overlap window. No u > 9 keeps
  more than 30 terms, so a table of 31 coefficients decides every stop.

``airy`` and ``log_bi_over_ai`` have one evaluation path each. They take a
scalar or a 1D array; a scalar runs as an array of size one. All grid-regime
entries of a call take their Taylor steps in one vectorised pass, and the
asymptotic entries on each side sum their series in one pass along a term
axis; exp, log, cos, sin and powers are numpy's, which give an entry the
bits of a call of size one.
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
#: Bi(0) = 1 / (3^(1/6) Gamma(2/3)) = sqrt(3) Ai(0)
BI_ZERO = 1.0 / (3.0 ** (1.0 / 6.0) * GAMMA_TWO_THIRDS)
#: Bi'(0) = 3^(1/6) / Gamma(1/3) = sqrt(3) |Ai'(0)|
BIP_ZERO = 3.0 ** (1.0 / 6.0) / GAMMA_ONE_THIRD

#: Regime switch for positive u: ODE-Taylor grid below, asymptotics above.
SERIES_ASYMPTOTIC_SWITCH = 9.0

#: Regime switch for negative u: oscillatory asymptotics below, ODE-Taylor grid above.
OSCILLATORY_SWITCH = -10.0

# zeta ceiling before exp(zeta) leaves double range (with a little slack).
_ZETA_OVERFLOW = 705.0

_SQRT_PI = math.sqrt(math.pi)

# A quarter ulp of numbers in [0.5, 1). The asymptotic sums stay within
# 1 +- 0.01, and no term smaller than this changes a sum in [0.5, 2).
_QUARTER_ULP_OF_ONE_HALF = 2.0 ** -55

_GRID_STEP = 0.25
_GRID_LO = -10.25  # one node of margin past OSCILLATORY_SWITCH
_GRID_HI = 10.25   # overlap margin past the switch point
_AI_CHAIN_START = 12.0  # asymptotic seed for the Ai chain


@dataclass(frozen=True)
class AiryPair:
    """Ai, Bi and first derivatives at one argument, or arrays of them."""

    ai: float
    bi: float
    ai_prime: float
    bi_prime: float


def _arguments(u):
    """(u as a 1D float array, whether u was a scalar); ValueError beyond 1D."""
    scalar = np.ndim(u) == 0
    u = np.array(u, dtype=float, ndmin=1)
    if u.ndim > 1:
        raise ValueError("Airy arguments must be a scalar or 1D, got shape %s" % (u.shape,))
    return u, scalar


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


def _coefficients(max_terms):
    """u_k (values) and v_k (derivatives), k = 1 .. max_terms - 1, of the
    asymptotic series, by their recurrence."""
    uk, u, v = 1.0, [], []
    for k in range(1, max_terms):
        uk *= (6 * k - 1) * (6 * k - 3) * (6 * k - 5) / (216.0 * k * (2 * k - 1))
        u.append(uk)
        v.append(-uk * (6 * k + 1) / (6 * k - 1.0))
    return np.array(u)[:, None], np.array(v)[:, None]


#: u_k and v_k for k = 1 .. 31 (DLMF 9.7). No u > 9 keeps more than 30
#: terms, the most at u -> 9+, so the 31st coefficient only ever ends a sum:
#: every stop is the stop rule's, never the end of the table.
_U_K, _V_K = _coefficients(32)


def _asymptotic_terms(zeta):
    """(t, tv, stop) at each entry of the 1D array zeta: the terms
    u_k / zeta^k and v_k / zeta^k, k = 1 .. _U_K.size, as rows, and the
    number of them each entry keeps.

    Each entry stops at its smallest term, the standard rule for divergent
    asymptotic series, or earlier once the terms no longer change any sum.
    """
    # Past an entry's stop zeta^k may overflow to inf; its terms are then 0.
    with np.errstate(over="ignore"):
        zk = np.multiply.accumulate(np.broadcast_to(zeta, (_U_K.size, zeta.size)), axis=0)
    t = _U_K / zk  # > 0, as u_k > 0
    tv = _V_K / zk  # < 0, as v_k < 0
    # go[k]: term k + 1 is smaller than the one before and v_k's term still
    # changes a sum. |u_k| < |v_k|, so once v_k's term rounds away from
    # every sum, all terms do, and the later ones are smaller still.
    go = np.empty((_U_K.size + 1, zeta.size), dtype=bool)
    np.less(t[0], 1.0, out=go[0])
    np.less(t[1:], t[:-1], out=go[1:-1])
    go[:-1] &= tv <= -_QUARTER_ULP_OF_ONE_HALF
    go[-1] = False
    return t, tv, go.argmin(axis=0)


def _asymptotic_sums(zeta):
    """Truncated asymptotic correction sums for (Ai, Bi, Ai', Bi') at each
    entry of the 1D array zeta, as the rows of a (4, zeta.size) array.

    Each sum stops where _asymptotic_terms says. All entries run in one
    pass along a term axis: the powers zeta^k are one running product,
    every term is formed, and the terms past an entry's stop are set to 0.
    The sums add the terms in order k = 0, 1, ..., so each entry gets the
    bits of a loop over its terms.
    """
    t, tv, stop = _asymptotic_terms(zeta)
    n = int(stop.max(initial=0))
    keep = np.arange(n)[:, None] < stop
    terms = np.empty((n + 1, 4, zeta.size))
    terms[0] = 1.0
    np.multiply(t[:n], keep, out=terms[1:, 1])
    np.multiply(tv[:n], keep, out=terms[1:, 3])
    terms[1::2, 0::2] = -terms[1::2, 1::2]  # the alternating sums, sign (-1)^k
    terms[2::2, 0::2] = terms[2::2, 1::2]
    return np.add.reduce(terms, axis=0)


def _airy_asymptotic(u):
    """Asymptotic-regime (Ai, Bi, Ai', Bi'), valid to ~1e-15 for u >= 8, at
    each entry of the 1D array u; AiryOverflowError names the first entry
    past double range.
    """
    zeta = (2.0 / 3.0) * u ** 1.5
    over = np.flatnonzero(zeta > _ZETA_OVERFLOW)
    if over.size:
        raise AiryOverflowError(zeta[over[0]])
    sa, sb, sc, sd = _asymptotic_sums(zeta)
    q = u ** 0.25
    em = np.exp(-zeta)
    ep = np.exp(zeta)
    ai = em * sa / (2.0 * _SQRT_PI * q)
    ai_prime = -q * em * sc / (2.0 * _SQRT_PI)
    bi = ep * sb / (_SQRT_PI * q)
    bi_prime = q * ep * sd / _SQRT_PI
    return ai, bi, ai_prime, bi_prime


def _airy_oscillatory(z):
    """Oscillatory-regime (Ai, Bi, Ai', Bi') at -z for each entry of the 1D
    array z >= 10 (DLMF 9.7.9, 9.7.11)."""
    zeta = (2.0 / 3.0) * z ** 1.5
    t, tv, stop = _asymptotic_terms(zeta)
    n = int(stop.max(initial=0))
    keep = np.arange(n)[:, None] < stop
    terms = np.empty((n + 1, 2, zeta.size))
    terms[0] = 1.0
    np.multiply(t[:n], keep, out=terms[1:, 0])
    np.multiply(tv[:n], keep, out=terms[1:, 1])
    terms[2::4] *= -1.0  # signs + + - - + + ..., (-1)^(k // 2)
    terms[3::4] *= -1.0
    # the even and odd parts, each added in term order
    (ue, ve), (uo, vo) = np.add.reduce(terms[0::2], axis=0), np.add.reduce(terms[1::2], axis=0)
    q = z ** 0.25
    c, s = np.cos(zeta - math.pi / 4.0), np.sin(zeta - math.pi / 4.0)
    ai = (c * ue + s * uo) / (_SQRT_PI * q)
    bi = (c * uo - s * ue) / (_SQRT_PI * q)
    ai_prime = q * (s * ve - c * vo) / _SQRT_PI
    bi_prime = q * (c * ve + s * vo) / _SQRT_PI
    return ai, bi, ai_prime, bi_prime


#: A query's Taylor step from its node sums the terms h^0 .. h^_GRID_ORDER.
#: With |h| <= 1/8 no term past h^16 changes a double on the grid, and a
#: step to h^15 already changes bits: the margin is one term.
_GRID_ORDER = 16


def _march(x, y, yp, step, count):
    """y^(n), n = 0 .. _GRID_ORDER + 1, at x, x + step, ...: count nodes of
    a 30-term Taylor march from (x, y, y'), each node's derivatives cut to
    the terms a query's step sums."""
    nodes = []
    for _ in range(count):
        d = _taylor_derivs(x, y, yp, 30)
        nodes.append(d[:_GRID_ORDER + 2])
        y, yp = _taylor_sum(d, step)
        x += step
    return nodes


def _build_derivs():
    """Taylor derivatives of Ai and Bi at every node, indexed [n, Ai/Bi, node]."""
    n_nodes = int(round((_GRID_HI - _GRID_LO) / _GRID_STEP)) + 1
    above = int(round((_AI_CHAIN_START - _GRID_HI) / _GRID_STEP))
    origin = int(round((0.0 - _GRID_LO) / _GRID_STEP))
    # Ai: march down from the asymptotic anchor, which lies above the grid.
    ai0, _, aip0, _ = (v.item() for v in _airy_asymptotic(np.array([_AI_CHAIN_START])))
    ai_down = _march(_AI_CHAIN_START, ai0, aip0, -_GRID_STEP, above + n_nodes)
    # Bi: march outward both ways from the exact origin values.
    bi_up = _march(0.0, BI_ZERO, BIP_ZERO, _GRID_STEP, n_nodes - origin)
    bi_down = _march(0.0, BI_ZERO, BIP_ZERO, -_GRID_STEP, origin + 1)
    table = np.array([ai_down[above:][::-1], bi_down[::-1] + bi_up[1:]])
    return np.ascontiguousarray(table.transpose(2, 0, 1))


_DERIVS = _build_derivs()
_N_NODES = _DERIVS.shape[2]


def _airy_grid(u):
    """Grid-regime (Ai, Bi, Ai', Bi'): one short Taylor step from the nearest node.

    u is a float or a 1D float array; one Taylor sum runs on all entries at once.
    """
    idx = np.clip(np.rint((u - _GRID_LO) / _GRID_STEP).astype(int), 0, _N_NODES - 1)
    h = u - (_GRID_LO + idx * _GRID_STEP)
    (ai, bi), (ai_prime, bi_prime) = _taylor_sum(_DERIVS[:, :, idx], h)
    return ai, bi, ai_prime, bi_prime


def airy(u):
    """Evaluate Ai(u), Bi(u), Ai'(u), Bi'(u).

    Relative accuracy is ~1e-13 or better away from zeros of the
    individual functions for u >= -10; below, the error relative to the
    envelope sqrt(Ai^2 + Bi^2) grows like eps (2/3)|u|^(3/2), the
    conditioning of the phase. Raises DomainError for a u that is not
    finite and AiryOverflowError once exp((2/3) u^(3/2)) leaves
    double-precision range; the exception carries the offending exponent
    so callers can switch to log_bi_over_ai.

    A scalar u gives an AiryPair of floats, a 1D array an AiryPair of
    arrays of its shape.
    """
    u, scalar = _arguments(u)
    if not np.all(np.isfinite(u)):
        raise DomainError(
            "airy argument must be finite, got %r" % float(u[0]) if scalar
            else "airy arguments must be finite"
        )
    far = u > SERIES_ASYMPTOTIC_SWITCH
    deep = u < OSCILLATORY_SWITCH
    vals = np.array(_airy_grid(np.where(far | deep, 0.0, u)))
    if far.any():
        vals[:, far] = _airy_asymptotic(u[far])
    if deep.any():
        vals[:, deep] = _airy_oscillatory(-u[deep])
    return AiryPair(*(vals[:, 0].tolist() if scalar else vals))


def log_bi_over_ai(u):
    """ln(Bi(u)/Ai(u)) for u >= 0, safe for arbitrarily large u.

    Below the regime switch this is the direct quotient; beyond, it is
    computed in log domain from the asymptotic expansions,
    ln 2 + (4/3) u^(3/2) + ln of the correction-series ratio, and never
    overflows.

    A scalar u gives a float, a 1D array an array of its shape.
    """
    u, scalar = _arguments(u)
    bad = np.flatnonzero(~(u >= 0.0))
    if bad.size:
        raise DomainError("log_bi_over_ai requires u >= 0, got %r" % float(u[bad[0]]))
    far = u > SERIES_ASYMPTOTIC_SWITCH
    ai, bi, _, _ = _airy_grid(np.where(far, 0.0, u))
    out = np.log(bi / ai)
    if far.any():
        zeta = (2.0 / 3.0) * u[far] ** 1.5
        sa, sb, _, _ = _asymptotic_sums(zeta)
        out[far] = math.log(2.0) + 2.0 * zeta + np.log(sb / sa)
    return float(out[0]) if scalar else out
