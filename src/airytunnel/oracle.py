"""Exact transmission by transfer matrices over piecewise-constant slices.

Independent of every approximation in this package: the domain is cut
into uniform slices, V is frozen at each slice midpoint, and the plane
wave amplitudes are propagated with 2x2 interface matrices. For a real
potential with equal zero asymptotes on both sides the product matrix M
maps left amplitudes to right amplitudes with det M = 1, giving

    T = 1 / |M22|**2        R = |M21 / M22|**2        T + R = 1.

Piecewise-constant midpoint sampling makes the error second order in the
slice width, so one slice doubling supports a Richardson extrapolation.
Under thick barriers the matrix entries grow like exp(kappa * L). The
n + 1 interface matrices are built as arrays and multiplied by a pairwise
tree product in ceil(log2(n + 1)) levels; after each level every partial
product is rescaled by an exact power of two, whose exponents are summed
into the log scale. The final T is reassembled in log domain, so the
solver never overflows (it underflows to 0 once the true T drops below
double-precision range).

Transfer matrices were chosen over shooting integration because the
rescaled product is unconditionally stable in the evanescent region.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoteMismatchError, DomainError

#: Both domain endpoints must be within this of V = 0.
ASYMPTOTE_TOLERANCE = 1e-9

#: Slice wavenumbers below this are raised to it. Where E equals V over a
#: run of slices the exact k = 0 would divide the interface matrices by
#: zero; at 1e-6 the linear-in-x limit is reproduced to ~1e-10, while a
#: smaller floor loses more to the cancellation between 1 + q and 1 - q.
_K_FLOOR = 1e-6

_IDENTITY = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)


@dataclass(frozen=True)
class OracleResult:
    """Converged transmission with convergence diagnostics."""

    t_exact: float
    r_exact: float
    slices: int
    flux_defect: float
    richardson_estimate: float


def square_barrier_closed_form(v0, length, energy):
    """Textbook transmission through a rectangular barrier, 0 < E < V0.

    T = 1 / (1 + V0**2 sinh(kappa L)**2 / (4 E (V0 - E))), kappa = sqrt(V0 - E).
    """
    v0 = float(v0)
    length = float(length)
    energy = float(energy)
    if v0 <= 0.0 or length < 0.0:
        raise ValueError("need v0 > 0 and length >= 0")
    if not 0.0 < energy < v0:
        raise DomainError("closed form requires 0 < E < V0, got E=%g, V0=%g" % (energy, v0))
    kappa = math.sqrt(v0 - energy)
    s = math.sinh(kappa * length)
    return 1.0 / (1.0 + v0 ** 2 * s * s / (4.0 * energy * (v0 - energy)))


def _interface_matrices(energy, v_mid, d):
    """Interface matrices of slices of width d at potentials v_mid.

    Returns the n + 1 matrices of n slices as rows 11, 12, 21, 22. Matrix j
    carries the amplitudes from region j into region j + 1 after the phase
    accumulated across region j; regions 0 and n + 1 are the leads, and the
    left lead contributes no phase. Built apart from the product so that
    its full-length temporaries are freed before it runs.
    """
    k = np.empty(len(v_mid) + 2, dtype=complex)
    k[0] = k[-1] = math.sqrt(energy)
    k[1:-1] = energy - v_mid
    # The principal complex sqrt gives Im k >= 0 for E - V < 0, matching
    # the sign convention used for the forbidden region.
    k_slices = np.sqrt(k[1:-1], out=k[1:-1])
    k_slices[np.abs(k_slices) < _K_FLOOR] = _K_FLOOR

    k_prev, k_next = k[:-1], k[1:]
    q = k_prev / k_next
    hp = 0.5 * (1.0 + q)
    hm = 0.5 * (1.0 - q)
    m = np.empty((4, len(k) - 1), dtype=complex)
    np.exp(1j * d * k_prev, out=m[0])
    m[0, 0] = 1.0
    np.divide(1.0, m[0], out=m[1])
    m[2] = m[0]
    m[3] = m[1]
    m[0] *= hp
    m[1] *= hm
    m[2] *= hm
    m[3] *= hp
    return m


def _tree_product(m):
    """Product A_n ... A_1 A_0 of the matrices in ``m`` as (M21, M22, exponent).

    Multiplies neighbours pairwise, later interfaces on the left, padding
    an odd count with the identity. Each level rescales every product by an
    exact power of two, so no entry can overflow and the rescaling rounds
    nothing; the true product is (M21, M22) * 2**exponent.
    """
    exponent = 0
    while m.shape[1] > 1:
        if m.shape[1] % 2:
            m = np.concatenate([m, _IDENTITY], axis=1)
        l11, l12, l21, l22 = m[:, 1::2]
        r11, r12, r21, r22 = m[:, 0::2]
        m = np.empty((4, m.shape[1] // 2), dtype=complex)
        np.multiply(l11, r11, out=m[0])
        m[0] += l12 * r21
        np.multiply(l11, r12, out=m[1])
        m[1] += l12 * r22
        np.multiply(l21, r11, out=m[2])
        m[2] += l22 * r21
        np.multiply(l21, r12, out=m[3])
        m[3] += l22 * r22
        # Largest |Re| or |Im| over the four entries of each product.
        s = np.abs(m.view(float)).max(axis=0)
        _, e = np.frexp(np.maximum(s[0::2], s[1::2]))
        m *= np.ldexp(1.0, -e)
        exponent += int(e.sum())
    return complex(m[2, 0]), complex(m[3, 0]), exponent


def _transfer_once(pot, energy, x_left, x_right, n):
    """One transfer-matrix pass at n slices; returns (T, R)."""
    d = (x_right - x_left) / n
    mids = x_left + (np.arange(n) + 0.5) * d
    v_mid = np.asarray(pot.v(mids), dtype=float)
    # A slice so thick that exp(Im k * d) leaves double range cannot be
    # represented; report it rather than return NaN.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            m21, m22, exponent = _tree_product(_interface_matrices(energy, v_mid, d))
    except FloatingPointError as exc:
        raise ValueError(
            "%d slices on [%g, %g] are too coarse for this barrier: %s"
            % (n, x_left, x_right, exc)
        ) from exc
    log_scale = exponent * math.log(2.0)

    # det M telescopes to k_lead/k_lead = 1, so t = 1/M22 up to the scale.
    log_t_sq = -2.0 * (log_scale + math.log(abs(m22)))
    t_coeff = math.exp(log_t_sq) if log_t_sq > -745.0 else 0.0
    r_coeff = abs(m21 / m22) ** 2
    return t_coeff, r_coeff


def exact_transmission(pot, energy, domain, slices=4000):
    """Flux-normalized transmission of a plane wave through ``pot``.

    Runs at ``slices`` and ``2 * slices``; reports the fine-grid values
    together with the Richardson extrapolation of the pair. The potential
    must have decayed to the common zero asymptote at both domain ends
    (checked, not assumed), which keeps T free of lead-wavenumber factors.
    """
    energy = float(energy)
    if energy <= 0.0 or not math.isfinite(energy):
        raise DomainError("oracle requires E > 0, got %r" % energy)
    slices = int(slices)
    if slices < 100:
        raise ValueError("at least 100 slices required, got %d" % slices)
    x_left, x_right = float(domain[0]), float(domain[1])
    if not x_left < x_right:
        raise ValueError("domain must satisfy xmin < xmax")
    v_l = float(pot.v(x_left))
    v_r = float(pot.v(x_right))
    if abs(v_l) > ASYMPTOTE_TOLERANCE or abs(v_r) > ASYMPTOTE_TOLERANCE:
        raise AsymptoteMismatchError(
            "V(%g)=%g, V(%g)=%g not within %g of the zero asymptote; widen the domain"
            % (x_left, v_l, x_right, v_r, ASYMPTOTE_TOLERANCE)
        )

    t_coarse, _ = _transfer_once(pot, energy, x_left, x_right, slices)
    t_fine, r_fine = _transfer_once(pot, energy, x_left, x_right, 2 * slices)
    richardson = (4.0 * t_fine - t_coarse) / 3.0
    return OracleResult(
        t_exact=t_fine,
        r_exact=r_fine,
        slices=2 * slices,
        flux_defect=abs(t_fine + r_fine - 1.0),
        richardson_estimate=richardson,
    )
