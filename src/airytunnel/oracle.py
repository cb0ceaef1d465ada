"""Exact transmission by transfer matrices over piecewise-constant slices.

Independent of every approximation in this package: the domain is cut
into uniform slices and V is frozen at each slice midpoint. Across a
slice of width d where k2 = E - V is constant, (psi, psi') is carried by
the real matrix (Jonsson & Eng, IEEE J. Quantum Electron. 26, 2025
(1990))

    [[cos kd, sin(kd)/k], [-k sin kd, cos kd]]           k2 = k**2 > 0
    [[cosh kd, sinh(kd)/k], [k sinh kd, cosh kd]]        k2 = -k**2 < 0
    [[1, d], [0, 1]]                                     k2 = 0

Every slice matrix has det 1, and so has their product P. In the leads,
on the common zero asymptote, psi = A exp(ikx) + B exp(-ikx) with
k = sqrt(E); P converts once, at the end, to the matrix M that maps the
left amplitudes to the right ones:

    M22 = (p11 + p22 + i (p21/k - k p12)) / 2
    M21 = (p11 - p22 + i (p21/k + k p12)) / 2

|M22|**2 - |M21|**2 = det P = 1, and

    T = 1 / |M22|**2        R = |M21 / M22|**2        T + R = 1.

Piecewise-constant midpoint sampling makes the error second order in the
slice width, so one slice doubling supports a Richardson extrapolation.

Under thick barriers the entries grow like exp(kappa * L). The slice
matrices are multiplied by a pairwise tree product in ceil(log2 n)
levels. Whenever an energy's entries pass 2**500, each of its partial
products is rescaled by an exact power of two, whose exponents are summed
into its log scale; a product of two matrices below 2**500 cannot
overflow. T is reassembled in log domain, so the solver never overflows
(it underflows to 0 once the true T drops below double-precision range).

The energies of a sweep share the slices: V at the slice midpoints is
sampled once per slice count, and the energies go through the tree
product in blocks, as (2, 2, energies, slices) arrays, so each level's
numpy calls serve a whole block. A block holds at most BLOCK energies
times slices (4 energies at 4000 slices, 2 at 8000), which bounds its
memory however many energies a sweep has. Each energy takes the same
arithmetic steps as it would alone.

Transfer matrices were chosen over shooting integration because the
rescaled product is unconditionally stable in the evanescent region.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoteMismatchError, DomainError, TunnelError, energy_error

#: Both domain endpoints must be within this of V = 0.
ASYMPTOTE_TOLERANCE = 1e-9

#: Energies times slices in one tree product. Its largest array then
#: stays within 512 KiB, so that freeing it does not raise the allocator's
#: mmap threshold to where the process keeps more freed heap resident.
BLOCK = 16384

#: An energy's partial products are rescaled once one of its entries passes this.
_BIG = 2.0 ** 500


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


def _slice_matrices(q, d):
    """(psi, psi') transfer matrices across slices of width d where V - E = q.

    Returns an array of shape (2, 2) + q.shape. An entry too large for
    double range is inf.
    """
    m = np.empty((2, 2) + q.shape)
    (c, sk), (qsk, c2) = m
    # k and kd live in the slots of the entries written last.
    k = np.sqrt(np.abs(q, out=c2), out=c2)
    kd = np.multiply(k, d, out=qsk)
    wave = q < 0.0
    flat = ~wave  # evanescent, or k = 0 where cosh and sinh give 1 and 0
    with np.errstate(over="ignore"):
        np.cos(kd, out=c, where=wave)
        np.cosh(kd, out=c, where=flat)
        np.sin(kd, out=kd, where=wave)
        np.sinh(kd, out=kd, where=flat)
        sk[...] = d  # sin(kd)/k -> d as k -> 0
        np.divide(kd, k, out=sk, where=k > 0.0)
        np.multiply(q, sk, out=qsk)  # -k sin kd, or k sinh kd
    c2[...] = c
    return m


def _rescale(m, exponent):
    """Rescale the partial products of every energy with an entry above _BIG.

    Each product of such an energy is divided by the power of two that
    brings its largest entry into [0.5, 1), and the exponents are added to
    that energy's entry of exponent. Returns the largest entry left.
    """
    top = np.abs(m).max(axis=(0, 1, 3))
    big = np.flatnonzero(top > _BIG)
    if big.size:
        _, e = np.frexp(np.abs(m[:, :, big]).max(axis=(0, 1)))
        m[:, :, big] *= np.ldexp(1.0, -e)
        exponent[big] += e.sum(axis=1)
        top[big] = 1.0
    return float(top.max())


def _tree_product(m, top):
    """Ordered products of the matrices in ``m``, one per energy.

    m has shape (2, 2, energies, n): each energy's matrices A_0, A_1, ...,
    A_{n-1} along the last axis, no entry larger than top. Multiplies
    neighbours pairwise, later ones on the left, carrying an odd last
    matrix up a level. Returns (p, exponent): each energy's
    A_{n-1} ... A_1 A_0 is p * 2**exponent.

    An entry of a product is at most twice the product of the largest
    entries of its factors; the entries are only searched for one above
    _BIG once that bound passes it, which gives each energy the same
    rescaling steps whatever else shares its block.
    """
    exponent = np.zeros(m.shape[2], dtype=np.int64)
    while True:
        if top > _BIG:
            top = _rescale(m, exponent)
        n = m.shape[-1]
        if n == 1:
            return m[..., 0], exponent
        h = n // 2
        left, right = m[..., 1:2 * h:2], m[..., 0:2 * h:2]
        out = np.empty(m.shape[:-1] + (n - h,))
        # (LR)_ij = L_i0 R_0j + L_i1 R_1j, all four entries at once
        prod = np.multiply(left[:, :1], right[:1], out=out[..., :h])
        prod += left[:, 1:] * right[1:]
        if n % 2:
            out[..., h] = m[..., n - 1]
        m = out
        top = 2.0 * top * top


def _transfer_once(v_mid, energies, x_left, x_right, n):
    """One transfer-matrix pass at n slices for a block of energies.

    v_mid holds V at the n slice midpoints of [x_left, x_right]. Returns
    arrays (T, R), nan for an energy with a slice too thick to represent.
    """
    d = (x_right - x_left) / n
    m = _slice_matrices(v_mid - energies[:, None], d)
    top = np.maximum(m.max(axis=(0, 1, 3)), -m.min(axis=(0, 1, 3)))
    ok = np.isfinite(top)
    # An energy that overflowed runs as the identity, so that its inf and
    # nan entries cannot reach the rescaling test of the others.
    m[:, :, ~ok] = np.eye(2)[:, :, None, None]
    p, exponent = _tree_product(m, float(top[ok].max(initial=1.0)))
    (p11, p12), (p21, p22) = p
    k = np.sqrt(energies)
    m22 = np.hypot(p11 + p22, p21 / k - k * p12)  # 2 |M22| 2**-exponent
    m21 = np.hypot(p11 - p22, p21 / k + k * p12)
    # det M = 1, so t = 1/M22.
    log_t_sq = 2.0 * (math.log(2.0) * (1 - exponent) - np.log(m22))
    t = np.where(log_t_sq > -745.0, np.exp(log_t_sq), 0.0)
    r = (m21 / m22) ** 2
    t[~ok] = r[~ok] = np.nan
    return t, r


def _passes(pot, energies, domain, slices, out):
    """Fill the empty entries of out with each energy's OracleResult or error.

    Two passes, at slices and 2 * slices; an energy whose coarse pass fails
    takes no part in the fine one.
    """
    slices = int(slices)
    if slices < 100:
        raise ValueError("at least 100 slices required, got %d" % slices)
    x_left, x_right = pot.window(domain)
    v_l = pot.v(x_left)
    v_r = pot.v(x_right)
    if abs(v_l) > ASYMPTOTE_TOLERANCE or abs(v_r) > ASYMPTOTE_TOLERANCE:
        raise AsymptoteMismatchError(
            "V(%g)=%g, V(%g)=%g not within %g of the zero asymptote; widen the domain"
            % (x_left, v_l, x_right, v_r, ASYMPTOTE_TOLERANCE)
        )

    at = np.array([i for i, r in enumerate(out) if r is None], dtype=int)
    passes = []
    for n in (slices, 2 * slices):
        d = (x_right - x_left) / n
        v_mid = pot.v(x_left + (np.arange(n) + 0.5) * d)
        t, r = np.full(energies.size, np.nan), np.full(energies.size, np.nan)
        per_block = max(1, BLOCK // n)
        for i in range(0, at.size, per_block):
            block = at[i:i + per_block]
            t[block], r[block] = _transfer_once(v_mid, energies[block], x_left, x_right, n)
        for i in at[np.isnan(t[at])].tolist():
            out[i] = ValueError(
                "%d slices on [%g, %g] are too coarse for this barrier at E=%g"
                % (n, x_left, x_right, energies[i])
            )
        at = at[~np.isnan(t[at])]
        passes.append((t.tolist(), r.tolist()))
    (t_coarse, _), (t_fine, r_fine) = passes
    for i in at.tolist():
        out[i] = OracleResult(
            t_exact=t_fine[i],
            r_exact=r_fine[i],
            slices=2 * slices,
            flux_defect=abs(t_fine[i] + r_fine[i] - 1.0),
            richardson_estimate=(4.0 * t_fine[i] - t_coarse[i]) / 3.0,
        )


def exact_transmissions(pot, energies, domain, slices=4000):
    """Flux-normalized transmission of a plane wave at each of an array of energies.

    Returns one entry per energy: its OracleResult, or the exception that
    exact_transmission raises at that energy. An error of the call as a
    whole (bad slices or domain, V off the zero asymptote at a domain end)
    is the error of every energy that had not failed before it.
    """
    energies = np.array(energies, dtype=float).reshape(-1)
    out = [energy_error(e) for e in energies.tolist()]
    if None in out:
        try:
            _passes(pot, energies, domain, slices, out)
        except (TunnelError, ValueError, ArithmeticError) as exc:
            return [exc if r is None else r for r in out]
    return out


def exact_transmission(pot, energy, domain, slices=4000):
    """Flux-normalized transmission of a plane wave through ``pot``.

    Runs at ``slices`` and ``2 * slices``; reports the fine-grid values
    together with the Richardson extrapolation of the pair. The potential
    must have decayed to the common zero asymptote at both domain ends
    (checked, not assumed), which keeps T free of lead-wavenumber factors.
    """
    (result,) = exact_transmissions(pot, [energy], domain, slices)
    if isinstance(result, Exception):
        raise result
    return result
