"""The uniform rate against the transmission of its own wavefunction.

The construction matches a solution anchored at the left turning point a
to one anchored at b, at the midpoint c that splits theta into equal
halves. Right of b the transmitted wave is psi_bi + i psi_ai anchored at
b, right-moving with flux 1/pi (DLMF 9.7.9-9.7.11). Left of c it is
A psi_ai + B psi_bi anchored at a, a pair whose Wronskian is 1/pi because
the uniform prefactor cancels (DLMF 9.2.7), so A and B are Wronskians at
c. Left of a the incident amplitude is (B + iA)/2, so the matched
transmission is T = 4/|B + iA|**2, flux-normalized, where the printed
t_uniform is an amplitude-ratio quantity.
"""

import math

import numpy as np
import pytest

import truth
from airytunnel import GaussianBarrier, Sech2Barrier, airy, analyze_barrier, psi_basis, rate_report


def basis_at_c(pot, energy):
    """((psi, psi') of psi_ai, of psi_bi) anchored at a, then the same
    anchored at b, all at the midpoint c of the barrier at the energy.

    The values are psi_basis's. With S = (3/2) action from the anchor,
    which is 3 theta/4 at c from either side, u = S**(2/3), kappa =
    sqrt(V - E) and the prefactor P = kappa**(-1/2) S**(1/6), the slopes
    are closed forms: dS/dx = +-(3/2) kappa (+ from a, - from b), so
    du/dx = +-kappa S**(-1/3) and P'/P = -V'/(4 kappa**2) +- kappa/(4 S).
    """
    geom = analyze_barrier(pot, energy)
    c = geom.c
    s = 0.75 * geom.theta
    pair = airy(s ** (2.0 / 3.0))
    kappa = math.sqrt(float(pot.gap(energy, np.array([c]))[0]))
    prefactor = kappa ** -0.5 * s ** (1.0 / 6.0)
    sides = []
    for anchor, sign in ((geom.a, 1.0), (geom.b, -1.0)):
        log_slope = -pot.v_prime(c) / (4.0 * kappa * kappa) + sign * kappa / (4.0 * s)
        du = sign * kappa * s ** (-1.0 / 3.0)
        sides.append(tuple(
            (psi, psi * log_slope + prefactor * prime * du)
            for psi, prime in zip(psi_basis(pot, energy, anchor, c), (pair.ai_prime, pair.bi_prime))
        ))
    return geom, sides


def matched_transmission(pot, energy):
    """T = 4/|B + iA|**2 from matching the two anchored bases at c."""
    _, ((ai_a, bi_a), (ai_b, bi_b)) = basis_at_c(pot, energy)

    def wronskian(f, g):
        return f[0] * g[1] - f[1] * g[0]

    transmitted = (bi_b[0] + 1j * ai_b[0], bi_b[1] + 1j * ai_b[1])
    amp_ai = math.pi * wronskian(transmitted, bi_a)
    amp_bi = math.pi * wronskian(ai_a, transmitted)
    return 4.0 / abs(amp_bi + 1j * amp_ai) ** 2


def test_closed_form_slopes_at_c_are_those_of_the_basis(tilted_barrier):
    # On an asymmetric table V'(c) = 0.027, so every term of the slope
    # counts. Central differences of psi_basis with h = 1e-4 (b - a) agree
    # to 1.3e-8 here.
    energy = 0.5
    geom, sides = basis_at_c(tilted_barrier, energy)
    assert abs(tilted_barrier.v_prime(geom.c)) > 0.02
    h = 1e-4 * (geom.b - geom.a)
    for anchor, pairs in zip((geom.a, geom.b), sides):
        ahead = psi_basis(tilted_barrier, energy, anchor, geom.c + h)
        behind = psi_basis(tilted_barrier, energy, anchor, geom.c - h)
        for (_, slope), up, down in zip(pairs, ahead, behind):
            assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-7, abs=0)


@pytest.mark.parametrize("pot, energy", [
    (Sech2Barrier(1.0, 40.0), 0.2),
    (Sech2Barrier(1.0, 40.0), 0.5),
    (GaussianBarrier(1.0, 32.0), 0.2),
    (GaussianBarrier(1.0, 32.0), 0.5),
])
def test_matched_transmission_is_four_thirds_of_the_uniform_rate_at_large_theta(pot, energy):
    # Ai/Bi -> exp(-2 zeta)/2, so 4 (Ai/Bi)**2 -> exp(-2 theta) while the
    # factor 3 of rates.t_uniform gives (3/4) exp(-2 theta): 1.33334-1.33340 here.
    report = rate_report(pot, energy)
    assert report.geometry.theta >= 25.0
    assert abs(matched_transmission(pot, energy) / report.t_uniform - 4.0 / 3.0) <= 1e-3


def test_matched_transmission_converges_on_poschl_teller():
    # Relative errors -29.4%, -13.0% and -3.4% as theta = 3.7, 9.2 and 36.8
    # at E = 0.5 on sech2(1, w), w = 4, 10 and 40, as WKB's converge.
    errors = [
        matched_transmission(Sech2Barrier(1.0, w), 0.5) / float(truth.poschl_teller(0.5, 1.0, w)) - 1.0
        for w in (4.0, 10.0, 40.0)
    ]
    assert errors == pytest.approx([-0.294, -0.130, -0.034], rel=0, abs=5e-4)
    assert abs(errors[0]) > abs(errors[1]) > abs(errors[2])
