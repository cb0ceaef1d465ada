"""Transfer-matrix solver: calibration, flux conservation, convergence."""

import cmath
import math

import numpy as np
import pytest

from airytunnel import (
    AsymptoteMismatchError,
    DomainError,
    GaussianBarrier,
    ParabolicBarrier,
    Sech2Barrier,
    SquareBarrier,
    TabulatedPotential,
    exact_transmission,
    square_barrier_closed_form,
)
from airytunnel.oracle import _transfer_once
from conftest import tilted_gaussian_samples


def reference_transfer_loop(pot, energy, x_left, x_right, n):
    """Slice-by-slice product of the interface matrices, renormalized every
    64 slices: the scalar form of ``_transfer_once``, kept as its reference."""
    d = (x_right - x_left) / n
    mids = x_left + (np.arange(n) + 0.5) * d
    v_mid = np.asarray(pot.v(mids), dtype=float)

    k_lead = cmath.sqrt(complex(energy))
    ks = [cmath.sqrt(complex(energy - v)) for v in v_mid]
    ks.append(k_lead)

    m11, m12, m21, m22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    log_scale = 0.0
    k_prev = k_lead
    width_prev = 0.0  # the left lead contributes no phase
    for j, k_next in enumerate(ks):
        ep = cmath.exp(1j * k_prev * width_prev)
        q = k_prev / k_next
        a11 = 0.5 * (1.0 + q) * ep
        a12 = 0.5 * (1.0 - q) / ep
        a21 = 0.5 * (1.0 - q) * ep
        a22 = 0.5 * (1.0 + q) / ep
        m11, m12, m21, m22 = (
            a11 * m11 + a12 * m21,
            a11 * m12 + a12 * m22,
            a21 * m11 + a22 * m21,
            a21 * m12 + a22 * m22,
        )
        if j % 64 == 63:
            s = max(abs(m11), abs(m12), abs(m21), abs(m22))
            m11 /= s
            m12 /= s
            m21 /= s
            m22 /= s
            log_scale += math.log(s)
        k_prev = k_next
        width_prev = d

    log_t_sq = -2.0 * (log_scale + math.log(abs(m22)))
    t_coeff = math.exp(log_t_sq) if log_t_sq > -745.0 else 0.0
    return t_coeff, abs(m21 / m22) ** 2


def poschl_teller_transmission(v0, w, energy):
    """Independent closed form for the sech2 barrier (4 v0 w^2 > 1)."""
    k = math.sqrt(energy)
    s = math.sinh(math.pi * k * w) ** 2
    c = math.cosh(0.5 * math.pi * math.sqrt(4.0 * v0 * w * w - 1.0)) ** 2
    return s / (s + c)


def test_square_closed_form_values():
    assert square_barrier_closed_form(1.0, 2.0, 0.5) == pytest.approx(
        0.21077109396613054, rel=1e-12
    )
    assert square_barrier_closed_form(1.0, 0.0, 0.5) == 1.0
    assert square_barrier_closed_form(1.0, 1e-9, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert square_barrier_closed_form(1.0, 2.0, 1e-6) < 1e-4
    with pytest.raises(DomainError):
        square_barrier_closed_form(1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        square_barrier_closed_form(1.0, 2.0, 1.5)


def test_calibration_against_square_closed_form():
    # domain chosen so the barrier edges fall exactly on slice boundaries
    pot = SquareBarrier(1.0, 2.0)
    result = exact_transmission(pot, 0.5, (-5.0, 5.0), slices=10000)
    reference = square_barrier_closed_form(1.0, 2.0, 0.5)
    assert result.t_exact == pytest.approx(reference, rel=1e-6)
    assert result.flux_defect <= 1e-10
    assert 0.0 <= result.t_exact <= 1.0


def test_sech2_converged_run():
    result = exact_transmission(Sech2Barrier(1.0, 1.0), 0.5, (-12.0, 12.0), slices=10000)
    assert result.flux_defect <= 1e-10
    assert result.slices == 20000
    reference = poschl_teller_transmission(1.0, 1.0, 0.5)
    assert result.t_exact == pytest.approx(reference, rel=1e-6)
    assert result.richardson_estimate == pytest.approx(reference, rel=1e-8)
    assert result.t_exact + result.r_exact == pytest.approx(1.0, abs=1e-10)


def test_second_order_grid_convergence():
    pot = Sech2Barrier(1.0, 1.0)
    ts = {n: _transfer_once(pot, 0.5, -12.0, 12.0, n)[0] for n in (500, 1000, 2000, 4000)}
    d1 = abs(ts[1000] - ts[500])
    d2 = abs(ts[2000] - ts[1000])
    d3 = abs(ts[4000] - ts[2000])
    assert d1 / d2 >= 4.0
    assert d2 / d3 >= 4.0


def test_domain_widening_changes_nothing():
    # matched slice width in both domains so only the tail truncation differs
    pot = Sech2Barrier(1.0, 1.0)
    t_narrow = exact_transmission(pot, 0.5, (-12.0, 12.0), slices=12000).t_exact
    t_wide = exact_transmission(pot, 0.5, (-16.0, 16.0), slices=16000).t_exact
    assert abs(t_narrow - t_wide) <= 1e-8


def test_high_energy_is_transparent():
    result = exact_transmission(Sech2Barrier(1.0, 1.0), 10.0, (-12.0, 12.0), slices=2000)
    assert result.t_exact == pytest.approx(1.0, abs=1e-3)


def test_thick_barrier_never_overflows():
    result = exact_transmission(Sech2Barrier(1.0, 8.0), 0.1, (-120.0, 120.0), slices=10000)
    assert 0.0 <= result.t_exact < 1e-12
    assert result.flux_defect <= 1e-10


def test_gaussian_barrier_transmission_reasonable():
    result = exact_transmission(GaussianBarrier(1.0, 1.0), 0.5, (-12.0, 12.0), slices=4000)
    assert 0.0 < result.t_exact < 1.0
    assert result.flux_defect <= 1e-10


def test_asymptote_mismatch_rejected():
    with pytest.raises(AsymptoteMismatchError):
        exact_transmission(ParabolicBarrier(1.0), 0.5, (-1.5, 1.5), slices=1000)
    with pytest.raises(AsymptoteMismatchError):
        exact_transmission(Sech2Barrier(1.0, 1.0), 0.5, (-3.0, 3.0), slices=1000)


def test_input_validation():
    pot = Sech2Barrier(1.0, 1.0)
    with pytest.raises(DomainError):
        exact_transmission(pot, -0.5, (-12.0, 12.0), slices=1000)
    with pytest.raises(DomainError):
        exact_transmission(pot, 0.0, (-12.0, 12.0), slices=1000)
    with pytest.raises(ValueError):
        exact_transmission(pot, 0.5, (-12.0, 12.0), slices=50)
    with pytest.raises(ValueError):
        exact_transmission(pot, 0.5, (12.0, -12.0), slices=1000)
    # exp(kappa * d) = exp(1000) per slice is out of double range
    with pytest.raises(ValueError):
        exact_transmission(SquareBarrier(1e8, 2.0), 0.5, (-5.0, 5.0), slices=100)


@pytest.mark.parametrize("n", [4000, 4001, 8000])
@pytest.mark.parametrize("energy", [0.1, 0.5, 0.95])
def test_tree_product_matches_reference_loop(tilted_barrier, energy, n):
    # odd and even slice counts pad the tree with the identity at different levels
    cases = [
        (Sech2Barrier(1.0, 1.0), 12.0),
        (GaussianBarrier(1.0, 3.19), 40.0),
        (tilted_barrier, 6.0),
        (Sech2Barrier(1.0, 8.0), 120.0),
    ]
    for pot, half_width in cases:
        t_ref, r_ref = reference_transfer_loop(pot, energy, -half_width, half_width, n)
        t, r = _transfer_once(pot, energy, -half_width, half_width, n)
        assert t > 0.0
        assert t == pytest.approx(t_ref, rel=1e-12, abs=0.0)
        assert r == pytest.approx(r_ref, rel=0.0, abs=1e-12)


def test_energy_at_barrier_height_is_finite():
    # E = V0 across the whole barrier: k = 0 on every interior slice, and
    # the wavefunction there is linear in x, giving T = 1 / (1 + V0 L^2 / 4)
    result = exact_transmission(SquareBarrier(1.0, 2.0), 1.0, (-5.0, 5.0), slices=4000)
    assert result.t_exact == pytest.approx(1.0 / (1.0 + 1.0 * 2.0 ** 2 / 4.0), rel=1e-8)
    assert result.flux_defect <= 1e-9


@pytest.mark.parametrize("energy", [0.1, 0.5, 0.95])
def test_mirrored_barrier_has_same_transmission(energy):
    x, v = tilted_gaussian_samples()
    pot = TabulatedPotential(x, v)
    mirrored = TabulatedPotential(-x[::-1], v[::-1])
    t = exact_transmission(pot, energy, (-6.0, 6.0)).t_exact
    t_mirrored = exact_transmission(mirrored, energy, (-6.0, 6.0)).t_exact
    assert t_mirrored == pytest.approx(t, rel=1e-12, abs=0.0)
