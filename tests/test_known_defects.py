"""Open defects, each as the test of its correct behaviour, marked as a strict
expected failure with the ROADMAP item that mends it.

strict=True turns a mend into an XPASS failure: the mending change drops the
marker, and the test becomes that item's acceptance test. Run with
--runxfail to see each fail for its stated reason.
"""

import numpy as np
import pytest

import truth
from airytunnel import (
    AsymptoteMismatchError,
    DegenerateTurningPointError,
    DomainError,
    Sech2Barrier,
    TabulatedPotential,
    analyze_barrier,
    make_potential,
    rate_report,
)


@pytest.mark.xfail(strict=True, raises=DegenerateTurningPointError, reason="ROADMAP item 7")
@pytest.mark.parametrize("family", ["sech2", "gaussian"])
def test_a_wide_shallow_barrier_has_the_rates_of_its_unit_scaled_copy(family):
    # x -> lam x, V -> V / lam**2 keeps theta and every rate; the slopes'
    # degeneracy test is in absolute units, so lam = 1e4 reads as a barrier top
    lam = 1e4
    one = rate_report(make_potential(family, v0=1.0, w=1.0), 0.5)
    scaled = rate_report(make_potential(family, v0=1.0 / lam**2, w=lam), 0.5 / lam**2)
    for name in ("t_wkb", "t_asymptotic", "t_uniform"):
        assert getattr(scaled, name) == pytest.approx(getattr(one, name), rel=1e-9, abs=0), name
    assert scaled.geometry.theta == pytest.approx(one.geometry.theta, rel=1e-9, abs=0)


@pytest.mark.xfail(strict=True, raises=AsymptoteMismatchError, reason="ROADMAP item 7")
def test_a_narrow_tall_barrier_has_an_oracle_report():
    # the oracle's zero-asymptote test is 1e-9 in absolute units, which
    # V(+-20 w) = 1.7e-9 fails at v0 = 1e8
    lam = 1e-4
    one = rate_report(Sech2Barrier(1.0, 1.0), 0.5, with_oracle=True)
    scaled = rate_report(Sech2Barrier(1.0 / lam**2, lam), 0.5 / lam**2, with_oracle=True)
    assert scaled.t_exact == pytest.approx(one.t_exact, rel=1e-9, abs=0)


@pytest.mark.xfail(strict=True, raises=DomainError, reason="ROADMAP items 4 and 20")
def test_every_energy_of_an_801_sample_table_has_a_geometry():
    # 91 of the 400 energies fail the balance check of c: the midpoint
    # search's halves stop at the quadrature's noise floor on the spline
    x = np.linspace(-8.0, 8.0, 801)
    energies = np.linspace(0.01, 0.99, 400)
    geom = analyze_barrier(TabulatedPotential(x, 1.0 / np.cosh(x) ** 2), energies)
    assert geom.energy.size == energies.size


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
@pytest.mark.parametrize("energy", [0.2, 0.5])
def test_the_oracle_reaches_poschl_teller_on_a_wide_sech2(energy):
    # the second-order oracle at its default 4000 slices is off by -5.2e-5
    # (E = 0.2) and 6.6e-5 (E = 0.5) relative
    t_exact = rate_report(Sech2Barrier(1.0, 40.0), energy, with_oracle=True).t_exact
    assert abs(t_exact / float(truth.poschl_teller(energy, 1.0, 40.0)) - 1.0) <= 1e-9
