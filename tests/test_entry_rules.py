"""One window rule and one energy rule, shared by every entry point."""

import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

import truth
from airytunnel import (
    BarrierGeometry,
    DomainError,
    NoBarrierError,
    OracleResult,
    ParabolicBarrier,
    RateReport,
    Sech2Barrier,
    TabulatedPotential,
    action_integral,
    alpha_limit,
    analyze_barrier,
    exact_transmission,
    find_midpoint,
    find_turning_points,
    psi_basis,
    rate_report,
    sample_grid,
    t_asymptotic,
    t_uniform,
    t_wkb,
)
from airytunnel.cli import main
from airytunnel.geometry import _geometries
from airytunnel.oracle import _transmissions
from conftest import entry_matches, tilted_gaussian_samples

INF = math.inf
NAN = math.nan
A = -float(truth.turning_point("parabolic", 0.5, 1.0))  # ParabolicBarrier(1)'s at E = 0.5
BAD_WINDOWS = [
    ((-20.0, INF), "window must be finite, got (-20, inf)"),
    ((-INF, 20.0), "window must be finite, got (-inf, 20)"),
    ((NAN, 20.0), "window must be finite, got (nan, 20)"),
    ((3.0, -3.0), "window must satisfy xmin < xmax, got (3, -3)"),
    ((-1e308, 1e308), "window must have a finite width, got (-1e+308, 1e+308)"),
]


def test_window_defaults_each_missing_end():
    pot = Sech2Barrier(1.0, 2.0)
    assert pot.window() == (-40.0, 40.0)
    assert pot.window((None, None)) == (-40.0, 40.0)
    assert pot.window((None, 5)) == (-40.0, 5.0)
    assert pot.window((-1, None)) == (-1.0, 40.0)
    lo, hi = TabulatedPotential(*tilted_gaussian_samples()).window()
    assert (lo, hi) == (-6.0, 6.0) and type(lo) is float and type(hi) is float


@pytest.mark.parametrize("window, message", BAD_WINDOWS)
def test_every_entry_point_rejects_a_bad_window(window, message):
    pot = Sech2Barrier(1.0, 1.0)
    energies = [0.3, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            pot.window(window)
        with pytest.raises(ValueError, match="^window must"):
            find_turning_points(pot, 0.5, window)
        with pytest.raises(ValueError, match="^window must"):
            rate_report(pot, energies, window, with_oracle=True)
        with pytest.raises(ValueError, match="^window must"):
            sample_grid(pot, 0.5, window, 41, 1.0, 0.0, -0.88)
        for result, exc in (_geometries(pot, energies, window),
                            _transmissions(pot, energies, window, 4000)):
            assert all(getattr(result, f.name).size == 0 for f in fields(result))
            assert type(exc) is ValueError and str(exc) == message


def test_energy_rule_runs_before_the_window_rule():
    # A first energy that fails its own check keeps its error; the window is
    # judged only when the first energy passes, and then fails it.
    pot = Sech2Barrier(1.0, 1.0)
    for energies, error in (([-1.0, 0.5], DomainError), ([0.5, -1.0], ValueError)):
        for _, exc in (_geometries(pot, energies, (3.0, -3.0)),
                       _transmissions(pot, energies, (3.0, -3.0), 4000)):
            assert type(exc) is error


@pytest.mark.parametrize("energy", [0.0, -0.5, NAN, INF])
def test_wavefunctions_reject_an_energy_outside_the_domain(energy):
    pot = ParabolicBarrier(1.0)
    message = "^energy must be positive and finite, got %r$" % energy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            sample_grid(pot, energy, (-1.0, 1.0), 41, 1.0, 0.0, A)
        with pytest.raises(DomainError, match=message):
            psi_basis(pot, energy, A, 0.2)


@pytest.mark.parametrize("bad", [INF, -INF, NAN])
def test_wavefunctions_reject_a_point_or_anchor_that_is_not_finite(bad):
    # judged before the crossing scan, so numpy never sees the value
    pot = ParabolicBarrier(1.0)
    point = "^x must be finite, got %r$" % bad
    anchor = "^anchor must be finite, got %r$" % bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (bad, [0.2, bad, -0.3]):
            with pytest.raises(DomainError, match=point):
                psi_basis(pot, 0.5, A, x)
        for x in (0.2, [0.2, -0.3]):
            with pytest.raises(DomainError, match=anchor):
                psi_basis(pot, 0.5, bad, x)
        with pytest.raises(DomainError, match=anchor):
            sample_grid(pot, 0.5, (-1.0, 1.0), 41, 1.0, 0.0, bad)


@pytest.mark.parametrize("command", [
    ("report", "--energy", "0.5", "--oracle"),
    ("sweep", "--emin", "0.2", "--emax", "0.8", "--n", "4"),
    ("wavefunction", "--energy", "0.5"),
])
@pytest.mark.parametrize("override, message", [
    (("--xmax", "inf"), "error: window must be finite, got (-20, inf)\n"),
    (("--xmin=-inf",), "error: window must be finite, got (-inf, 20)\n"),
    (("--xmin=-1e308", "--xmax", "1e308"),
     "error: window must have a finite width, got (-1e+308, 1e+308)\n"),
])
def test_cli_rejects_an_infinite_window_end(capsys, command, override, message):
    code = main([*command, "--potential", "sech2", "--v0", "1", "--w", "1", *override])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


def test_rate_report_takes_a_scalar_or_a_1d_array():
    pot = Sech2Barrier(1.0, 1.0)
    one = rate_report(pot, 0.5)
    assert type(one) is RateReport and one.energy == 0.5
    assert rate_report(pot, np.array(0.5)) == one
    for energies in ([0.3, 0.5], np.array([0.3, 0.5])):
        report = rate_report(pot, energies)
        assert type(report) is RateReport and report.energy.tolist() == [0.3, 0.5]
        assert entry_matches(report, 1, one)
    empty = rate_report(pot, [])
    assert empty.energy.shape == empty.geometry.a.shape == empty.t_uniform.shape == (0,)
    assert entry_matches(rate_report(pot, [0.5]), 0, one)
    with_oracle = rate_report(pot, 0.5, with_oracle=True, oracle_slices=200)
    assert type(with_oracle.oracle.slices) is int
    assert entry_matches(rate_report(pot, [0.5], with_oracle=True, oracle_slices=200), 0, with_oracle)


STAGES = {
    "geometry": (analyze_barrier, BarrierGeometry, [0.5, 1.5, -1.0], NoBarrierError),
    "oracle": (lambda pot, e: exact_transmission(pot, e, pot.window(), slices=200),
               OracleResult, [0.5, NAN, -1.0], DomainError),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_analyze_barrier_and_exact_transmission_take_a_scalar_or_a_1d_array(stage):
    call, record, mixed, error = STAGES[stage]
    pot = Sech2Barrier(1.0, 1.0)
    one = call(pot, 0.5)
    assert type(one) is record
    if record is OracleResult:
        assert type(one.slices) is int
    assert entry_matches(call(pot, [0.5]), 0, one)
    assert call(pot, np.array(0.5)) == one
    for energies in ([0.3, 0.5], np.array([0.3, 0.5])):
        swept = call(pot, energies)
        assert type(swept) is record
        assert entry_matches(swept, 0, call(pot, 0.3)) and entry_matches(swept, 1, one)
    empty = call(pot, [])
    assert all(getattr(empty, f.name).shape == (0,) for f in fields(empty))
    # a mixed sweep raises the error of its lowest failing energy (in the
    # geometry one that fails at a later stage than the energy after it)
    with pytest.raises(error) as swept:
        call(pot, mixed)
    with pytest.raises(error) as alone:
        call(pot, mixed[1])
    assert str(swept.value) == str(alone.value)


def test_energies_beyond_1d_are_rejected():
    pot = Sech2Barrier(1.0, 1.0)
    grid = np.array([[0.3, 0.5], [0.6, 0.7]])
    message = r"^energies must be a scalar or 1D, got shape \(2, 2\)$"
    for call in (rate_report, analyze_barrier,
                 lambda pot, e: exact_transmission(pot, e, pot.window())):
        with pytest.raises(ValueError, match=message):
            call(pot, grid)


@pytest.mark.parametrize("call", [
    lambda grid: t_wkb(grid),
    lambda grid: t_asymptotic(grid, -grid, grid),
    lambda grid: t_uniform(BarrierGeometry(-grid, grid, 0.0 * grid, grid, 0.75 * grid, -grid, grid, grid)),
], ids=["t_wkb", "t_asymptotic", "t_uniform"])
@pytest.mark.parametrize("grid", [np.ones((2, 2)), np.array([[-1.0, 1.0]])], ids=["ones", "negative"])
def test_rates_beyond_1d_are_rejected(call, grid):
    # judged before the rate formula, which would name an entry of a row
    message = r"^theta must be a scalar or 1D, got shape %s$" % re.escape(str(grid.shape))
    with pytest.raises(ValueError, match=message):
        call(grid)


@pytest.mark.parametrize("argv, code, message", [
    (("sweep", "--emin", "0.1", "--emax", "inf", "--n", "3"),
     2, "energy must be positive and finite, got inf"),
    (("sweep", "--emin=-1e308", "--emax", "1e308", "--n", "3"),
     2, "energy must be positive and finite, got -1e+308"),
    (("report", "--energy", "0.5", "--xmin", "-0.5", "--xmax", "0.5"),
     3, "no barrier at this energy: "
        "forbidden region is not closed inside the window (-0.5, 0.5)"),
], ids=["emax-inf", "emin-minus-1e308", "window-inside-hump"])
def test_cli_judges_energies_and_windows_before_numpy_sees_them(capsys, argv, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main([*argv, "--potential", "sech2", "--v0", "1", "--w", "1"])
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, "", "error: %s\n" % message)


B = float(truth.turning_point("sech2", 0.5, 1.0, 1.0))  # Sech2Barrier(1, 1)'s at E = 0.5
ENERGY = "energy must be positive and finite, got %r"


@pytest.mark.parametrize("call, message", [
    (lambda pot: action_integral(pot, NAN, -B, B), ENERGY % NAN),
    (lambda pot: action_integral(pot, -1.0, -B, B), ENERGY % -1.0),
    (lambda pot: find_midpoint(pot, -1.0, -B, B), ENERGY % -1.0),
    (lambda pot: alpha_limit(pot, NAN, -B, "left"), ENERGY % NAN),
    (lambda pot: action_integral(pot, 0.5, -B, NAN), "x2 must be finite, got nan"),
    (lambda pot: action_integral(pot, 0.5, -B, INF), "x2 must be finite, got inf"),
    (lambda pot: find_midpoint(pot, 0.5, -INF, B), "a must be finite, got -inf"),
    (lambda pot: alpha_limit(pot, 0.5, NAN, "left"), "x0 must be finite, got nan"),
], ids=["action-energy-nan", "action-energy-negative", "midpoint-energy-negative",
        "alpha-energy-nan", "action-end-nan", "action-end-inf", "midpoint-end-inf",
        "alpha-point-nan"])
def test_stage_functions_judge_their_energy_and_points(call, message):
    # judged before numpy sees the value, so no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
            call(Sech2Barrier(1.0, 1.0))
