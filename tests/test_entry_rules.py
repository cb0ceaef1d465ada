"""One window rule and one energy rule, shared by every entry point."""

import math
import re
import warnings

import pytest

from airytunnel import (
    DomainError,
    ParabolicBarrier,
    Sech2Barrier,
    TabulatedPotential,
    analyze_barriers,
    exact_transmissions,
    find_turning_points,
    psi_basis,
    rate_reports,
    sample_grid,
)
from airytunnel.cli import main
from conftest import tilted_gaussian_samples

INF = math.inf
NAN = math.nan
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
            rate_reports(pot, energies, window, with_oracle=True)
        with pytest.raises(ValueError, match="^window must"):
            sample_grid(pot, 0.5, window, 41, 1.0, 0.0, -0.88)
        for out in (analyze_barriers(pot, energies, window), exact_transmissions(pot, energies, window)):
            assert [type(r) for r in out] == [ValueError, ValueError]
            assert str(out[0]) == message


def test_energy_rule_runs_before_the_window_rule():
    # An energy that fails its own check keeps its error; the window then
    # fails the energies still in play.
    pot = Sech2Barrier(1.0, 1.0)
    for out in (analyze_barriers(pot, [-1.0, 0.5], (3.0, -3.0)),
                exact_transmissions(pot, [-1.0, 0.5], (3.0, -3.0))):
        assert isinstance(out[0], DomainError) and type(out[1]) is ValueError


@pytest.mark.parametrize("energy", [0.0, -0.5, NAN, INF])
def test_wavefunctions_reject_an_energy_outside_the_domain(energy):
    pot = ParabolicBarrier(1.0)
    message = "^energy must be positive and finite, got %r$" % energy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            sample_grid(pot, energy, (-1.0, 1.0), 41, 1.0, 0.0, -math.sqrt(0.5))
        with pytest.raises(DomainError, match=message):
            psi_basis(pot, energy, -math.sqrt(0.5), 0.2)


@pytest.mark.parametrize("bad", [INF, -INF, NAN])
def test_wavefunctions_reject_a_point_or_anchor_that_is_not_finite(bad):
    # judged before the crossing scan, so numpy never sees the value
    pot = ParabolicBarrier(1.0)
    a = -math.sqrt(0.5)
    point = "^x must be finite, got %r$" % bad
    anchor = "^anchor must be finite, got %r$" % bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (bad, [0.2, bad, -0.3]):
            with pytest.raises(DomainError, match=point):
                psi_basis(pot, 0.5, a, x)
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
