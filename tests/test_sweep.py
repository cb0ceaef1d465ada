"""Batched sweeps: each entry is its own one-energy call, and the geometry is the truth.

The batched geometry pass is tested two ways, and neither re-implements it.

Self-consistency: every entry of a batched sweep has the bits of the
package's own one-energy call at that energy, across BLOCK boundaries and
in sweeps that hold failing energies; a sweep ends where a loop of
one-energy calls first fails, with the same error; each bracket of an
array root solve visits the iterates of its own size-one solve; and every
rate of a report is the package's scalar rate function of its geometry.

Truth: a, b, theta and c against truth.py, with c exactly 0 on
even barriers; on tables, against a knot-split mpmath integral of the same
spline. Each bound is the worst case measured on this code, rounded up to
one digit.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import truth
from airytunnel import (
    DegenerateTurningPointError,
    DomainError,
    GaussianBarrier,
    MultiHumpUnsupported,
    NoBarrierError,
    ParabolicBarrier,
    Sech2Barrier,
    TabulatedPotential,
    TunnelError,
    airy,
    analyze_barrier,
    log_bi_over_ai,
    rate_report,
)
from airytunnel import geometry, oracle, rates
from airytunnel.cli import main
from airytunnel.quadrature import integrate_endpoint_singular, solve_bracketed
from conftest import (
    SquareBarrier,
    double_hump_samples,
    entry_matches,
    tilted_gaussian_samples,
)


def tabulated_sech2():
    x = np.linspace(-8.0, 8.0, 801)
    return TabulatedPotential(x, 1.5 / np.cosh(x / 1.3) ** 2)


# name -> (potential, window, top of the energy range)
FAMILIES = {
    "parabolic": (ParabolicBarrier(2.0), (-2.2, 2.2), 2.0),
    "sech2": (Sech2Barrier(1.0, 1.7), (-34.0, 34.0), 1.0),
    "gaussian": (GaussianBarrier(3.0, 0.6), (-12.0, 12.0), 3.0),
    "tilted": (TabulatedPotential(*tilted_gaussian_samples()), (-4.0, 4.0), 1.0),
    "tabulated": (tabulated_sech2(), (-8.0, 8.0), 1.5),
}


@pytest.mark.parametrize("name", ["tilted", "tabulated"])
def test_solver_brackets_take_their_scalar_steps(name):
    # Every bracket of one array call visits the iterates that a size-one
    # call on it alone visits, in order, including long bisection tails.
    # (Spline potentials evaluate identically on arrays of any length;
    # exp-based ones may differ in the last bit between lengths.)
    pot, window, top = FAMILIES[name]
    energies = np.linspace(0.02, 0.9, 40) * top
    xs = np.linspace(window[0], window[1], 2048)
    e, lo, hi = [], [], []
    for energy in energies.tolist():
        signs = np.where(energy - pot.v(xs) > 0.0, 1.0, -1.0)
        for i in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]:
            e.append(energy)
            lo.append(float(xs[i]))
            hi.append(float(xs[i + 1]))
    e, lo, hi = np.array(e), np.array(lo), np.array(hi)
    seen = [[] for _ in e]

    def f(x, j):
        for r, xi in zip(j.tolist(), x.tolist()):
            seen[r].append(xi)
        return e[j] - pot.v(x), -pot.v_prime(x)

    roots = solve_bracketed(f, lo, hi, e - pot.v(lo), e - pot.v(hi), 1e-14)
    assert max(len(s) for s in seen) > 30  # some bracket bisects for long
    for k, energy in enumerate(e.tolist()):
        steps = []

        def g(x, j):
            steps.extend(x.tolist())
            return energy - pot.v(x), -pot.v_prime(x)

        one = slice(k, k + 1)
        ends = energy - pot.v(lo[one]), energy - pot.v(hi[one])
        assert solve_bracketed(g, lo[one], hi[one], *ends, 1e-14).tolist() == [roots[k]]
        assert seen[k] == steps


def scalar_outcomes(pot, energies, window):
    """The package's one-energy report at each energy, or the error it raised there."""
    out = []
    for energy in energies:
        try:
            out.append(rate_report(pot, energy, window))
        except (TunnelError, ValueError) as exc:
            out.append(exc)
    return out


def assert_rates_are_the_scalar_functions(report):
    """The rates of a one-energy report are, bit for bit, the package's
    scalar rate functions of its geometry."""
    g = report.geometry
    # numpy's power on an array of size one; Python's float power is libm's,
    # which can differ from numpy's in the last bit
    assert report.airy_argument == (np.array([0.75 * g.theta]) ** (2.0 / 3.0)).item()
    assert report.t_wkb == rates.t_wkb(g.theta)
    assert report.t_asymptotic == rates.t_asymptotic(g.theta, g.alpha_plus, g.alpha_minus)
    assert report.t_uniform == rates.t_uniform(g.theta, g.alpha_plus, g.alpha_minus)


def assert_matches_scalar_calls(name, energies):
    """The batched sweep equals the loop of one-energy calls at every energy, failures included."""
    pot, window, _ = FAMILIES[name]
    energies = [float(e) for e in energies]
    want = scalar_outcomes(pot, energies, window)
    failed = [i for i, w in enumerate(want) if isinstance(w, Exception)]
    # the pass ends at the loop's first failure, with its error ...
    k = failed[0] if failed else len(energies)
    geom, exc = geometry._geometries(pot, energies, window)
    assert geom.energy.size == k
    if failed:
        assert type(exc) is type(want[k]) and str(exc) == str(want[k])
        # ... which the sweep raises ...
        with pytest.raises(type(want[k])):
            rate_report(pot, energies, window)
    else:
        assert exc is None
    assert all(entry_matches(geom, i, want[i].geometry) for i in range(k))
    # ... and the passing energies, those after it too, sweep as their own calls
    ok = [i for i in range(len(energies)) if i not in failed]
    report = rate_report(pot, [energies[i] for i in ok], window)
    assert report.energy.size == len(ok)
    for j, i in enumerate(ok):
        assert entry_matches(report, j, want[i])
        assert_rates_are_the_scalar_functions(want[i])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sweep_matches_per_energy_loop(name):
    top = FAMILIES[name][2]
    assert_matches_scalar_calls(name, np.linspace(0.03 * top, 0.9 * top, 24))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    # fractions of the top: inside the barrier, above it (no barrier), and
    # not positive or not finite (the energy rule)
    fractions=st.lists(
        st.one_of(st.floats(0.01, 0.93), st.sampled_from([1.2, 0.0, -0.5, math.nan])),
        min_size=1, max_size=12,
    ),
    block=st.sampled_from([1, 3, geometry.BLOCK]),
)
# scalar and array V of the parabola once differed by 1 ulp here (pow vs x * x)
@example(name="parabolic", fractions=[0.7470163879521478], block=geometry.BLOCK)
@example(name="tilted", fractions=[0.3, 0.5, 1.2, 0.7, -0.5, 0.2, 0.4], block=3)
def test_sweep_matches_per_energy_loop_property(name, fractions, block):
    top = FAMILIES[name][2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "BLOCK", block)
        assert_matches_scalar_calls(name, np.array(fractions) * top)


@pytest.mark.parametrize("name", ["sech2", "parabolic", "gaussian"])
def test_even_geometry_is_the_truth(name):
    # bounds: the worst case measured on this code, rounded up to one digit
    pot, window, top = FAMILIES[name]
    args = (pot.v0, getattr(pot, "w", None))
    report = rate_report(pot, np.linspace(0.03, 0.9, 24) * top, window)
    g = report.geometry
    for a, b, theta, e in zip(g.a.tolist(), g.b.tolist(), g.theta.tolist(), g.energy.tolist()):
        b_true, theta_true = truth.turning_point(name, e, *args), truth.theta(name, e, *args)
        assert abs(a + b_true) <= 2e-16 * b_true and abs(b - b_true) <= 2e-16 * b_true
        assert abs(theta - theta_true) <= 2e-15 * theta_true
    assert np.all(g.c == 0.0)
    assert report.airy_argument.tolist() == [
        (np.array([0.75 * t]) ** (2.0 / 3.0)).item() for t in g.theta.tolist()
    ]


# name -> bounds on |a - a*| and |b - b*| in units of b* - a*, and on
# |theta - theta*| and |action*(a*, c) - theta*/2| in units of theta*, the
# starred values from the spline in mpmath
TABLE_BOUNDS = {
    "tilted": (2e-16, 7e-12, 4e-12),
    "tabulated": (6e-16, 8e-11, 4e-11),
}


@pytest.mark.parametrize("name", sorted(TABLE_BOUNDS))
def test_table_geometry_matches_a_knot_split_spline_integral(name):
    # The bounds hold today's quadrature error on a C2 spline, whose Gauss
    # convergence stalls at the knots; near the top few knots keep it cheap.
    pot, window, top = FAMILIES[name]
    ends, theta_tol, c_tol = TABLE_BOUNDS[name]
    g = analyze_barrier(pot, np.array([0.6, 0.75, 0.85, 0.95]) * top, window)
    with mpmath.workdps(20):
        for i, e in enumerate(g.energy.tolist()):
            a, b = truth.mp_spline_roots(pot, e, *window)
            left, theta = truth.mp_spline_action(pot, e, a, [g.c[i], b])
            assert abs(g.a[i] - a) <= ends * (b - a) and abs(g.b[i] - b) <= ends * (b - a)
            assert abs(g.theta[i] - theta) <= theta_tol * theta
            assert abs(left - theta / 2) <= c_tol * theta


def test_single_energy_is_the_batched_pass():
    pot = Sech2Barrier(1.0, 1.0)
    energies = np.linspace(0.1, 0.9, 9)
    batched = rate_report(pot, energies)
    for i, e in enumerate(energies.tolist()):
        assert entry_matches(batched, i, rate_report(pot, e))


def test_sweep_integrates_two_action_segments_per_energy(monkeypatch):
    # An even barrier: theta and the right half from its midpoint 0 in one
    # call; the left half is theta/2 by symmetry, and no search runs.
    segments = []

    def counting(f, x1, x2, **kwargs):
        segments.append(int(np.count_nonzero(np.asarray(x2) - np.asarray(x1))))
        return integrate_endpoint_singular(f, x1, x2, **kwargs)

    monkeypatch.setattr(geometry, "integrate_endpoint_singular", counting)
    report = rate_report(Sech2Barrier(1.0, 1.0), np.linspace(0.01, 0.99, 32))
    assert report.energy.size == 32
    assert segments == [64]


def test_midpoint_steps_integrate_from_the_last_iterate(monkeypatch):
    # On the tilted table the search takes Newton steps. Each one integrates
    # only the segment from the last iterate, which holds no turning point;
    # theta (the first call) and the right halves (the last) end at one.
    calls = []

    def counting(f, x1, x2, **kwargs):
        points = [0]

        def g(x):
            points[0] += x.size
            return f(x)

        value = integrate_endpoint_singular(g, x1, x2, **kwargs)
        calls.append((np.array(x1, dtype=float), np.array(x2, dtype=float), points[0]))
        return value

    monkeypatch.setattr(geometry, "integrate_endpoint_singular", counting)
    pot, window, top = FAMILIES["tilted"]
    energies = np.linspace(0.03 * top, 0.9 * top, 24)
    g = rate_report(pot, energies, window).geometry
    turning = set(g.a.tolist()) | set(g.b.tolist())
    assert len(calls) > 2
    for x1, x2, _ in calls[1:-1]:
        assert turning.isdisjoint(x1.tolist() + x2.tolist())
    # 2832 when every step integrated action(a, x) anew; 2085 from the last iterate
    assert sum(points for _, _, points in calls) / energies.size < 2200


TILTED = FAMILIES["tilted"][0]
MIRRORED = TabulatedPotential(-TILTED.x_samples[::-1], TILTED.v_samples[::-1])


@settings(max_examples=30, deadline=None)
@given(fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12))
def test_mirrored_table_mirrors_the_geometry(fractions):
    # x -> -x swaps the turning points and the half actions, and c is found
    # from the other side, within its stop test.
    _, window, top = FAMILIES["tilted"]
    energies = np.array(fractions) * top
    g, errors = geometry._geometries(TILTED, energies, window)
    h, mirrored_errors = geometry._geometries(MIRRORED, energies, window)
    assert not errors and not mirrored_errors
    assert np.all(np.abs(h.theta - g.theta) <= 1e-13 * g.theta)
    assert np.all(np.abs(h.c + g.c) <= 1e-9 * (g.b - g.a))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    fractions=st.lists(st.floats(0.01, 0.93), min_size=2, max_size=12),
)
@example(name="parabolic", fractions=[0.5, 0.5 + 1.5e-6])
def test_theta_decreases_with_energy(name, fractions):
    pot, window, top = FAMILIES[name]
    energies = []
    for e in sorted(np.array(fractions) * top):
        if not energies or e - energies[-1] >= 1e-6 * top:
            energies.append(e)
    # an energy that fails (the tabulated table's balance check) ends a
    # pass, and the energies after it run in a pass of their own
    theta = []
    while energies:
        geom, _ = geometry._geometries(pot, energies, window)
        theta += geom.theta.tolist()
        energies = energies[geom.energy.size + 1:]
    assert np.all(np.diff(theta) < 0.0)


def test_sweep_longer_than_a_block_is_the_single_energy_loop(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK", 5)
    pot = Sech2Barrier(1.0, 1.0)
    energies = np.linspace(0.05, 0.95, 12)
    swept = rate_report(pot, energies)
    assert all(entry_matches(swept, i, rate_report(pot, e)) for i, e in enumerate(energies.tolist()))
    energies[6] = 1.5  # a failure in the middle block ends the sweep there
    geom, exc = geometry._geometries(pot, energies)
    assert isinstance(exc, NoBarrierError) and geom.energy.size == 6
    assert all(entry_matches(geom, i, geometry._entry(swept.geometry, i)) for i in range(6))
    # a stage-wide error is that of the first energy of its block ...
    geom, exc = geometry._geometries(pot, [0.5] * 3 + [-1.0] * 5, window=(1.0, -1.0))
    assert geom.energy.size == 0
    assert type(exc) is ValueError and "xmin < xmax" in str(exc)
    # ... unless the energy rule rejects that one first
    geom, exc = geometry._geometries(pot, [-1.0] * 5 + [0.5] * 3, window=(1.0, -1.0))
    assert geom.energy.size == 0 and isinstance(exc, DomainError)


def test_geometries_end_at_the_first_failing_energy(double_hump_barrier):
    pot = Sech2Barrier(1.0, 1.0)
    geom, exc = geometry._geometries(pot, [0.5, 0.2, 1.5, float("nan"), -0.5])
    assert geom.energy.tolist() == [0.5, 0.2]
    assert isinstance(exc, NoBarrierError) and "E=1.5" in str(exc)
    # the energy rule comes before the scan
    geom, exc = geometry._geometries(pot, [0.5, 0.2, float("nan"), 1.5])
    assert geom.energy.tolist() == [0.5, 0.2] and isinstance(exc, DomainError)
    # an error of a stage as a whole is that of the first energy
    geom, exc = geometry._geometries(pot, [0.5, 0.7, -1.0], window=(1.0, -1.0))
    assert geom.energy.size == 0 and type(exc) is ValueError
    geom, exc = geometry._geometries(double_hump_barrier, [0.5, 1.5], (-6.0, 6.0))
    assert geom.energy.size == 0 and isinstance(exc, MultiHumpUnsupported)
    geom, exc = geometry._geometries(double_hump_barrier, [1.5, 0.5], (-6.0, 6.0))
    assert geom.energy.size == 0 and isinstance(exc, NoBarrierError)
    geom, exc = geometry._geometries(pot, [])
    assert geom.energy.size == 0 and exc is None


def test_sweep_raises_the_lowest_failing_energy(double_hump_barrier):
    pot = Sech2Barrier(1.0, 1.0)
    # one mixed sweep per kind of failure: (potential, window, energies, the
    # lowest failing one, its error)
    sweeps = [
        (pot, None, [0.2, 0.5, 1.2, 1.5], 1.2, NoBarrierError),  # no barrier
        # a window inside the forbidden region at the low energies
        (pot, (-0.5, 0.5), [0.95, 0.9, 0.5, 0.3], 0.5, NoBarrierError),
        (double_hump_barrier, (-6.0, 6.0), [0.02, 0.5, 1.5], 0.5, MultiHumpUnsupported),
        (FlatFarFlanks(1.0, 1.0), None, [0.5, 0.05, 2.0], 0.05, DegenerateTurningPointError),
    ]
    for barrier, window, energies, lowest, error in sweeps:
        with pytest.raises(error) as swept:
            rate_report(barrier, energies, window)
        with pytest.raises(error) as alone:
            rate_report(barrier, lowest, window)
        assert str(swept.value) == str(alone.value)
        rate_report(barrier, energies[:energies.index(lowest)], window)  # the ones below pass
    # energy 1 fails at the first stage, energy 0 in a later one (a window
    # cutting its hump), and energy 0's error is the one raised
    with pytest.raises(NoBarrierError, match="not closed"):
        rate_report(pot, [0.5, -1.0], window=(-20.0, 0.5))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_loop(capsys, family_args, energies):
    """Exit code and stderr of the first failing per-energy report, as the old sweep."""
    for energy in energies:
        code, _, err = run_cli(capsys, "report", *family_args, "--energy", repr(float(energy)))
        if code:
            return code, err
    return 0, ""


def test_sweep_past_the_barrier_top_exits_3(capsys):
    family = ("--potential", "sech2", "--v0", "1.0", "--w", "1.0")
    code, out, err = run_cli(capsys, "sweep", *family, "--emin", "0.5", "--emax", "1.5", "--n", "6")
    assert code == 3 and out == ""
    assert "no barrier" in err and "E=1.1" in err
    assert (code, err) == cli_loop(capsys, family, np.linspace(0.5, 1.5, 6))


def test_sweep_failure_in_a_later_stage_wins_by_energy(capsys, tmp_path):
    # Between the humps of a double barrier, E = 0.5 crosses V twice, so it
    # passes the scan and fails after the root polish (the midpoint of its
    # interval is allowed); E = 0.9 is above V everywhere in the window and
    # fails at the scan. The sweep reports E = 0.5, as the loop did.
    path = tmp_path / "double.dat"
    path.write_text("\n".join("%.17g %.17g" % pair for pair in zip(*double_hump_samples())))
    family = ("--potential-file", str(path), "--xmin", "-1.5", "--xmax", "1.5")
    code, out, err = run_cli(capsys, "sweep", *family, "--emin", "0.5", "--emax", "0.9", "--n", "5")
    assert code == 3 and out == ""
    assert "does not bracket a forbidden interval at E=0.5" in err
    assert (code, err) == cli_loop(capsys, family, np.linspace(0.5, 0.9, 5))


class FlatFarFlanks(GaussianBarrier):
    """A gaussian whose slope reads 0 beyond |x| = 1.5: low energies get
    degenerate turning points, found only at the last (slope) stage."""

    def v_prime(self, x):
        return np.where(np.abs(x) > 1.5, 0.0, super().v_prime(x))


def test_lowest_energy_failing_last_is_raised():
    # 0.05 fails at the last (slope) stage, 2.0 at the first (the scan)
    pot = FlatFarFlanks(1.0, 1.0)
    geom, exc = geometry._geometries(pot, [0.5, 0.05, 2.0])
    assert isinstance(exc, DegenerateTurningPointError) and geom.energy.tolist() == [0.5]
    geom, exc = geometry._geometries(pot, [0.5, 2.0, 0.05])
    assert isinstance(exc, NoBarrierError) and geom.energy.tolist() == [0.5]
    with pytest.raises(DegenerateTurningPointError):
        rate_report(pot, [0.05, 0.5, 2.0])
    with pytest.raises(NoBarrierError):
        rate_report(pot, [0.5, 2.0, 0.05])


def test_no_work_past_the_first_failing_energy(monkeypatch):
    searched, blocks, passes = [], [], []
    midpoints, analyze, transfer = geometry._midpoints, geometry._analyze, oracle._transfer_once

    def spy_midpoints(pot, energies, *args):
        searched.append(energies.tolist())
        return midpoints(pot, energies, *args)

    def spy_analyze(pot, energies, *args):
        blocks.append(energies.tolist())
        return analyze(pot, energies, *args)

    def spy_transfer(v_mid, energies, x_left, x_right, n, **kwargs):
        passes.append((n, energies.tolist()))
        return transfer(v_mid, energies, x_left, x_right, n, **kwargs)

    monkeypatch.setattr(geometry, "_midpoints", spy_midpoints)
    monkeypatch.setattr(geometry, "_analyze", spy_analyze)
    monkeypatch.setattr(oracle, "_transfer_once", spy_transfer)
    pot = Sech2Barrier(1.0, 1.0)
    # energy 2 has no barrier: the midpoint search sees energies 0 and 1 only
    with pytest.raises(NoBarrierError):
        rate_report(pot, [0.2, 0.4, 1.5, 0.6, 0.8])
    assert searched == [[0.2, 0.4]]
    # a failure in the first block: the later blocks do not run
    monkeypatch.setattr(geometry, "BLOCK", 5)
    blocks.clear()
    geom, exc = geometry._geometries(pot, [0.2, 0.4, 1.5] + [0.5] * 9)
    assert isinstance(exc, NoBarrierError) and geom.energy.size == 2
    assert blocks == [[0.2, 0.4, 1.5, 0.5, 0.5]]
    # the coarse pass fails at E = 0.5, so the fine pass takes 2e8 alone
    result, exc = oracle._transmissions(SquareBarrier(1e8, 2.0), [2e8, 0.5, 3e8], (-5.0, 5.0), 100)
    assert isinstance(exc, ValueError) and result.t_exact.size == 1
    assert [energies for n, energies in passes if n == 200] == [[2e8]]


@pytest.mark.parametrize("potential", ["sech2", "gaussian", "parabolic", "tabulated"])
def test_sweep_samples_v_a_bounded_number_of_times(capsys, tmp_path, monkeypatch, potential):
    # The loop made ~1090 calls of V per 32-energy sweep (34 per energy); the
    # batched pass makes a number that does not grow with the grid size.
    classes = {"sech2": Sech2Barrier, "gaussian": GaussianBarrier,
               "parabolic": ParabolicBarrier, "tabulated": TabulatedPotential}
    cls = classes[potential]
    calls = []
    inner = cls.v
    monkeypatch.setattr(cls, "v", lambda self, x: calls.append(1) or inner(self, x))
    if potential == "tabulated":
        path = tmp_path / "tilted.dat"
        path.write_text("\n".join("%.17g %.17g" % p for p in zip(*tilted_gaussian_samples())))
        family = ("--potential-file", str(path), "--xmin", "-4", "--xmax", "4")
        top = 1.0
    else:
        family = ("--potential", potential, "--v0", "2.0")
        family += () if potential == "parabolic" else ("--w", "0.8")
        top = 2.0
    counts = []
    for n in (32, 256):
        del calls[:]
        code, _, _ = run_cli(
            capsys, "sweep", *family, "--emin", repr(0.02 * top), "--emax", repr(0.95 * top),
            "--n", str(n),
        )
        assert code == 0
        counts.append(len(calls))
    assert max(counts) <= 100, counts


def test_log_ratio_array_matches_scalar_calls_bit_for_bit():
    # dense below the switch, where np.log would differ from math.log on
    # about 1 in 6000 arguments
    u = np.concatenate((np.linspace(0.0, 9.0, 45001), np.linspace(9.0, 60.0, 1001), [8.999999]))
    got = log_bi_over_ai(u)
    assert isinstance(got, np.ndarray) and got.shape == u.shape
    assert got.tolist() == [log_bi_over_ai(float(x)) for x in u]
    assert log_bi_over_ai(np.array([])).shape == (0,)
    for bad in ([1.0, -0.5], [np.nan]):
        with pytest.raises(DomainError):
            log_bi_over_ai(np.array(bad))


def test_airy_array_matches_scalar_calls_above_the_switch():
    # the asymptotic branch's powers and exponentials, up to the edge of
    # double range at u ~ 103.9
    u = np.concatenate((np.linspace(9.0, 103.0, 2001)[1:], [9.000001]))
    pairs = airy(u)
    got = np.array([pairs.ai, pairs.bi, pairs.ai_prime, pairs.bi_prime]).T.tolist()
    assert got == [[p.ai, p.bi, p.ai_prime, p.bi_prime] for p in map(airy, u.tolist())]
