"""CLI contract: CSV shape, exit codes, determinism, formatting."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import airytunnel
import truth
from airytunnel import (
    AiryOverflowError,
    AsymptoteMismatchError,
    DegenerateTurningPointError,
    DomainError,
    FormatError,
    MultiHumpUnsupported,
    NoBarrierError,
    RangeError,
    Sech2Barrier,
    cli,
)
from airytunnel.cli import main
from conftest import double_hump_samples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_row(capsys):
    code, out, err = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "0.5",
    )
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "E,a,b,c,theta,airy_arg,t_wkb,t_asymptotic,t_uniform"
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert float(fields[0]) == 0.5
    assert float(fields[4]) == pytest.approx(truth.theta("sech2", 0.5, 1.0, 1.0), rel=1e-9, abs=0)


def test_report_with_oracle_columns(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "0.5", "--oracle", "--oracle-slices", "1000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(",t_exact,flux_defect")
    fields = lines[1].split(",")
    assert len(fields) == 11
    assert 0.0 < float(fields[9]) < 1.0
    assert float(fields[10]) < 1e-9


def test_sweep_matches_wkb_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--potential", "parabolic", "--v0", "1.0",
        "--emin", "0.1", "--emax", "0.9", "--n", "9",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 10
    energies = []
    for line in lines[1:]:
        fields = line.split(",")
        energy = float(fields[0])
        energies.append(energy)
        assert float(fields[6]) == pytest.approx(math.exp(-2 * truth.theta("parabolic", energy, 1.0)), rel=1e-9, abs=0)
    assert energies == sorted(energies)
    assert energies[0] == pytest.approx(0.1)
    assert energies[-1] == pytest.approx(0.9)


def test_no_barrier_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "2.0",
    )
    assert code == 3
    assert out == ""
    assert "no barrier" in err


def test_multi_hump_exit_code(capsys, tmp_path):
    x, v = double_hump_samples()
    path = tmp_path / "double.dat"
    path.write_text("\n".join("%.17g %.17g" % pair for pair in zip(x, v)))
    code, out, err = run_cli(
        capsys, "report", "--potential-file", str(path), "--energy", "0.5",
    )
    assert code == 4
    assert out == ""
    assert "single-hump" in err


def test_file_errors_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("0 1\n1 nope\n2 3\n3 4\n")
    code, _, err = run_cli(capsys, "report", "--potential-file", str(bad), "--energy", "0.5")
    assert code == 5
    assert "non-numeric" in err
    code, _, _ = run_cli(
        capsys, "report", "--potential-file", str(tmp_path / "missing.dat"), "--energy", "0.5",
    )
    assert code == 5
    # bytes that are not UTF-8 make a malformed file, not a bad argument
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe0 1\n1 2\n2 3\n3 4\n")
    code, out, err = run_cli(capsys, "report", "--potential-file", str(binary), "--energy", "0.5")
    assert (code, out) == (5, "")
    assert err.startswith("error: potential data is not UTF-8 text") and len(err.splitlines()) == 1


def test_bad_argument_exit_codes(capsys):
    # the CLI offers no square family (it has no slope limits); argparse rejects it
    code, _, err = run_cli(
        capsys, "report", "--potential", "square", "--v0", "1.0", "--l", "2.0",
        "--energy", "0.5",
    )
    assert code == 2
    # missing family parameter
    code, _, _ = run_cli(capsys, "report", "--potential", "sech2", "--v0", "1.0", "--energy", "0.5")
    assert code == 2
    # parameter that does not belong to the family
    code, _, _ = run_cli(
        capsys, "report", "--potential", "parabolic", "--v0", "1.0", "--w", "2.0",
        "--energy", "0.5",
    )
    assert code == 2
    # no potential at all
    code, _, _ = run_cli(capsys, "report", "--energy", "0.5")
    assert code == 2
    # sweep with bad grid
    code, _, _ = run_cli(
        capsys, "sweep", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--emin", "0.5", "--emax", "0.1", "--n", "5",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "sweep", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--emin", "0.1", "--emax", "0.5", "--n", "1",
    )
    assert code == 2
    # negative energy
    code, _, _ = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "-0.5",
    )
    assert code == 2


@pytest.mark.parametrize("argv, deepest", [
    ("--potential sech2 --v0 1 --w 2 --energy 0.3", -10.615),
    ("--potential sech2 --v0 1 --w 4 --energy 0.3", -16.85),
    ("--potential gaussian --v0 1 --w 3 --energy 0.5", -16.018),
    ("--potential parabolic --v0 1.0 --energy 0.5 --xmin -9.0 --xmax 1.5 --n 41", -15.215),
])
def test_wavefunction_windows_reach_below_airy_argument_minus_ten(capsys, argv, deepest):
    # the first three are default windows; Ai and Bi take their oscillatory
    # expansions below -10
    code, out, err = run_cli(capsys, "wavefunction", *argv.split())
    assert (code, err) == (0, "")
    arg = np.array([float(row.split(",")[2]) for row in out.splitlines()[1:]])
    assert arg.min() == pytest.approx(deepest, abs=1e-3)


def test_report_row_is_the_first_row_of_a_sweep(capsys):
    sech2 = ("--potential", "sech2", "--v0", "1", "--w", "1", "--oracle", "--oracle-slices", "200")
    code, report, _ = run_cli(capsys, "report", *sech2, "--energy", "0.3")
    assert code == 0
    code, sweep, _ = run_cli(capsys, "sweep", *sech2, "--emin", "0.3", "--emax", "0.7", "--n", "2")
    assert code == 0
    assert report.splitlines() == sweep.splitlines()[:2]


@pytest.mark.parametrize("argv, code, message", [
    # the whole default window lies inside the forbidden region
    (("report", "--potential", "sech2", "--v0", "1e300", "--w", "1", "--energy", "0.5"),
     3, "forbidden region is not closed inside the window (-20, 20)"),
    # w**2 overflows a float; the slope is formed without it
    (("report", "--potential", "gaussian", "--v0", "1", "--w", "1e200", "--energy", "0.5"),
     3, "degenerate turning point"),
    (("wavefunction", "--potential", "gaussian", "--v0", "1", "--w", "1e200", "--energy", "0.5"),
     3, "degenerate turning point"),
], ids=["sech2-v0-1e300", "gaussian-w-1e200-report", "gaussian-w-1e200-wavefunction"])
def test_extreme_barriers_end_with_one_error_line(capsys, argv, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("window", [("--xmin=-3e3", "--xmax", "3e3"),
                                    ("--xmin=-1e300", "--xmax", "1e300")])
def test_wide_window_finds_the_barrier(capsys, window):
    # the crossings do not depend on the window's width: the row is the
    # one of the window +-1e3, to the last printed digit
    sech2 = ("report", "--potential", "sech2", "--v0", "1", "--w", "1", "--energy", "0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(capsys, *sech2, *window)
    assert got == run_cli(capsys, *sech2, "--xmin=-1e3", "--xmax", "1e3")
    assert got[0] == 0 and got[2] == ""


def test_parabola_on_a_window_reaching_1e300(capsys):
    # V = v0 - x**2 would overflow at the far end; nothing evaluates it there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "report", "--potential", "parabolic", "--v0", "1",
                                 "--energy", "0.5", "--xmax", "1e300")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[1:3] == ["-0.707106781187", "0.707106781187"]


@pytest.mark.parametrize("family", [("sech2", "--v0", "1", "--w", "1"), ("parabolic", "--v0", "1")])
def test_report_next_to_the_barrier_top(capsys, family):
    # the midpoint balance check allows for the rounding of E - V there
    code, out, err = run_cli(capsys, "report", "--potential", *family, "--energy", "0.99999999")
    assert code == 0 and err == ""
    t_uniform = float(out.strip().split("\n")[1].split(",")[8])
    assert 0.9 < t_uniform <= 1.0


def test_arithmetic_error_is_a_bad_argument(capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "rate_report", overflow)
    code, out, err = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1", "--w", "1", "--energy", "0.5"
    )
    assert (code, out, err) == (2, "", "error: (34, 'Numerical result out of range')\n")


# One failure per row of the CLI's exit table, as (error, exit code, stderr).
FAILURES = [
    (NoBarrierError("no barrier at E=2"), 3, "error: no barrier at this energy: no barrier at E=2\n"),
    (DegenerateTurningPointError("degenerate turning point"), 3, "error: degenerate turning point\n"),
    (MultiHumpUnsupported("single-hump barriers only"), 4, "error: single-hump barriers only\n"),
    (FormatError("line 2: bad"), 5, "error: line 2: bad\n"),
    (RangeError("x=9 outside the samples"), 5, "error: x=9 outside the samples\n"),
    (FileNotFoundError(2, "No such file or directory", "gone.dat"), 5,
     "error: [Errno 2] No such file or directory: 'gone.dat'\n"),
    (AsymptoteMismatchError("V(-1.5)=-1.25"), 6, "error: oracle failed: V(-1.5)=-1.25\n"),
    (DomainError("energy must be positive"), 2, "error: energy must be positive\n"),
    (ValueError("sweep needs --n >= 2"), 2, "error: sweep needs --n >= 2\n"),
    (AiryOverflowError(800.0), 2,
     "error: Bi(u) overflows double precision: exp(800) out of range; use log_bi_over_ai instead\n"),
]


@pytest.mark.parametrize("error, code, err", FAILURES, ids=[type(row[0]).__name__ for row in FAILURES])
def test_each_failure_has_its_exit_code_and_message(capsys, monkeypatch, error, code, err):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "rate_report", fail)
    got = run_cli(capsys, "report", "--potential", "sech2", "--v0", "1", "--w", "1", "--energy", "0.5")
    assert got == (code, "", err)


@pytest.mark.parametrize("potential, message", [
    (("--potential", "sech2", "--v0", "1"), "--w is required for sech2"),
    (("--potential", "gaussian", "--w", "1"), "--v0 is required for gaussian"),
    (("--potential", "parabolic"), "--v0 is required for parabolic"),
    (("--potential", "parabolic", "--v0", "1", "--w", "1"), "--w does not apply to parabolic"),
    # the file is never read: the parameters are judged first
    (("--potential-file", "barrier.dat", "--v0", "1"), "--v0 does not apply to --potential-file"),
    (("--potential-file", "barrier.dat", "--v0", "1", "--w", "1"), "--v0 does not apply to --potential-file"),
    (("--potential-file", "barrier.dat", "--w", "1"), "--w does not apply to --potential-file"),
    ((), "choose exactly one of --potential or --potential-file"),
    (("--potential", "sech2", "--potential-file", "barrier.dat"),
     "choose exactly one of --potential or --potential-file"),
], ids=["sech2-without-w", "gaussian-without-v0", "parabolic-without-v0", "parabolic-with-w",
        "file-with-v0", "file-with-v0-and-w", "file-with-w", "neither", "both"])
def test_family_parameter_messages(capsys, potential, message):
    got = run_cli(capsys, "report", *potential, "--energy", "0.5")
    assert got == (2, "", "error: %s\n" % message)


def test_negative_numbers_in_exponent_form(capsys):
    # %.12g prints exponents, so a printed turning point pasted back as
    # --xmin may read -1e1; it is the same number as -10.
    sech2 = ("report", "--potential", "sech2", "--v0", "1", "--w", "1")
    code, out, err = run_cli(capsys, *sech2, "--energy", "0.5", "--xmin", "-1e1", "--xmax", "1e1")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(
        capsys, *sech2, "--energy", "0.5", "--xmin", "-10", "--xmax", "10"
    )
    code, out, err = run_cli(capsys, *sech2, "--energy", "-1e-3")
    assert (code, out) == (2, "")
    assert err == "error: energy must be positive and finite, got -0.001\n"


def test_oracle_failure_exit_code(capsys):
    # the parabolic barrier has no zero asymptote anywhere
    code, _, err = run_cli(
        capsys, "report", "--potential", "parabolic", "--v0", "1.0",
        "--energy", "0.5", "--oracle",
    )
    assert code == 6
    assert "asymptote" in err.lower()


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0


def test_output_is_deterministic(capsys):
    argv = [
        "report", "--potential", "gaussian", "--v0", "1.3", "--w", "0.9",
        "--energy", "0.61",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_numeric_fields_use_12_significant_digits(capsys):
    _, out, _ = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "0.37",
    )
    for token in out.strip().split("\n")[1].split(","):
        assert token == "%.12g" % float(token)


def test_wavefunction_csv(capsys):
    code, out, _ = run_cli(
        capsys, "wavefunction", "--potential", "parabolic", "--v0", "1.0",
        "--energy", "0.5", "--xmin", "-2.0", "--xmax", "2.0", "--n", "41",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,ksq,airy_arg,psi_ai,psi_bi"
    assert len(lines) == 42
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == -2.0 and xs[-1] == 2.0
    for line in lines[1:]:
        x, ksq, arg, _, _ = map(float, line.split(","))
        if ksq > 0:
            assert arg < 0
        elif ksq < 0:
            assert arg > 0


@pytest.mark.parametrize(
    "family, params, energy, window, n, side",
    [
        ("sech2", {"v0": 1.0, "w": 1.0}, 0.4, (-20.0, 20.0), 401, "left"),
        # k2 is exactly 0 at the grid points +-0.5: the far one prints inf
        ("parabolic", {"v0": 1.0}, 0.75, (-1.0, 1.0), 9, "right"),
    ],
)
def test_wavefunction_rows_equal_sample_grid_records(capsys, family, params, energy, window, n, side):
    argv = ["wavefunction", "--potential", family, "--energy", repr(energy), "--n", str(n),
            "--xmin", repr(window[0]), "--xmax", repr(window[1]), "--anchor", side]
    for name, value in params.items():
        argv += ["--" + name, repr(value)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    pot = airytunnel.make_potential(family, **params)
    a, b = airytunnel.find_turning_points(pot, energy, window)
    grid = airytunnel.sample_grid(pot, energy, window, n, 1.0, 0.0, a if side == "left" else b)
    rows = ["%.12g,%.12g,%.12g,%.12g,%.12g" % row
            for row in zip(grid.x, grid.ksq, grid.airy_arg, grid.psi_ai, grid.psi_bi)]
    assert out == "\n".join(["x,ksq,airy_arg,psi_ai,psi_bi"] + rows) + "\n"
    if family == "parabolic":  # the far turning point keeps |airy_arg| = (3 pi/16)**(2/3)
        assert "\n-0.5,0,0.7026959166,inf,inf\n" in out


def test_wavefunction_takes_crossings_once(capsys, monkeypatch):
    # the turning points already give every crossing in the window
    calls = []
    crossings = Sech2Barrier.crossings
    monkeypatch.setattr(Sech2Barrier, "crossings",
                        lambda self, *args: calls.append(args) or crossings(self, *args))
    code, _, _ = run_cli(
        capsys, "wavefunction", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "0.5", "--n", "41",
    )
    assert code == 0
    assert len(calls) == 1


def test_wavefunction_right_anchor(capsys):
    code, out, _ = run_cli(
        capsys, "wavefunction", "--potential", "parabolic", "--v0", "1.0",
        "--energy", "0.5", "--xmin", "-1.2", "--xmax", "1.2", "--n", "25",
        "--anchor", "right",
    )
    assert code == 0
    # the sample nearest the right turning point has the smallest |arg|
    lines = out.strip().split("\n")[1:]
    args = np.array([abs(float(line.split(",")[2])) for line in lines])
    xs = np.array([float(line.split(",")[0]) for line in lines])
    assert abs(xs[args.argmin()] - truth.turning_point("parabolic", 0.5, 1.0)) < 0.1


def test_calls_in_one_process_match_fresh_processes(capsys):
    # main() shares one parser between calls; an argparse error in between
    # must leave it as a fresh process would find it.
    calls = [
        ["sweep", "--potential", "gaussian", "--v0", "1.0", "--w", "0.8",
         "--emin", "0.1", "--emax", "0.9", "--n", "5"],
        ["sweep", "--potential", "sech2", "--v0", "1.0", "--w", "1.0", "--emin", "0.1", "--n"],
        ["wavefunction", "--potential", "parabolic", "--v0", "1.0", "--energy", "0.5",
         "--xmin", "-2.0", "--xmax", "2.0", "--n", "41", "--anchor", "right"],
    ]
    src = os.path.dirname(os.path.dirname(airytunnel.__file__))
    results = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in results] == [0, 2, 0]
    for argv, result in zip(calls, results):
        fresh = subprocess.run(
            [sys.executable, "-m", "airytunnel"] + argv, capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_output_file_and_error_buffering(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "0.5", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("E,a,b,c,")
    # failures must not leave partial output behind
    target2 = tmp_path / "never.csv"
    code, _, _ = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "2.0", "--output", str(target2),
    )
    assert code == 3
    assert not target2.exists()


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_is_a_file_error(capsys, tmp_path, where):
    target = tmp_path / "absent" / "rows.csv" if where == "missing_dir" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(
        capsys, "report", "--potential", "sech2", "--v0", "1", "--w", "1",
        "--energy", "0.5", "--output", str(target),
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: the CLI loads nothing else
    # outside the standard library, scipy included. Once it is imported,
    # no command and no wavefunction entry point loads anything more of
    # numpy, so every one runs inside numpy's eagerly imported core on any
    # numpy version (np.unique, for one, imports numpy.ma on numpy 2.4).
    table = tmp_path / "tilted.dat"
    x = np.linspace(-6.0, 6.0, 1201)
    np.savetxt(table, np.column_stack((x, np.exp(-x * x) * (1.0 + 0.25 * np.tanh(x)))), fmt="%.17g")
    code = """
import contextlib, io, sys
stdlib = set(sys.stdlib_module_names)
before = set(sys.modules)
import airytunnel.cli
def foreign(names, allowed):
    return sorted(m for m in names if m.split('.')[0] not in allowed)
print(foreign(set(sys.modules) - before, stdlib | {'numpy', 'airytunnel'}))
snapshot = set(sys.modules)
family = ['--potential', 'sech2', '--v0', '1', '--w', '1']
table = ['--potential-file', sys.argv[1]]
codes = []
for pot in (family, table):
    for command in (['report', '--energy', '0.5'],
                    ['sweep', '--emin', '0.2', '--emax', '0.9', '--n', '4'],
                    ['sweep', '--emin', '0.2', '--emax', '0.9', '--n', '3', '--oracle'],
                    ['wavefunction', '--energy', '0.5', '--n', '41', '--xmin=-3', '--xmax', '3']):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(airytunnel.cli.main(command[:1] + pot + command[1:]))
from airytunnel import Sech2Barrier, find_turning_points, psi_basis, sample_grid
pot = Sech2Barrier(1.0, 1.0)
a, b = find_turning_points(pot, 0.5)
psi_basis(pot, 0.5, a, 0.3)
sample_grid(pot, 0.5, (-3.0, 3.0), 41, 1.0, 0.0, b)
print(codes)
print(foreign(set(sys.modules) - snapshot, stdlib | {'airytunnel'}))
"""
    src = os.path.dirname(os.path.dirname(airytunnel.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, str(table)], capture_output=True, text=True, check=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.splitlines() == ["[]", "[0, 0, 0, 0, 0, 0, 0, 0]", "[]"]
