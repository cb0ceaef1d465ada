"""CLI contract: CSV shape, exit codes, determinism, formatting."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import airytunnel
from airytunnel import geometry
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
    assert float(fields[4]) == pytest.approx(math.pi * (1 - math.sqrt(0.5)), rel=1e-9)


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
        # theta = pi (V0 - E) / 2 for the parabolic family
        assert float(fields[6]) == pytest.approx(math.exp(-math.pi * (1.0 - energy)), rel=1e-9)
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
    # square barrier has no slope limits, so rate commands reject it
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
    # wavefunction window reaching past the Airy range (u near -15.2 at x = -9)
    code, out, err = run_cli(
        capsys, "wavefunction", "--potential", "parabolic", "--v0", "1.0",
        "--energy", "0.5", "--xmin", "-9.0", "--xmax", "1.5", "--n", "41",
    )
    assert code == 2 and out == ""
    assert "airy argument -15.2" in err


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


def test_wavefunction_scans_for_turning_points_once(capsys, monkeypatch):
    # the turning-point scan already finds every crossing in the window
    scans = []
    sign_changes = geometry._sign_changes

    def counted(v, energies):
        scans.append(v.size)
        return sign_changes(v, energies)

    monkeypatch.setattr(geometry, "_sign_changes", counted)
    code, _, _ = run_cli(
        capsys, "wavefunction", "--potential", "sech2", "--v0", "1.0", "--w", "1.0",
        "--energy", "0.5", "--n", "41",
    )
    assert code == 0
    assert scans == [geometry.DEFAULT_SCAN_POINTS]


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
    assert abs(xs[args.argmin()] - math.sqrt(0.5)) < 0.1


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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: the CLI loads nothing else
    # outside the standard library, scipy included.
    code = (
        "import sys; before = set(sys.modules); import airytunnel.cli; "
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'airytunnel'}; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed))"
    )
    src = os.path.dirname(os.path.dirname(airytunnel.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"
