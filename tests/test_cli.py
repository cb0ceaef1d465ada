"""CLI contract: CSV shape, exit codes, determinism, formatting."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import airytunnel
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


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, airytunnel.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = os.path.dirname(os.path.dirname(airytunnel.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"
