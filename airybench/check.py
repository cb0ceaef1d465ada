"""Output checks for one op: invariants plus reference values.

The invariants need no reference: the energy grid, a < c < b,
airy_arg = (3 theta / 4)^(2/3), t_wkb = exp(-2 theta), finite non-negative
t_*, the oracle's flux-defect bound, and the wavefunction grid and Airy
range. Reference values were recorded from the seed commit by
``record_reference.py`` for every catalogue entry.

REL_TOL = 1e-8 equals the tightest bound the acceptance suite puts on an
approximate output (criterion 8, the uniform wavefunction) and is tighter
than its oracle (1e-6) and rate (1e-3) bounds.
"""

import json
import math
import os

REL_TOL = 1e-8
#: The oracle's own bound on |T + R - 1| in the test suite.
FLUX_DEFECT_BOUND = 1e-10
#: Wavefunction references keep every WAVE_STRIDE-th row plus column RMS.
WAVE_STRIDE = 10

SWEEP_HEADER = "E,a,b,c,theta,airy_arg,t_wkb,t_asymptotic,t_uniform"
ORACLE_HEADER = SWEEP_HEADER + ",t_exact,flux_defect"
WAVE_HEADER = "x,ksq,airy_arg,psi_ai,psi_bi"

# Every printed field carries 12 significant digits.
_PRINT_REL = 1e-11
# Values below this are subnormal or zero; compare them absolutely.
_TINY = 1e-300

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class CheckError(Exception):
    """An op's output broke an invariant or missed its reference."""


def parse_csv(text):
    lines = text.rstrip("\n").split("\n")
    width = len(lines[0].split(","))
    try:
        rows = [[float(f) for f in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckError("non-numeric field: %s" % exc) from None
    _expect(all(len(r) == width for r in rows), "rows do not match the header's %d columns", width)
    return lines[0], rows


def option(spec, flag):
    return dict(spec.options)[flag]


def reference_rows(spec, rows):
    """What the reference file keeps of an op's rows."""
    if spec.command == "wavefunction":
        rms = [math.sqrt(sum(r[j] ** 2 for r in rows) / len(rows)) for j in range(5)]
        return {"rows": rows[::WAVE_STRIDE], "rms": rms}
    return {"rows": rows}


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, workload + ".json")) as handle:
        return json.load(handle)


def spec_record(spec):
    """The catalogue fields a reference entry was recorded for."""
    return [spec.family, spec.v0, spec.w, spec.tilt, [list(p) for p in spec.options]]


def _close(got, want, floor=0.0):
    return abs(got - want) <= REL_TOL * max(abs(want), floor) + _TINY


def _expect(cond, message, *args):
    if not cond:
        raise CheckError(message % args)


def _check_sweep(spec, header, rows):
    oracle = ("--oracle", "") in spec.options
    _expect(header == (ORACLE_HEADER if oracle else SWEEP_HEADER), "header %r", header)
    n = int(option(spec, "--n"))
    emin, emax = float(option(spec, "--emin")), float(option(spec, "--emax"))
    _expect(len(rows) == n, "%d rows, expected %d", len(rows), n)
    for i, row in enumerate(rows):
        _expect(all(math.isfinite(v) for v in row), "row %d not finite: %r", i, row)
        e, a, b, c, theta, airy_arg, t_wkb = row[:7]
        e_want = emin + i * (emax - emin) / (n - 1)
        _expect(abs(e - e_want) <= _PRINT_REL * e_want, "row %d: E %r != %r", i, e, e_want)
        _expect(a < c < b, "row %d: not a < c < b (%r, %r, %r)", i, a, c, b)
        u_want = (0.75 * theta) ** (2.0 / 3.0)
        _expect(abs(airy_arg - u_want) <= 1e-9 * u_want,
                "row %d: airy_arg %r != (3 theta/4)^(2/3) = %r", i, airy_arg, u_want)
        # theta carries a relative print error, which exp(-2 theta) scales by 2 theta.
        w_want = math.exp(-2.0 * theta)
        _expect(abs(t_wkb - w_want) <= (2.0 * theta + 1.0) * _PRINT_REL * w_want + _TINY,
                "row %d: t_wkb %r != exp(-2 theta) = %r", i, t_wkb, w_want)
        _expect(min(row[6:9]) >= 0.0, "row %d: negative t: %r", i, row[6:9])
        if oracle:
            _expect(0.0 <= row[9] <= 1.0 + 1e-9, "row %d: t_exact %r", i, row[9])
            _expect(row[10] <= FLUX_DEFECT_BOUND, "row %d: flux defect %r", i, row[10])


def _check_wave(spec, header, rows):
    _expect(header == WAVE_HEADER, "header %r", header)
    n = int(option(spec, "--n"))
    lo, hi = float(option(spec, "--xmin")), float(option(spec, "--xmax"))
    _expect(len(rows) == n, "%d rows, expected %d", len(rows), n)
    ksq_scale = max(abs(r[1]) for r in rows)
    for i, (x, ksq, arg, psi_ai, psi_bi) in enumerate(rows):
        _expect(all(math.isfinite(v) for v in (x, ksq, arg, psi_ai, psi_bi)),
                "row %d not finite", i)
        x_want = lo + i * (hi - lo) / (n - 1)
        _expect(abs(x - x_want) <= _PRINT_REL * (hi - lo), "row %d: x %r != %r", i, x, x_want)
        _expect(arg >= -10.0 - 1e-9, "row %d: Airy argument %r below -10", i, arg)
        if abs(ksq) > 1e-9 * ksq_scale and arg != 0.0:
            _expect((arg > 0.0) == (ksq < 0.0), "row %d: sign(airy_arg) != -sign(ksq)", i)


def _compare_reference(spec, rows, ref):
    got = reference_rows(spec, rows)
    want_rows = ref["rows"]
    _expect(len(got["rows"]) == len(want_rows), "reference has %d rows", len(want_rows))
    wave = spec.command == "wavefunction"
    for i, (g_row, w_row) in enumerate(zip(got["rows"], want_rows)):
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if wave:
                floor = ref["rms"][j]
            elif j in (1, 2, 3):  # a, b, c: position error relative to b - a
                floor = w_row[2] - w_row[1]
            elif j == 10:  # flux_defect is rounding noise; bound-checked above
                continue
            else:
                floor = 0.0
            _expect(_close(g, w, floor), "row %d col %d: %r vs reference %r", i, j, g, w)
    for j, (g, w) in enumerate(zip(got.get("rms", ()), ref.get("rms", ()))):
        _expect(_close(g, w), "column %d RMS %r vs reference %r", j, g, w)


def check_op(spec, text, reference):
    """Raise CheckError unless ``text`` is a correct CSV for ``spec``."""
    header, rows = parse_csv(text)
    if spec.command == "wavefunction":
        _check_wave(spec, header, rows)
    else:
        _check_sweep(spec, header, rows)
    entry = reference["entries"].get(spec.key)
    _expect(entry is not None, "no reference for %s", spec.key)
    _expect(entry["spec"] == spec_record(spec), "reference for %s is for another op", spec.key)
    _compare_reference(spec, rows, entry)
