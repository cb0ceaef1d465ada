"""Command-line front end: single-energy reports, sweeps, wavefunction dumps.

All output is CSV with a header row, every numeric field printed to 12
significant digits, buffered so a failure never emits a partial file.
"""

import argparse
import re
import sys
from functools import lru_cache

import numpy as np

from .errors import (
    AsymptoteMismatchError,
    DegenerateTurningPointError,
    DomainError,
    FormatError,
    MultiHumpUnsupported,
    NoBarrierError,
    RangeError,
    energy_error,
)
from .geometry import find_turning_points
from .potential import FAMILY_PARAMS, load_tabulated, make_potential
from .rates import rate_report
from .wavefunction import _basis_arrays, _grid

_EPILOG = """\
exit codes:
  0  success
  2  bad arguments (including energies/windows outside the supported
     domain and arithmetic that leaves double-precision range)
  3  no barrier at the requested energy (or barrier-top degeneracy)
  4  more than one barrier hump in the window
  5  potential file missing or malformed, evaluation outside its range,
     or the output file cannot be written
  6  oracle failure (window endpoints not on the zero asymptote)

potential selection: exactly one of --potential (with its family
parameters: --v0 always; --w for sech2/gaussian) or --potential-file.
Default windows: parabolic +-1.5*sqrt(V0); sech2 and gaussian +-20*w;
tabulated files use their sample range.
"""

#: A failure's (exception types, exit code, message prefix); the first
#: row that matches wins. AiryOverflowError is an ArithmeticError, and a
#: missing file an OSError.
_EXITS = (
    (NoBarrierError, 3, "no barrier at this energy: "),
    (DegenerateTurningPointError, 3, ""),
    (MultiHumpUnsupported, 4, ""),
    ((FormatError, RangeError, OSError), 5, ""),
    (AsymptoteMismatchError, 6, "oracle failed: "),
    ((DomainError, ValueError, ArithmeticError), 2, ""),
)


# The argparse of Python 3.10 and 3.11 reads only -N and -N.N as negative
# numbers, so there a value in exponent form, as %.12g prints it, reads as
# an option: --xmin -1e1 fails where --xmin -10 works.
_LONG_OPTION = re.compile(r"--\w[\w-]*")
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][+-]?\d+")


def _join_negative_exponents(argv):
    """argv with each negative number in exponent form joined to the long
    option before it: --xmin -1e1 becomes --xmin=-1e1."""
    out = []
    for arg in argv:
        if out and _LONG_OPTION.fullmatch(out[-1]) and _NEGATIVE_EXPONENT.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and shared by every main() call.

    Building it takes about a millisecond, a sizeable share of a warm op.
    parse_args leaves it unchanged, so one parser serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="airytunnel",
        description="Tunneling transmission through smooth 1D barriers: "
        "uniform Airy rate, asymptotic rate, WKB, and an exact "
        "transfer-matrix check.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, oracle=True):
        p.add_argument("--potential", choices=sorted(FAMILY_PARAMS))
        p.add_argument("--potential-file", metavar="PATH")
        p.add_argument("--v0", type=float, help="barrier height")
        p.add_argument("--w", type=float, help="width parameter (sech2, gaussian)")
        p.add_argument("--xmin", type=float, help="window override")
        p.add_argument("--xmax", type=float, help="window override")
        p.add_argument("--output", metavar="PATH", default="-", help="CSV destination, - for stdout")
        if oracle:
            p.add_argument("--oracle", action="store_true", help="include exact transfer-matrix T")
            p.add_argument("--oracle-slices", type=int, default=4000)

    p_report = sub.add_parser("report", help="all transmission estimates at one energy")
    p_report.set_defaults(run=_run_rates)
    add_common(p_report)
    p_report.add_argument("--energy", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="estimates over an energy grid")
    p_sweep.set_defaults(run=_run_rates)
    add_common(p_sweep)
    p_sweep.add_argument("--emin", type=float, required=True)
    p_sweep.add_argument("--emax", type=float, required=True)
    p_sweep.add_argument("--n", type=int, required=True, help="number of energies, >= 2")

    p_wave = sub.add_parser("wavefunction", help="uniform basis pair on a grid")
    p_wave.set_defaults(run=_run_wavefunction)
    add_common(p_wave, oracle=False)
    p_wave.add_argument("--energy", type=float, required=True)
    p_wave.add_argument("--n", type=int, default=401, help="grid points, >= 2")
    p_wave.add_argument(
        "--anchor",
        choices=("left", "right"),
        default="left",
        help="which turning point anchors the action",
    )
    return parser


def _build_potential(args):
    if (args.potential is None) == (args.potential_file is None):
        raise ValueError("choose exactly one of --potential or --potential-file")
    source = args.potential or "--potential-file"
    wanted = FAMILY_PARAMS.get(args.potential, ())
    for name in ("v0", "w"):
        given = getattr(args, name) is not None
        if given and name not in wanted:
            raise ValueError("--%s does not apply to %s" % (name, source))
        if name in wanted and not given:
            raise ValueError("--%s is required for %s" % (name, source))
    if args.potential_file is not None:
        return load_tabulated(args.potential_file)
    return make_potential(args.potential, **{name: getattr(args, name) for name in wanted})


def _csv(header, columns):
    """CSV lines: the header, then one row per entry of the equal-length
    columns, every number to 12 significant digits, formatted in one go."""
    cells = np.column_stack(columns)
    line = ",".join(["%.12g"] * cells.shape[1])
    return [header, "\n".join([line] * len(cells)) % tuple(cells.ravel().tolist())]


def _report_csv(report, with_oracle):
    """The CSV of a RateReport of arrays, one row per energy."""
    geom = report.geometry
    header = "E,a,b,c,theta,airy_arg,t_wkb,t_asymptotic,t_uniform"
    columns = [report.energy, geom.a, geom.b, geom.c, geom.theta, report.airy_argument,
               report.t_wkb, report.t_asymptotic, report.t_uniform]
    if with_oracle:
        header += ",t_exact,flux_defect"
        columns += [report.oracle.t_exact, report.oracle.flux_defect]
    return _csv(header, columns)


def _run_rates(args):
    """report and sweep: one batched pass over the energies, one row each;
    a report is a sweep of the one energy --energy."""
    sweep = args.command == "sweep"
    if sweep and args.n < 2:
        raise ValueError("sweep needs --n >= 2")
    if sweep and not args.emin < args.emax:
        raise ValueError("sweep needs --emin < --emax")
    pot = _build_potential(args)
    window = pot.window((args.xmin, args.xmax))
    if sweep:
        # Both ends are judged before linspace, which turns an infinite end into nan.
        exc = energy_error(args.emin) or energy_error(args.emax)
        if exc is not None:
            raise exc
        energies = np.linspace(args.emin, args.emax, args.n)
    else:
        energies = [args.energy]
    report = rate_report(
        pot, energies, window, with_oracle=args.oracle, oracle_slices=args.oracle_slices
    )
    return _report_csv(report, args.oracle)


def _run_wavefunction(args):
    pot = _build_potential(args)
    window = pot.window((args.xmin, args.xmax))
    a, b = find_turning_points(pot, args.energy, window)
    anchor = a if args.anchor == "left" else b
    xs = _grid(pot, window, args.n)
    # find_turning_points already took every crossing in the window: (a, b).
    psi_ai, psi_bi, ksq, arg = _basis_arrays(pot, args.energy, anchor, xs, (a, b))
    return _csv("x,ksq,airy_arg,psi_ai,psi_bi", (xs, ksq, arg, psi_ai, psi_bi))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_exponents(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else 2

    try:
        text = "\n".join(args.run(args)) + "\n"
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
    except Exception as exc:
        for types, code, prefix in _EXITS:
            if isinstance(exc, types):
                print("error: %s%s" % (prefix, exc), file=sys.stderr)
                return code
        raise
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
