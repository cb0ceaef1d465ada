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
    NonSmoothError,
    RangeError,
)
from .geometry import find_turning_points
from .potential import load_tabulated, make_potential
from .rates import rate_report, rate_reports
from .wavefunction import _basis_arrays, _grid

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_NO_BARRIER = 3
EXIT_MULTI_HUMP = 4
EXIT_FILE_FORMAT = 5
EXIT_ORACLE = 6

_EPILOG = """\
exit codes:
  0  success
  2  bad arguments (including square-barrier rate requests and
     energies/windows outside the supported domain)
  3  no barrier at the requested energy (or barrier-top degeneracy)
  4  more than one barrier hump in the window
  5  potential file missing or malformed, evaluation outside its range,
     or the output file cannot be written
  6  oracle failure (window endpoints not on the zero asymptote)

potential selection: exactly one of --potential (with its family
parameters: --v0 always; --w for sech2/gaussian; --l for square) or
--potential-file. Default windows: parabolic +-1.5*sqrt(V0); sech2 and
gaussian +-20*w; square +-2.5*L; tabulated files use their sample range.
"""

_FAMILY_PARAMS = {
    "parabolic": ("v0",),
    "sech2": ("v0", "w"),
    "gaussian": ("v0", "w"),
    "square": ("v0", "l"),
}


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
        p.add_argument("--potential", choices=sorted(_FAMILY_PARAMS))
        p.add_argument("--potential-file", metavar="PATH")
        p.add_argument("--v0", type=float, help="barrier height")
        p.add_argument("--w", type=float, help="width parameter (sech2, gaussian)")
        p.add_argument("--l", type=float, help="square barrier length")
        p.add_argument("--xmin", type=float, help="window override")
        p.add_argument("--xmax", type=float, help="window override")
        p.add_argument("--output", metavar="PATH", default="-", help="CSV destination, - for stdout")
        if oracle:
            p.add_argument("--oracle", action="store_true", help="include exact transfer-matrix T")
            p.add_argument("--oracle-slices", type=int, default=4000)

    p_report = sub.add_parser("report", help="all transmission estimates at one energy")
    add_common(p_report)
    p_report.add_argument("--energy", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="estimates over an energy grid")
    add_common(p_sweep)
    p_sweep.add_argument("--emin", type=float, required=True)
    p_sweep.add_argument("--emax", type=float, required=True)
    p_sweep.add_argument("--n", type=int, required=True, help="number of energies, >= 2")

    p_wave = sub.add_parser("wavefunction", help="uniform basis pair on a grid")
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
    if args.potential_file is not None:
        for name in ("v0", "w", "l"):
            if getattr(args, name) is not None:
                raise ValueError("--%s does not apply to --potential-file" % name)
        return load_tabulated(args.potential_file)

    family = args.potential
    wanted = _FAMILY_PARAMS[family]
    params = {}
    for name in ("v0", "w", "l"):
        value = getattr(args, name)
        if name in wanted:
            if value is None:
                raise ValueError("--%s is required for %s" % (name, family))
            params[name] = value
        elif value is not None:
            raise ValueError("--%s does not apply to %s" % (name, family))
    if family == "square":
        return make_potential(family, v0=params["v0"], length=params["l"])
    return make_potential(family, **params)


def _csv(header, columns):
    """CSV lines: the header, then one row per entry of the equal-length
    columns, every number to 12 significant digits, formatted in one go."""
    cells = np.column_stack(columns)
    line = ",".join(["%.12g"] * cells.shape[1])
    return [header, "\n".join([line] * len(cells)) % tuple(cells.ravel().tolist())]


def _report_csv(reports, with_oracle):
    header = "E,a,b,c,theta,airy_arg,t_wkb,t_asymptotic,t_uniform"
    rows = [
        [r.energy, r.geometry.a, r.geometry.b, r.geometry.c, r.geometry.theta,
         r.airy_argument, r.t_wkb, r.t_asymptotic, r.t_uniform]
        for r in reports
    ]
    if with_oracle:
        header += ",t_exact,flux_defect"
        rows = [row + [r.oracle.t_exact, r.oracle.flux_defect] for row, r in zip(rows, reports)]
    return _csv(header, list(zip(*rows)))


def _run_report(args):
    pot = _build_potential(args)
    window = pot.window((args.xmin, args.xmax))
    rep = rate_report(
        pot, args.energy, window,
        with_oracle=args.oracle, oracle_slices=args.oracle_slices,
    )
    return _report_csv([rep], args.oracle)


def _run_sweep(args):
    if args.n < 2:
        raise ValueError("sweep needs --n >= 2")
    if not args.emin < args.emax:
        raise ValueError("sweep needs --emin < --emax")
    pot = _build_potential(args)
    window = pot.window((args.xmin, args.xmax))
    # One batched pass over the energy grid; rows come in increasing E.
    reports = rate_reports(
        pot, np.linspace(args.emin, args.emax, args.n), window,
        with_oracle=args.oracle, oracle_slices=args.oracle_slices,
    )
    return _report_csv(reports, args.oracle)


def _run_wavefunction(args):
    pot = _build_potential(args)
    window = pot.window((args.xmin, args.xmax))
    a, b = find_turning_points(pot, args.energy, window)
    anchor = a if args.anchor == "left" else b
    xs = _grid(pot, window, args.n)
    # The scan above already found every crossing in the window: (a, b).
    psi_ai, psi_bi, ksq, arg = _basis_arrays(pot, args.energy, anchor, xs, (a, b))
    return _csv("x,ksq,airy_arg,psi_ai,psi_bi", (xs, ksq, arg, psi_ai, psi_bi))


_DISPATCH = {
    "report": _run_report,
    "sweep": _run_sweep,
    "wavefunction": _run_wavefunction,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_exponents(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_ARGS

    try:
        text = "\n".join(_DISPATCH[args.command](args)) + "\n"
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as handle:
                handle.write(text)
    except NoBarrierError as exc:
        print("error: no barrier at this energy: %s" % exc, file=sys.stderr)
        return EXIT_NO_BARRIER
    except DegenerateTurningPointError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NO_BARRIER
    except MultiHumpUnsupported as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MULTI_HUMP
    except (FormatError, RangeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FILE_FORMAT
    except AsymptoteMismatchError as exc:
        print("error: oracle failed: %s" % exc, file=sys.stderr)
        return EXIT_ORACLE
    except (NonSmoothError, DomainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_ARGS
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
