"""Workload catalogues and the seeded op generator.

Each workload has a fixed catalogue of op specs: families by barrier size
or anchor, three parameter sets each. The catalogue is what the reference
outputs in ``reference/`` were recorded for, and every cycle runs all of
it, so each run measures the same numerical work. The run seed sets the
cycle order (an entry of the set-up stratum first, since the first op is
the set-up op), the argv option order, and the spelling of each tabulated
barrier file: separators, float format and comment lines. The program only
ever sees argv and the generated file text.
"""

import math
import os
import random
from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = ("rates_sweep", "oracle_sweep", "wavefunction_grid")

#: Parameter sets per family and size (or anchor) in each catalogue.
ENTRIES_PER_STRATUM = 3

#: Samples and half-span (in units of w) of every generated tabulated barrier.
TAB_SAMPLES = 1201
TAB_HALF_SPAN = 6.0

#: theta at E -> 0 per unit w * sqrt(v0): pi for sech2, sqrt(2 pi) for the
#: gaussian and, to within a few per cent, for the tilted gaussian used for
#: tabulated files.
_THETA_PER_WIDTH = {"sech2": math.pi, "gaussian": math.sqrt(2.0 * math.pi),
                    "tabulated": math.sqrt(2.0 * math.pi)}

_V0 = (1.0, 3.0, 0.5)
_TILT = (0.15, 0.25, 0.35)


@dataclass(frozen=True)
class OpSpec:
    """One catalogue entry: a CLI call with everything except file text."""

    key: str
    stratum: str
    family: str
    v0: float
    w: Optional[float]
    tilt: Optional[float]
    command: str
    # Options after the subcommand, other than the potential selection.
    options: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Op:
    """A generated op: the argv the CLI sees plus what the checker needs."""

    spec: OpSpec
    argv: Tuple[str, ...]


def _width(family, theta0, v0):
    return theta0 / (_THETA_PER_WIDTH[family] * math.sqrt(v0))


def tabulated_samples(v0, w, tilt):
    """Tilted gaussian v0 exp(-z^2) (1 + tilt tanh z), z = x / w, on +-6 w."""
    xs, vs = [], []
    for i in range(TAB_SAMPLES):
        z = -TAB_HALF_SPAN + 2.0 * TAB_HALF_SPAN * i / (TAB_SAMPLES - 1)
        xs.append(z * w)
        vs.append(v0 * math.exp(-z * z) * (1.0 + tilt * math.tanh(z)))
    return xs, vs


def _peak(family, v0, w, tilt):
    if family == "tabulated":
        return max(tabulated_samples(v0, w, tilt)[1])
    return v0


def _energy_range(family, v0, w, tilt, f_lo, f_hi):
    peak = _peak(family, v0, w, tilt)
    return repr(f_lo * peak), repr(f_hi * peak)


def _rates_catalogue():
    # theta at the lowest energy spans below 1 to about 500 across sizes.
    sizes = {"small": (0.8, 1.1, 1.5), "medium": (15.0, 30.0, 60.0),
             "large": (250.0, 350.0, 500.0)}
    f_lo = (0.02, 0.05, 0.1)
    f_hi = (0.97, 0.95, 0.9)
    out = []
    for family in ("sech2", "gaussian", "parabolic", "tabulated"):
        for size, thetas in sizes.items():
            for i in range(ENTRIES_PER_STRATUM):
                if family == "parabolic":
                    # theta = pi (v0 - E) / 2 for V = v0 - x^2
                    v0, w = 2.0 * thetas[i] / math.pi, None
                else:
                    v0, w = _V0[i], _width(family, thetas[i], _V0[i])
                tilt = _TILT[i] if family == "tabulated" else None
                emin, emax = _energy_range(family, v0, w, tilt, f_lo[i], f_hi[i])
                out.append(OpSpec(
                    "%s-%s-%d" % (family, size, i), "%s-%s" % (family, size),
                    family, v0, w, tilt, "sweep",
                    (("--emin", emin), ("--emax", emax), ("--n", "32")),
                ))
    return out


def _oracle_catalogue():
    sizes = {"small": (2.0, 3.0, 4.0), "medium": (8.0, 10.0, 12.0)}
    f_lo = (0.2, 0.25, 0.3)
    f_hi = (0.8, 0.85, 0.9)
    out = []
    for family in ("sech2", "gaussian", "tabulated"):
        for size, thetas in sizes.items():
            for i in range(ENTRIES_PER_STRATUM):
                v0, w = _V0[i], _width(family, thetas[i], _V0[i])
                tilt = _TILT[i] if family == "tabulated" else None
                emin, emax = _energy_range(family, v0, w, tilt, f_lo[i], f_hi[i])
                out.append(OpSpec(
                    "%s-%s-%d" % (family, size, i), "%s-%s" % (family, size),
                    family, v0, w, tilt, "sweep",
                    (("--emin", emin), ("--emax", emax), ("--n", "3"),
                     ("--oracle", "")),
                ))
    return out


def _wavefunction_catalogue():
    # Windows of +-3 w (+-1.5 sqrt(v0) for the parabola) keep the Airy
    # argument above -10 for these sizes and energies.
    thetas = (2.0, 4.0, 6.0)
    fracs = (0.3, 0.5, 0.7)
    out = []
    for family in ("sech2", "gaussian", "parabolic", "tabulated"):
        for anchor in ("left", "right"):
            for i in range(ENTRIES_PER_STRATUM):
                if family == "parabolic":
                    v0, w = (1.0, 2.0, 3.0)[i], None
                    half = 1.5 * math.sqrt(v0)
                else:
                    v0, w = _V0[i], _width(family, thetas[i], _V0[i])
                    half = 3.0 * w
                tilt = _TILT[i] if family == "tabulated" else None
                energy = fracs[i] * _peak(family, v0, w, tilt)
                out.append(OpSpec(
                    "%s-%s-%d" % (family, anchor, i), "%s-%s" % (family, anchor),
                    family, v0, w, tilt, "wavefunction",
                    (("--energy", repr(energy)), ("--n", "401"),
                     ("--xmin", repr(-half)), ("--xmax", repr(half)),
                     ("--anchor", anchor)),
                ))
    return out


CATALOGUES = {
    "rates_sweep": _rates_catalogue,
    "oracle_sweep": _oracle_catalogue,
    "wavefunction_grid": _wavefunction_catalogue,
}

#: The stratum one of whose entries opens every cycle, as the set-up op.
SETUP_STRATUM = {
    "rates_sweep": "tabulated-large",
    "oracle_sweep": "tabulated-medium",
    "wavefunction_grid": "tabulated-left",
}


def _tabulated_text(spec, rng):
    """The barrier file for ``spec``; only its spelling depends on ``rng``."""
    xs, vs = tabulated_samples(spec.v0, spec.w, spec.tilt)
    sep = rng.choice((" ", "\t", ",", ", "))
    # Both spellings round-trip every double exactly.
    fmt = rng.choice((repr, lambda v: "%.17g" % v))
    lines = ["# tilted gaussian barrier, %d samples" % len(xs)]
    if rng.random() < 0.5:
        lines.append("")
    lines += ["%s%s%s" % (fmt(x), sep, fmt(v)) for x, v in zip(xs, vs)]
    return "\n".join(lines) + "\n"


def _argv(spec, tab_path, rng):
    if spec.family == "tabulated":
        pot = [("--potential-file", tab_path)]
    else:
        pot = [("--potential", spec.family), ("--v0", repr(spec.v0))]
        if spec.w is not None:
            pot.append(("--w", repr(spec.w)))
    pairs = pot + list(spec.options)
    rng.shuffle(pairs)
    argv = [spec.command]
    for flag, value in pairs:
        argv.append(flag)
        if value:
            argv.append(value)
    return tuple(argv)


def generate(workload, seed, work_dir):
    """The cycle of ops for ``seed``: every catalogue entry, in seeded order.

    Tabulated files go into ``work_dir``. Paths handed to the CLI are
    relative to the current directory, which is the checkout root while
    the benchmark runs.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    specs = CATALOGUES[workload]()
    rng.shuffle(specs)
    first = next(s for s in specs if s.stratum == SETUP_STRATUM[workload])
    specs.remove(first)
    specs.insert(0, first)

    os.makedirs(work_dir, exist_ok=True)
    ops = []
    for spec in specs:
        tab_path = None
        if spec.family == "tabulated":
            tab_path = os.path.join(work_dir, "%s.txt" % spec.key)
            with open(tab_path, "w") as handle:
                handle.write(_tabulated_text(spec, rng))
        ops.append(Op(spec, _argv(spec, tab_path, rng)))
    return ops
