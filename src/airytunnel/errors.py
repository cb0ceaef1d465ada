"""Exception types, entry rules and the first-failure protocol.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto distinct exit codes. The entry rules judge an
energy (energy_error) and the points of a one-energy stage (judge). A
batched pass ends at its first failing energy: first_failure cuts its
prefix by each check, batched runs it in blocks, outcome gives its result.
"""

from dataclasses import fields, is_dataclass

import numpy as np


class TunnelError(Exception):
    """Base class for all package-specific errors."""


class RangeError(TunnelError):
    """Evaluation outside the x-range of a tabulated potential."""


class FormatError(TunnelError):
    """Malformed tabulated-potential input."""


class DomainError(TunnelError):
    """Argument outside the mathematical domain of an operation."""


class NoBarrierError(TunnelError):
    """No closed classically forbidden interval at the requested energy."""


class MultiHumpUnsupported(TunnelError):
    """More than one forbidden interval; the single-hump method does not apply."""


class DegenerateTurningPointError(TunnelError):
    """Turning point with vanishing slope of k**2 (energy at the barrier top)."""


class AsymptoteMismatchError(TunnelError):
    """Scattering domain endpoints do not sit on a common zero asymptote."""


class AiryOverflowError(TunnelError, OverflowError):
    """exp((2/3) u^(3/2)) exceeds double-precision range.

    Carries the natural-log ``exponent`` so callers can move to log domain.
    """

    def __init__(self, exponent):
        self.exponent = float(exponent)
        super().__init__(
            "Bi(u) overflows double precision: exp(%.6g) out of range; "
            "use log_bi_over_ai instead" % self.exponent
        )


def _energy_ok(energy):
    """True where an energy (a float or an array of them) is positive and finite."""
    return (energy > 0.0) & np.isfinite(energy)


def energy_error(energy):
    """The DomainError of an energy that is not positive and finite, else None."""
    energy = float(energy)
    if _energy_ok(energy):
        return None
    return DomainError("energy must be positive and finite, got %r" % energy)


def judge(energy, **points):
    """(energy, *points) for a one-energy stage: the energy as a float,
    judged by energy_error, then each named point, a float for a scalar and
    else as given, a DomainError where it is not finite."""
    exc = energy_error(energy)
    if exc is not None:
        raise exc
    for name, x in points.items():
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise DomainError("%s must be finite, got %r" % (name, float(np.ravel(x)[bad[0]])))
    return (float(energy), *(float(x) if np.ndim(x) == 0 else x for x in points.values()))


def first_failure(k, exc, *checks):
    """(k, exc) lowered to the first position below k that a check rejects,
    with that position's error; k is the length of the prefix still in
    play and exc the error at k, or None.

    A check is a (mask, build_error) pair, build_error(p) giving the error
    at position p. The checks run in order, so of two that reject one
    position the earlier one's error stands.
    """
    for mask, build_error in checks:
        bad = np.flatnonzero(mask[:k])
        if bad.size:
            k = int(bad[0])
            exc = build_error(k)
    return k, exc


def as_1d(values, name):
    """(values as a 1D float array, whether it was a scalar); ValueError beyond 1D."""
    scalar = np.ndim(values) == 0
    values = np.array(values, dtype=float, ndmin=1)
    if values.ndim > 1:
        raise ValueError("%s must be a scalar or 1D, got shape %s" % (name, values.shape))
    return values, scalar


def batched(run, energies, empty, block=None):
    """(record, exc): run over a scalar or a 1D array of energies, up to
    the first that fails, and that energy's exception, or None.

    run(energies) returns the same pair for a 1D array of energies that
    pass the energy rule: a record (a dataclass) of arrays, entry i that of
    energy i, and the error of the first failing energy, or None. The
    energy rule runs first; the energies before the first it rejects run in
    blocks of ``block`` (one block if None), in order, up to the block of
    the first failure. An error that run raises, a failure of the stage as a
    whole (a bad window, a root search that does not converge), is that of
    its block's first energy. empty is the record of no energy. energies
    beyond 1D raise as_1d's ValueError.
    """
    energies, _ = as_1d(energies, "energies")
    bad = ~_energy_ok(energies)
    k, exc = first_failure(energies.size, None, (bad, lambda p: energy_error(energies[p])))
    parts, step = [], block or max(k, 1)
    for i in range(0, k, step):
        try:
            record, failed = run(energies[i:min(k, i + step)])
        except (TunnelError, ValueError, ArithmeticError) as error:
            record, failed = empty, error
        parts.append(record)
        if failed is not None:
            exc = failed
            break
    columns = ([getattr(p, f.name) for p in parts or [empty]] for f in fields(empty))
    return type(empty)(*map(np.concatenate, columns)), exc


def _entry(record, i):
    """Entry i of a record (a dataclass) of arrays, as a record of Python
    scalars; a field that is itself such a record becomes its entry i."""
    values = []
    for field in fields(record):
        value = getattr(record, field.name)
        if is_dataclass(value):
            value = _entry(value, i)
        elif value is not None:
            value = value[i].item()
        values.append(value)
    return type(record)(*values)


def outcome(record, exc, energy):
    """An entry point's result: raise exc, the error of the first failing
    energy, as a loop of one-energy calls would; else the record of arrays,
    or its one entry as a record of Python scalars when energy is a scalar."""
    if exc is not None:
        raise exc
    return _entry(record, 0) if np.ndim(energy) == 0 else record
