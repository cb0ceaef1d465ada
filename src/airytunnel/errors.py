"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto distinct exit codes.
"""

import numpy as np


class TunnelError(Exception):
    """Base class for all package-specific errors."""


class RangeError(TunnelError):
    """Evaluation outside the x-range of a tabulated potential."""


class FormatError(TunnelError):
    """Malformed tabulated-potential input."""


class DomainError(TunnelError):
    """Argument outside the mathematical domain of an operation."""


def _energy_ok(energy):
    """True where an energy (a float or an array of them) is positive and finite."""
    return (energy > 0.0) & np.isfinite(energy)


def energy_error(energy):
    """The DomainError of an energy that is not positive and finite, else None."""
    energy = float(energy)
    if _energy_ok(energy):
        return None
    return DomainError("energy must be positive and finite, got %r" % energy)


def first_energy_error(energies):
    """(i, energy_error(E_i)) for the first energy E_i of a 1D array that
    energy_error rejects, or (energies.size, None) if it rejects none."""
    bad = np.flatnonzero(~_energy_ok(energies))
    if not bad.size:
        return energies.size, None
    return int(bad[0]), energy_error(energies[bad[0]])


def energy_array(energies):
    """energies as a 1D float array, a scalar as an array of size one;
    ValueError beyond 1D."""
    energies = np.array(energies, dtype=float, ndmin=1)
    if energies.ndim > 1:
        raise ValueError("energies must be a scalar or 1D, got shape %s" % (energies.shape,))
    return energies


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
