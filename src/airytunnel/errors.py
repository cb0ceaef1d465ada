"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto distinct exit codes.
"""

import math


class TunnelError(Exception):
    """Base class for all package-specific errors."""


class RangeError(TunnelError):
    """Evaluation outside the x-range of a tabulated potential."""


class NonSmoothError(TunnelError):
    """Derivative requested from a potential with jumps (square barrier)."""


class FormatError(TunnelError):
    """Malformed tabulated-potential input."""


class DomainError(TunnelError):
    """Argument outside the mathematical domain of an operation."""


def energy_error(energy):
    """The DomainError of an energy that is not positive and finite, else None."""
    energy = float(energy)
    if energy > 0.0 and math.isfinite(energy):
        return None
    return DomainError("energy must be positive and finite, got %r" % energy)


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

    def __init__(self, exponent, message=None):
        self.exponent = float(exponent)
        if message is None:
            message = (
                "Bi(u) overflows double precision: exp(%.6g) out of range; "
                "use log_bi_over_ai instead" % self.exponent
            )
        super().__init__(message)
