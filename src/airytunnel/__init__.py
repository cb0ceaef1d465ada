"""airytunnel: tunneling through smooth 1D barriers via uniform Airy rates.

Computes the transmission of a particle through a single-hump potential
barrier three ways: the uniform Airy-ratio formula (valid through the
barrier top), its large-action asymptotic simplification, and the plain
WKB exponent; plus an independent exact transfer-matrix solver used to
grade all three.

Units: hbar**2 / 2m = 1, so energies and potentials share one unit and
k2(x) = E - V(x).
"""

from .errors import (
    AiryOverflowError,
    AsymptoteMismatchError,
    DegenerateTurningPointError,
    DomainError,
    FormatError,
    MultiHumpUnsupported,
    NoBarrierError,
    RangeError,
    TunnelError,
)
from .geometry import (
    BarrierGeometry,
    action_integral,
    alpha_limit,
    analyze_barrier,
    find_midpoint,
    find_turning_points,
)
from .oracle import OracleResult, exact_transmission
from .potential import (
    GaussianBarrier,
    ParabolicBarrier,
    Potential,
    Sech2Barrier,
    TabulatedPotential,
    load_tabulated,
    make_potential,
)
from .rates import RateReport, rate_report, t_asymptotic, t_uniform, t_wkb
from .specfun import AiryPair, airy, log_bi_over_ai
from .wavefunction import (
    WavefunctionGrid,
    ode_residual,
    psi_basis,
    sample_grid,
    superpose,
)

__version__ = "0.1.0"

__all__ = [
    "AiryOverflowError",
    "AiryPair",
    "AsymptoteMismatchError",
    "BarrierGeometry",
    "DegenerateTurningPointError",
    "DomainError",
    "FormatError",
    "GaussianBarrier",
    "MultiHumpUnsupported",
    "NoBarrierError",
    "OracleResult",
    "ParabolicBarrier",
    "Potential",
    "RangeError",
    "RateReport",
    "Sech2Barrier",
    "TabulatedPotential",
    "TunnelError",
    "WavefunctionGrid",
    "action_integral",
    "airy",
    "alpha_limit",
    "analyze_barrier",
    "exact_transmission",
    "find_midpoint",
    "find_turning_points",
    "load_tabulated",
    "log_bi_over_ai",
    "make_potential",
    "ode_residual",
    "psi_basis",
    "rate_report",
    "sample_grid",
    "superpose",
    "t_asymptotic",
    "t_uniform",
    "t_wkb",
    "__version__",
]
