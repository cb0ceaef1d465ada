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
    NonSmoothError,
    RangeError,
    TunnelError,
)
from .geometry import (
    BarrierGeometry,
    action_integral,
    alpha_limit,
    analyze_barrier,
    analyze_barriers,
    find_midpoint,
    find_turning_points,
)
from .oracle import (
    OracleResult,
    exact_transmission,
    exact_transmissions,
    square_barrier_closed_form,
)
from .potential import (
    GaussianBarrier,
    ParabolicBarrier,
    Potential,
    Sech2Barrier,
    SquareBarrier,
    TabulatedPotential,
    load_tabulated,
    make_potential,
)
from .rates import RateReport, rate_report, rate_reports, t_asymptotic, t_uniform, t_wkb
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
    "NonSmoothError",
    "OracleResult",
    "ParabolicBarrier",
    "Potential",
    "RangeError",
    "RateReport",
    "Sech2Barrier",
    "SquareBarrier",
    "TabulatedPotential",
    "TunnelError",
    "WavefunctionGrid",
    "action_integral",
    "airy",
    "alpha_limit",
    "analyze_barrier",
    "analyze_barriers",
    "exact_transmission",
    "exact_transmissions",
    "find_midpoint",
    "find_turning_points",
    "load_tabulated",
    "log_bi_over_ai",
    "make_potential",
    "ode_residual",
    "psi_basis",
    "rate_report",
    "rate_reports",
    "sample_grid",
    "square_barrier_closed_form",
    "superpose",
    "t_asymptotic",
    "t_uniform",
    "t_wkb",
    "__version__",
]
