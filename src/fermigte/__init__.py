"""Genuine tripartite entanglement of three localized spins in the
degenerate Fermi gas: reduced state, witnesses, robustness bound and the
distance thresholds that bracket where the entanglement disappears.
Its figure tables are built one way, by the ``gte-fermi sweep`` command."""

__version__ = "0.1.0"

import logging

# silent unless the application configures the "fermigte" logger
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .bisep import corner_hexagon, r_max_solver
from .couplings import Couplings
from .couplings import from_config as couplings_from_config
from .couplings import validate as validate_couplings
from .couplings import zero_limit as couplings_zero_limit
from .errors import (
    BracketError,
    ConvergenceFailure,
    DegenerateDenominatorError,
    DomainError,
    EmptyRegionError,
    FermiGteError,
    InvalidCouplingsError,
    NonHermitianInputError,
)
from .geometry import TriangleConfig
from .scan import analytic_limit_thresholds, find_rmin
from .specfun import Dimensionality, bessel_j1, f_factor, spherical_j1
from .tristate import (
    WernerCoords,
    expectation,
    matrix_to_text,
    min_eigenvalue,
    rho3,
    werner_coords,
)
from .witnesses import (
    GTE_THRESHOLD,
    GridScanReport,
    bounded_energy_witness,
    energy_observable,
    er_lower_bound,
    er_lower_bound_matrix,
    grid_scan_ghz_w,
    pauli_dot,
)

__all__ = [
    "__version__",
    "BracketError",
    "ConvergenceFailure",
    "Couplings",
    "DegenerateDenominatorError",
    "Dimensionality",
    "DomainError",
    "EmptyRegionError",
    "FermiGteError",
    "GridScanReport",
    "GTE_THRESHOLD",
    "InvalidCouplingsError",
    "NonHermitianInputError",
    "TriangleConfig",
    "WernerCoords",
    "analytic_limit_thresholds",
    "bessel_j1",
    "bounded_energy_witness",
    "corner_hexagon",
    "couplings_from_config",
    "couplings_zero_limit",
    "energy_observable",
    "er_lower_bound",
    "er_lower_bound_matrix",
    "expectation",
    "f_factor",
    "find_rmin",
    "grid_scan_ghz_w",
    "matrix_to_text",
    "min_eigenvalue",
    "pauli_dot",
    "r_max_solver",
    "rho3",
    "spherical_j1",
    "validate_couplings",
    "werner_coords",
]
