"""Exception types shared across the package."""


class FermiGteError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FermiGteError, ValueError):
    """An argument lies outside an operation's supported domain."""


class DegenerateDenominatorError(DomainError):
    """The singlet weights are 0/0: only the equilateral shape in limit mode."""


class InvalidCouplingsError(DomainError):
    """Coupling parameters violate their physical bounds beyond tolerance."""


class NonHermitianInputError(DomainError):
    """A matrix argument that must be Hermitian is not."""


class EmptyRegionError(DomainError):
    """The biseparability section is empty for the given parameters."""


class BracketError(FermiGteError):
    """A root-finding bracket does not straddle the expected sign change."""


class ConvergenceFailure(FermiGteError):
    """An iterative routine failed to reach the requested tolerance."""
