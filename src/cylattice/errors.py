"""Exception hierarchy shared across the package."""


class CyLatticeError(Exception):
    """Base class for all package errors."""


class ConfigError(CyLatticeError):
    """Invalid configuration, schema violation, or unsupported option."""


class GeneralPositionError(CyLatticeError):
    """A hyperplane family failed the general-position check.

    Carries the rejection report produced by
    :func:`cylattice.geometry.check_general_position`.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class DegenerateSubsetError(CyLatticeError):
    """A hyperplane subset is numerically degenerate (near-singular)."""


class DerivativeOrderError(CyLatticeError):
    """A function was asked for derivatives beyond its declared order."""


class ConditioningError(CyLatticeError):
    """A result is not finite or too ill-conditioned to trust."""


class ConsistencyError(CyLatticeError):
    """An internal invariant failed (e.g. wrong point count on a lattice line)."""
