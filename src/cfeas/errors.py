"""Exception hierarchy shared across the library."""


class CfeasError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(CfeasError, ValueError):
    """Point dimension does not match the set's ambient dimension."""


class NonconvergedProjection(CfeasError, RuntimeError):
    """An iterative projection failed to reach its residual tolerance."""


class EigenFailure(CfeasError, RuntimeError):
    """Symmetric eigendecomposition did not converge."""


class InvalidSpec(CfeasError, ValueError):
    """Malformed input: parameters, settings, a document, a flag or a file
    that cannot be opened.  The command line exits 2 on it."""


class InvalidKernel(InvalidSpec):
    """Kernel token sequence violates the admissibility invariants."""


class InvalidSchedule(InvalidSpec):
    """Step-size schedule is malformed (empty table, value outside (0,1))."""


class InsufficientTrace(CfeasError, ValueError):
    """Trace too short (or too noisy) for convergence-order estimation."""
