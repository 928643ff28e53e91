"""Exception hierarchy shared across the library: one class per way a caller
handles a failure."""


class CfeasError(Exception):
    """Base class for all library-specific errors.  The command line exits 1
    on any of them but InvalidSpec."""


class DimensionMismatch(CfeasError, ValueError):
    """Point dimension does not match the set's ambient dimension.
    `pair_from_json` reports it as a malformed instance."""


class NonconvergedProjection(CfeasError, RuntimeError):
    """A projection or step could not deliver a finite point: an iterative
    projection missed its residual tolerance, an eigendecomposition did not
    converge, or an entry is not finite.  The solver ends the run as
    numerical_failure on it."""


class InvalidSpec(CfeasError, ValueError):
    """Malformed input: parameters, settings, a kernel, a schedule, a
    document, a flag or a file that cannot be opened.  The command line
    exits 2 on it."""
