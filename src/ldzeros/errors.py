"""Exception taxonomy shared across modules.

The CLI maps every class here onto an exit code (`cli.EXIT_CODES`): domain
(usage) errors -> 1, indeterminate numerics under --strict -> 2, resource
errors -> 3, accuracy, conditioning, near-zero and truncation errors
(numerical) -> 4, cache errors -> 5.
"""


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


class ResourceError(RuntimeError):
    """A computation exceeds its configured budget (term counts, expansion size)."""


class AccuracyError(RuntimeError):
    """An iteration or quadrature failed to reach its accuracy target."""


class ConditioningError(RuntimeError):
    """A value cannot be produced to useful accuracy at this point."""


class NearZeroError(RuntimeError):
    """A denominator is below its conditioning floor (signals proximity to a zero)."""


class IndeterminateError(RuntimeError):
    """A certificate could not be produced; the result is neither true nor false."""


class ContourProximityError(IndeterminateError):
    """A contour passes too close to a zero for its count to be certified."""


class TruncationError(RuntimeError):
    """A truncation bound exceeds the requested tolerance."""


class CacheError(RuntimeError):
    """Stored artifact disagrees with its recorded key or hash."""
