"""Exception hierarchy for goglattice.

Everything the library raises on bad domain input derives from GogError so
the command-line front end can map any of it onto a single exit code.
Triangle validation errors additionally carry the first offending 1-based
position (row, column) in reading order.

Every size, count and state bound is worded here, by `bound_error`.  A
caller keeps the passing check an inline comparison,
``if not low <= v <= limit: raise bound_error(...)``, and the guard builds
the exception for the side that failed.  A size or count from a caller is
an exact int, so an entry point tests its type first,
``if type(v) is not int or not low <= v <= limit``; a bool is not a size:

- not an exact int, ``TypeError("<what> needs an int <name>, got <type>
  <v>")``;
- below `low`, ``ValueError("<what> needs <name> >= <low>, got <v>")``;
- above a `limit` that a knob raises, ``LimitExceeded("<what> limit is
  <limit>, got <name>=<v>; raise `<knob>` (default <CONSTANT> = <D>)")``,
  whose head names a knob other than `limit` ("<what> count limit is ...")
  or is replaced by the caller's own;
- above a hard cap, which no knob raises, ``LimitExceeded("<what> holds
  <name> <= <cap>, got <name>=<v>")``.
"""

from __future__ import annotations


class GogError(Exception):
    """Base class for all domain errors raised by this package."""


class TriangleError(GogError):
    """A candidate triangle violates one of the defining conditions."""

    def __init__(self, message: str, position: tuple[int, int] | None = None):
        super().__init__(message)
        self.position = position


class ShapeMismatch(TriangleError):
    """Row count or row lengths do not form a triangular array."""


class StrictIncreaseViolated(TriangleError):
    """Some row is not strictly increasing."""


class InterlacingViolated(TriangleError):
    """Adjacent rows fail the interlacing bracket a(i,j) <= a(i-1,j) <= a(i,j+1)."""


class BadBottomRow(TriangleError):
    """The bottom row is not exactly 1, 2, ..., n."""


class SizeTooSmall(GogError):
    """The requested construction needs a larger triangle size."""


class NotAColumnSumMatrix(GogError):
    """A 0/1 matrix fails the column-sum matrix conditions."""


class NotAnASM(GogError):
    """A matrix fails the alternating-sign matrix conditions."""


class NotAPermutation(GogError):
    """A value sequence is not a rearrangement of 1..n."""


class SizeMismatch(GogError):
    """Operands of a lattice operation have different sizes."""


class EmptyInput(GogError):
    """A nonempty sequence of triangles was required."""


class RowOutOfRange(GogError):
    """A row index lies outside the admissible range."""


class LimitExceeded(GogError):
    """The requested size exceeds a configured enumeration or DP limit."""


def bound_error(
    what: str, name: str, value: int, low: int, limit: int | None = None,
    default: str | None = None, knob: str = "limit", head: str | None = None,
) -> TypeError | ValueError | LimitExceeded:
    """The exception, for the caller to raise, for `name` = `value` of `what`
    not an exact int or outside [low, limit]; `default` is the knob's default
    as f"{CONSTANT=}".

    >>> bound_error("asm_number", "n", -1, 0)
    ValueError('asm_number needs n >= 0, got -1')
    >>> CENSUS_LIMIT_DEFAULT = 18
    >>> print(bound_error("census", "n", 19, 1, 18, f"{CENSUS_LIMIT_DEFAULT=}"))
    census limit is 18, got n=19; raise `limit` (default CENSUS_LIMIT_DEFAULT = 18)
    >>> print(bound_error("the successor index", "n", 17, 1, 16))
    the successor index holds n <= 16, got n=17
    >>> bound_error("sample_uniform", "n", True, 1)
    TypeError('sample_uniform needs an int n, got bool True')
    """
    if type(value) is not int:
        return TypeError(f"{what} needs an int {name}, got {type(value).__name__} {value!r}")
    if value < low:
        return ValueError(f"{what} needs {name} >= {low}, got {value}")
    if default is None:
        return LimitExceeded(f"{what} holds {name} <= {limit}, got {name}={value}")
    if head is None:
        head = f"{what} {knob.replace('_', ' ')} is {limit}, got {name}={value}"
    return LimitExceeded(f"{head}; raise `{knob}` (default {default.replace('=', ' = ')})")


class IndexOutOfRange(GogError):
    """A rank is outside [0, A(n))."""


class FormatError(GogError):
    """A text input does not conform to one of the documented file formats."""


class VerificationFailure(GogError):
    """An invariant suite found a counterexample."""
