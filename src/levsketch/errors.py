"""Exception hierarchy shared across the library."""


class LevsketchError(Exception):
    """Base class for all library errors."""


class EmptyMatrix(LevsketchError):
    """Matrix has zero rows or columns."""


class NonFiniteEntry(LevsketchError):
    """Matrix contains NaN or Inf entries."""


class NotPowerOfTwo(LevsketchError):
    """Transform length is not a power of two."""


class InvalidParameter(LevsketchError):
    """Parameter outside its admissible range."""


class DimensionMismatch(LevsketchError):
    """Operator and operand dimensions do not conform."""


class MatrixTooLargeForDenseGram(LevsketchError):
    """Dense n x n output would exceed the configured cap."""


class NonFiniteFactor(LevsketchError):
    """A computed factor overflowed: the input's scale is outside what
    float64 can invert, although its entries are finite."""


class RankDeficient(LevsketchError):
    """Matrix lost rank at the working tolerance; retry with a new seed."""


class ShapeError(LevsketchError):
    """Matrix shape violates an operation's precondition."""


class ZeroMatrix(LevsketchError):
    """Degenerate all-zero input where a nonzero norm is required."""


class InvalidKappa(LevsketchError):
    """Heavy-pair threshold parameter must exceed 1."""


class RankTooLow(LevsketchError):
    """The input's rank is below what an operation needs: the requested
    rank k, or n for the under-constrained solve. No seed changes it."""


class ParseError(LevsketchError):
    """Input file could not be parsed."""


class HeavyPairBoundExceeded(LevsketchError):
    """Heavy-pair search returned more than ceil(kappa * r) pairs."""
