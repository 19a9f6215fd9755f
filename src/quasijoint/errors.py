"""Exception types shared across the package."""


class QuasiJointError(Exception):
    """Base class for every error raised by this package."""


class NotHermitianError(QuasiJointError, ValueError):
    """Matrix is not Hermitian within the requested tolerance, or not finite.

    ``index`` is the (row, column) of the offending entry when there is one.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ConvergenceError(QuasiJointError, RuntimeError):
    """The iterative eigensolver or SVD failed to converge."""


class EmptyMatrixError(QuasiJointError, ValueError):
    """Matrix with zero rows or columns where data is required."""


class DomainError(QuasiJointError, ValueError):
    """Scalar or structural argument outside its documented domain."""


class DimensionMismatchError(QuasiJointError, ValueError):
    """Operator and state dimensions do not agree."""


class NonRealExpectationError(QuasiJointError, ArithmeticError):
    """Expectation value carries a non-negligible imaginary part."""


class RankDeficientError(QuasiJointError, RuntimeError):
    """Coefficient map does not determine the state (rank below N^2 - 1)."""


class SupportMismatchError(QuasiJointError, ValueError):
    """Distribution carries weight off the reconstruction support."""


class UnsupportedSchemeError(QuasiJointError, ValueError):
    """Scheme has no finite atom decomposition (symmetric mixing)."""


class ParseError(QuasiJointError, ValueError):
    """Malformed input file (bad JSON, missing keys, wrong shapes)."""


class ValidationError(QuasiJointError, ValueError):
    """Well-formed input violating a domain constraint.

    ``field`` names the offending entry, path-style (e.g. ``matrix[0][1]``).
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
