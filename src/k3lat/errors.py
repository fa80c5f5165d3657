"""Exception hierarchy shared across the package."""


class K3latError(Exception):
    """Base class for every error raised by this package."""


class LatticeError(K3latError):
    """Invalid lattice data or an operation outside its preconditions."""


class DegenerateEmbeddingError(LatticeError):
    """Embedding matrix is rank-deficient."""


class RankMismatchError(LatticeError):
    """Operand dimensions are incompatible."""


class NotIsotropicError(LatticeError):
    """Vector required to be isotropic (or primitive isotropic) is not."""


class OddLatticeError(LatticeError):
    """Operation requires an even lattice."""


class InvalidInputError(K3latError, ValueError):
    """An argument lies outside the range the function accepts."""


class OutputLimitError(K3latError):
    """A computed result is too large to serialize under the interpreter's limits."""


class InadmissibleError(K3latError):
    """Integer fails the admissibility congruences / quadratic-residue tests."""


class InternalConsistencyError(K3latError):
    """A condition guaranteed by theory failed to hold; indicates a bug or bad input."""


class NotPrimeError(K3latError):
    """Argument required to be prime is not."""


class UnrepresentableError(K3latError):
    """Quadratic form does not represent the requested value at the requested precision."""


class ScanCeilingError(K3latError):
    """Unbounded search gave up at its configured ceiling."""


class SearchExhaustedError(K3latError):
    """Bounded search finished without a witness and no certificate applies."""
