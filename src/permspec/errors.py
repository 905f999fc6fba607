"""Exception hierarchy shared across the package."""


class PermspecError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPermutationError(PermspecError, ValueError):
    """Input sequence is not a valid permutation (or has duplicate entries)."""


class DecompositionError(PermspecError, ValueError):
    """Permutation too small to decompose (size 0 or 1)."""


class InvalidInputError(PermspecError, ValueError):
    """An argument violates a documented precondition."""


class TrivialClassError(PermspecError, ValueError):
    """Basis defines a class without both 12 and 21 (or an empty class)."""


class NotAntichainError(PermspecError, ValueError):
    """Basis patterns are comparable under the containment order."""


class NonDisjointSystemError(PermspecError, ValueError):
    """Operation requires a disjoint (unambiguous) equation system."""


class SampleError(PermspecError, ValueError):
    """No object of the requested size exists in the class."""
