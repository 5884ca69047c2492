"""Semantic exceptions shared by all modules."""


class VinbergError(Exception):
    """Base error for this package."""


class DimensionMismatchError(VinbergError, ValueError):
    """Vector or matrix dimensions do not match the declared structure."""


class AlgebraMismatchError(VinbergError, ValueError):
    """Operands belong to different Nil-algebras."""


class IndefiniteSignatureError(VinbergError, ValueError):
    """Operation requires a Euclidean algebra but got an indefinite one."""


class OutsideConeError(VinbergError, ArithmeticError):
    """A point is outside the open cone (or too close to its boundary)."""


class SpecError(VinbergError, ValueError):
    """Malformed cone specification or serialized object."""


class CliffordRelationError(VinbergError, ArithmeticError):
    """A gamma or J family fails one of its exact integer relations."""


class ModuleTooLargeError(VinbergError):
    """A requested Clifford module, or the entry space of a rank-2 spec,
    exceeds the documented size bound MAX_GAMMA_ENTRIES."""
