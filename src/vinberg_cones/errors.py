"""Semantic exceptions shared by all modules."""


class VinbergError(Exception):
    """Base error for this package."""


class DimensionMismatchError(VinbergError, ValueError):
    """Vector or matrix dimensions do not match the declared structure."""


class AlgebraMismatchError(VinbergError, ValueError):
    """Operands belong to different Nil-algebras."""


class IndefiniteSignatureError(VinbergError, ValueError):
    """A spec or a module asks for a signature [p, q] with q > 0: a split
    metric makes no convex cone, so every space is Euclidean."""


class OutsideConeError(VinbergError, ArithmeticError):
    """A point is outside the open cone (or too close to its boundary)."""


class SpecError(VinbergError, ValueError):
    """Malformed cone specification or serialized object."""


class CliffordRelationError(VinbergError, ArithmeticError):
    """A gamma or J family fails one of its exact integer relations."""


class ModuleTooLargeError(VinbergError):
    """A requested Clifford module, or the dense dim_herm x dim_herm forms
    of a rank-2 spec's self-test, exceed the documented size bound
    MAX_GAMMA_ENTRIES."""
