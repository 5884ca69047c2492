"""Rank-2 and rank-3 special Vinberg cones.

Construction from metric vector spaces and Clifford-module data, invariant
polynomials and characteristic functions, generalized Cholesky group
coordinates, duality via anti-transposition, and classification of
invariant cubics by positive-definiteness of the induced Hessian metric on
level hypersurfaces.

``cubics`` and the names it exports load on first use (PEP 562), so a
process that never touches a cubic, such as the CLI's ``build`` and
``eval``, does not import it.
"""

from .clifford import (
    MAX_GAMMA_ENTRIES,
    CliffordModule,
    MetricSpace,
    build_clifford_module,
    clifford_bilinear,
    clifford_mult,
    clifford_mult_adjoint,
    minimal_spinor_dim,
    verify_isometry,
)
from .cone import (
    ConeDescriptor,
    GroupCoordinates,
    characteristic_degree,
    characteristic_function,
    cone_from_algebra,
    d_prime,
    d_prime_via_dual,
    det_cubic,
    dual_membership,
    g_determinant_sq,
    group_coordinates,
    membership,
    p_polynomials,
)
from .errors import (
    AlgebraMismatchError,
    CliffordRelationError,
    DimensionMismatchError,
    IndefiniteSignatureError,
    ModuleTooLargeError,
    OutsideConeError,
    SpecError,
    VinbergError,
)
from .nilalgebra import (
    HermMatrix,
    NilAlgebra,
    TriangularElement,
    anti_transpose,
    dual_algebra,
    herm_from_json,
    herm_from_triangular,
    herm_from_triangular_star,
    herm_from_vector,
    herm_identity,
    herm_pairing,
    identity_triangular,
    random_triangular,
    rank2_algebra,
    rank3_special,
    triangular_product,
)

__version__ = "0.1.0"

_CUBICS_NAMES = (  # loaded on first use
    "DiagonalGrid", "DiagonalReport", "HessianReport", "InvariantCubic", "ScanCell", "SearchGrid",
    "admissibility_on_diagonal", "cubic_hessian", "eval_cubic", "find_locally_admissible_point", "gradient",
    "hessian_log", "scan_parameter_plane", "scan_to_csv", "tangent_restriction",
)


def __getattr__(name: str):
    """Import ``cubics`` on first access to it or to a name it exports, and
    bind its names here so that later accesses are plain lookups."""
    if name != "cubics" and name not in _CUBICS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    cubics = importlib.import_module(f"{__name__}.cubics")  # ``from . import`` would call back here
    globals().update({n: getattr(cubics, n) for n in _CUBICS_NAMES})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), "cubics", *_CUBICS_NAMES})


# the names ``from vinberg_cones import *`` takes, the lazy ones included
__all__ = [n for n in __dir__() if not n.startswith("_")]
