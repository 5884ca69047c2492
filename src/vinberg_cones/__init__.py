"""Rank-2 and rank-3 special Vinberg cones.

Construction from metric vector spaces and Clifford-module data, invariant
polynomials and characteristic functions, generalized Cholesky group
coordinates, duality via anti-transposition, and classification of
invariant cubics by positive-definiteness of the induced Hessian metric on
level hypersurfaces.
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
    characteristic_exponents,
    characteristic_function,
    cone_from_algebra,
    d_prime,
    d_prime_via_dual,
    det_cubic,
    dual_cone,
    dual_membership,
    g_determinant_sq,
    group_coordinates,
    membership,
    p_polynomials,
)
from .cubics import (
    DiagonalGrid,
    DiagonalReport,
    HessianReport,
    InvariantCubic,
    ScanCell,
    SearchGrid,
    admissibility_on_diagonal,
    cubic_hessian,
    eval_cubic,
    find_locally_admissible_point,
    gradient,
    hessian_log,
    no_g0_cubic_check,
    scan_parameter_plane,
    scan_to_csv,
    tangent_restriction,
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
    anti_transpose_triangular,
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
