"""Analytic core of a Vinberg cone.

Membership, the polynomials p_i, the squared G-determinant, group
coordinates (generalized Cholesky decomposition of X = A . A^*), the
characteristic function, and the dual cone {A^* . A} with its degree-3
rational invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IndefiniteSignatureError, OutsideConeError, SpecError
from .nilalgebra import (
    HermMatrix,
    NilAlgebra,
    TriangularElement,
    anti_transpose,
    check_same_algebra,
    dual_algebra,
    herm_from_triangular,
)

RADICAND_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ConeDescriptor:
    """A rank-2 or rank-3 cone: algebra, ambient dimension and the
    exponents n_i = 1 + (1/2) sum_{s != i} dim N_is (kept as exact
    rationals)."""

    algebra: NilAlgebra
    dim_herm: int
    exponents: tuple[Fraction, ...]

    @property
    def rank(self) -> int:
        return self.algebra.rank

    @property
    def is_euclidean(self) -> bool:
        return self.algebra.is_euclidean


def cone_from_algebra(algebra: NilAlgebra) -> ConeDescriptor:
    m = algebra.rank
    exps = []
    for i in range(1, m + 1):
        total = sum(
            algebra.dim((min(i, s), max(i, s))) for s in range(1, m + 1) if s != i
        )
        exps.append(1 + Fraction(total, 2))
    return ConeDescriptor(algebra, algebra.herm_dim, tuple(exps))


def dual_cone(cone: ConeDescriptor) -> ConeDescriptor:
    return cone_from_algebra(dual_algebra(cone.algebra))


def _require_euclidean(cone: ConeDescriptor) -> None:
    if not cone.is_euclidean:
        raise IndefiniteSignatureError(
            "operation defined for Euclidean algebras only"
        )


# ---------------------------------------------------------------------------
# Invariant polynomials
# ---------------------------------------------------------------------------


def _det_form(alg: NilAlgebra, X: HermMatrix) -> float:
    """x1 x2 x3 - x3 |x12|^2 - x2 |x13|^2 - x1 |x23|^2 + 2 <x12 . x23, x13>
    on a rank-3 algebra of either kind."""
    x1, x2, x3 = X.diag
    x12, x13, x23 = X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    return (
        x1 * x2 * x3
        - x3 * alg.norm_sq((1, 2), x12)
        - x2 * alg.norm_sq((1, 3), x13)
        - x1 * alg.norm_sq((2, 3), x23)
        + 2.0 * alg.ip((1, 3), alg.mult(x12, x23), x13)
    )


def det_cubic(cone: ConeDescriptor, X: HermMatrix) -> float:
    """The determinant cubic d(X) of a rank-3 special cone:

        d = x1 x2 x3 - x3 |s0|^2 - x2 |s1|^2 - x1 |v|^2 + 2 <s0 . v, s1>

    with s0, s1, v the entries at (1,2), (1,3), (2,3).  Equals the squared
    G-determinant: d(A . A^*) = (a11 a22 a33)^2.
    """
    check_same_algebra(cone.algebra, X)
    if cone.algebra.kind != "rank3-special":
        raise SpecError("determinant cubic requires a rank-3 special algebra")
    return _det_form(cone.algebra, X)


def _p1_rank3(cone: ConeDescriptor, X: HermMatrix) -> float:
    """Degree-4 polynomial p_1 = x3 * pi^2 for any rank-3 algebra (the
    cleared form of the rational squared G-determinant)."""
    alg = cone.algebra
    p1 = X.diag[2] * _det_form(alg, X)
    if alg.kind == "rank3-special":
        return p1
    e13, e23 = X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    adj = alg.mult_flat_right(e13, e23)
    return p1 + (alg.norm_sq((2, 3), e23) * alg.norm_sq((1, 3), e13) - alg.norm_sq((1, 2), adj))


def _lower_p(cone: ConeDescriptor, X: HermMatrix) -> tuple[float, ...]:
    """(p_2, ..., p_m), which involve only the entries below the first row."""
    check_same_algebra(cone.algebra, X)
    if cone.rank == 2:
        return (X.diag[1],)
    x2, x3 = X.diag[1:]
    return (x3 * x2 - cone.algebra.norm_sq((2, 3), X.offdiag[(2, 3)]), x3)


def p_polynomials(cone: ConeDescriptor, X: HermMatrix) -> tuple[float, ...]:
    """(p_1, ..., p_m): the homogeneous polynomials with
    a_ii(X)^2 = p_i / prod_{s>i} p_s; deg p_i = 2^(m-i)."""
    lower = _lower_p(cone, X)
    if cone.rank == 2:
        x1, x2 = X.diag
        return (x1 * x2 - cone.algebra.norm_sq((1, 2), X.offdiag[(1, 2)]), *lower)
    return (_p1_rank3(cone, X), *lower)


def g_determinant_sq(cone: ConeDescriptor, X: HermMatrix) -> float:
    """pi^2(X): rank 2 -> p_1; rank-3 special -> the determinant cubic;
    rank-3 dual -> the degree-3 rational function p_1 / p_3."""
    check_same_algebra(cone.algebra, X)
    if cone.rank == 2:
        return p_polynomials(cone, X)[0]
    if cone.algebra.kind == "rank3-special":
        return det_cubic(cone, X)
    x3 = X.diag[2]
    if x3 == 0.0:
        raise OutsideConeError("squared G-determinant undefined at x3 = 0")
    return _p1_rank3(cone, X) / x3


def membership(cone: ConeDescriptor, X: HermMatrix) -> bool:
    """Strict positivity of all m defining inequalities (open cone)."""
    check_same_algebra(cone.algebra, X)
    _require_euclidean(cone)
    if cone.rank == 2:
        p1, p2 = p_polynomials(cone, X)
        return bool(p2 > 0.0 and p1 > 0.0)
    p1, p2, p3 = p_polynomials(cone, X)
    return bool(p3 > 0.0 and p2 > 0.0 and p1 > 0.0)


# ---------------------------------------------------------------------------
# Group coordinates (generalized Cholesky)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupCoordinates:
    """Result of decomposing X = A . A^*: the group element plus blockwise
    reconstruction residuals (relative to the scale of X)."""

    element: TriangularElement
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def group_coordinates(cone: ConeDescriptor, X: HermMatrix) -> GroupCoordinates:
    """Solve X = A . A^* back-to-front for the unique A with positive
    diagonal.  Raises OutsideConeError whenever a diagonal radicand drops
    below the floor (the point is outside the open cone or too close to
    its boundary)."""
    check_same_algebra(cone.algebra, X)
    alg = cone.algebra
    if cone.rank == 2:
        x1, x2 = X.diag
        x12 = X.offdiag[(1, 2)]
        if x2 < RADICAND_FLOOR:
            raise OutsideConeError("x22 radicand <= 0")
        a2 = math.sqrt(x2)
        a12 = x12 / a2
        r1 = x1 - alg.norm_sq((1, 2), a12)
        if r1 < RADICAND_FLOOR:
            raise OutsideConeError("x11 radicand <= 0")
        A = TriangularElement(alg, [math.sqrt(r1), a2], {(1, 2): a12})
    else:
        x1, x2, x3 = X.diag
        if x3 < RADICAND_FLOOR:
            raise OutsideConeError("x33 radicand <= 0")
        a3 = math.sqrt(x3)
        w = X.offdiag[(2, 3)] / a3
        t1 = X.offdiag[(1, 3)] / a3
        r2 = x2 - alg.norm_sq((2, 3), w)
        if r2 < RADICAND_FLOOR:
            raise OutsideConeError("x22 radicand <= 0")
        a2 = math.sqrt(r2)
        t0 = (X.offdiag[(1, 2)] - alg.mult_flat_right(t1, w)) / a2
        r1 = x1 - alg.norm_sq((1, 2), t0) - alg.norm_sq((1, 3), t1)
        if r1 < RADICAND_FLOOR:
            raise OutsideConeError("x11 radicand <= 0")
        A = TriangularElement(
            alg, [math.sqrt(r1), a2, a3], {(1, 2): t0, (1, 3): t1, (2, 3): w}
        )

    x = X.to_vector()
    scale = max(1.0, float(np.max(np.abs(x))))
    err = np.abs(herm_from_triangular(A).to_vector() - x)
    residuals = {
        key if key == "diag" else f"{key[0]}{key[1]}": float(np.max(err[sl], initial=0.0)) / scale
        for key, sl in alg.layout.items()
    }
    return GroupCoordinates(A, residuals)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def characteristic_exponents(cone: ConeDescriptor) -> tuple[Fraction, ...]:
    """Exponent of p_i in the characteristic function: n_i - n_{i-1} - ... - n_1."""
    n = cone.exponents
    return tuple(n[i] - sum(n[:i], Fraction(0)) for i in range(cone.rank))


def characteristic_function(cone: ConeDescriptor, X: HermMatrix) -> float:
    """prod_i p_i(X)^(n_i - n_{i-1} - ... - n_1), evaluated through
    logarithms of the (strictly positive) p_i."""
    if not membership(cone, X):
        raise OutsideConeError("characteristic function defined on the open cone only")
    ps = p_polynomials(cone, X)
    exps = characteristic_exponents(cone)
    return math.exp(sum(float(e) * math.log(p) for e, p in zip(exps, ps)))


def characteristic_degree(cone: ConeDescriptor) -> Fraction:
    """Homogeneity degree sum_i deg(p_i) * exponent_i (equals sum_i n_i)."""
    m = cone.rank
    exps = characteristic_exponents(cone)
    return sum((Fraction(2 ** (m - i - 1)) * exps[i] for i in range(m)), Fraction(0))


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def d_prime(cone: ConeDescriptor, X: HermMatrix) -> float:
    """Degree-3 rational invariant of the dual cone {A^* . A}:

        d'(X) = d(X) + (|s0|^2 |s1|^2 - |b(s1, s0)|^2) / x1

    where b(s1, s0) in V is the bilinear pairing <b, v> = <s1, mu_v(s0)>.
    Agrees with the squared G-determinant of the anti-transposed point
    computed in the dual algebra, and d'(A^* . A) = (a11 a22 a33)^2.
    """
    check_same_algebra(cone.algebra, X)
    alg = cone.algebra
    if alg.kind != "rank3-special":
        raise SpecError("d' is defined on rank-3 special cones")
    x1 = X.diag[0]
    if x1 == 0.0:
        raise OutsideConeError("d' undefined at x1 = 0")
    s0, s1 = X.offdiag[(1, 2)], X.offdiag[(1, 3)]
    b = alg.mult_flat_left(s0, s1)  # element of V: <b, v> = <s1, s0 . v>
    corr = alg.norm_sq((1, 2), s0) * alg.norm_sq((1, 3), s1) - alg.norm_sq((2, 3), b)
    return det_cubic(cone, X) + corr / x1


def d_prime_via_dual(cone: ConeDescriptor, X: HermMatrix) -> float:
    """Independent evaluation of d' through the anti-transposition route:
    the rational squared G-determinant of t'(X) in the dual algebra."""
    check_same_algebra(cone.algebra, X)
    if cone.algebra.kind != "rank3-special":
        raise SpecError("d' is defined on rank-3 special cones")
    return g_determinant_sq(dual_cone(cone), anti_transpose(X))


def dual_membership(cone: ConeDescriptor, X: HermMatrix) -> bool:
    """Membership in the dual cone {A^* . A}.

    Rank 2: x11 > 0 and pi^2 > 0.  Rank 3: x1 > 0, x1 x2 - |s0|^2 > 0 and
    d'(X) > 0.  Equivalent to membership of the anti-transposed point in
    the dual-algebra cone.
    """
    check_same_algebra(cone.algebra, X)
    _require_euclidean(cone)
    if cone.rank == 2:
        p1, _ = p_polynomials(cone, X)
        return bool(X.diag[0] > 0.0 and p1 > 0.0)
    alg = cone.algebra
    if alg.kind != "rank3-special":
        return membership(cone_from_algebra(dual_algebra(alg)), anti_transpose(X))
    x1, x2, _ = X.diag
    if x1 <= 0.0:
        return False
    if x1 * x2 - alg.norm_sq((1, 2), X.offdiag[(1, 2)]) <= 0.0:
        return False
    return bool(d_prime(cone, X) > 0.0)
