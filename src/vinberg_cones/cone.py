"""Analytic core of a Vinberg cone.

Membership, the polynomials p_i, the squared G-determinant, group
coordinates (generalized Cholesky decomposition of X = A . A^*), the
characteristic function, and the dual cone {A^* . A} with its degree-3
rational invariant.  Each takes one point or a stack of points (see README,
Coordinates): floats and bools for one point, arrays for a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import IndefiniteSignatureError, OutsideConeError, SpecError
from .nilalgebra import (
    HermMatrix,
    NilAlgebra,
    TriangularElement,
    anti_transpose,
    block_norms,
    check_same_algebra,
    dual_algebra,
    herm_from_triangular,
)

# A radicand a_ii^2 at or below RADICAND_FLOOR * max |x| counts as outside the
# open cone: the radicands scale like X, so the test does not depend on scale.
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

    @cached_property
    def characteristic_exponents(self) -> tuple[Fraction, ...]:
        """Exponent of p_i in the characteristic function:
        n_i - n_{i-1} - ... - n_1 (computed once per cone)."""
        n = self.exponents
        return tuple(n[i] - sum(n[:i], Fraction(0)) for i in range(self.rank))

    @cached_property
    def dual(self) -> "ConeDescriptor":
        """The cone of the anti-transposed dual algebra (built once per cone)."""
        return cone_from_algebra(dual_algebra(self.algebra))


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
    return cone.dual


def _require_euclidean(cone: ConeDescriptor) -> None:
    if not cone.is_euclidean:
        raise IndefiniteSignatureError(
            "operation defined for Euclidean algebras only"
        )


# ---------------------------------------------------------------------------
# Invariant polynomials
# ---------------------------------------------------------------------------


def _truth(mask):
    return bool(mask) if np.ndim(mask) == 0 else mask


def _det_form(alg: NilAlgebra, X: HermMatrix, n):
    """x1 x2 x3 - x3 |x12|^2 - x2 |x13|^2 - x1 |x23|^2 + 2 <x12 . x23, x13>
    on a rank-3 algebra of either kind; n is ``block_norms(X)``."""
    x1, x2, x3 = X.diag.T
    trilinear = alg.trilinear(X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)])
    return x1 * x2 * x3 - x3 * n[0] - x2 * n[1] - x1 * n[2] + 2.0 * trilinear


def det_cubic(cone: ConeDescriptor, X: HermMatrix):
    """The determinant cubic d(X) of a rank-3 special cone:

        d = x1 x2 x3 - x3 |s0|^2 - x2 |s1|^2 - x1 |v|^2 + 2 <s0 . v, s1>

    with s0, s1, v the entries at (1,2), (1,3), (2,3).  Equals the squared
    G-determinant: d(A . A^*) = (a11 a22 a33)^2.
    """
    check_same_algebra(cone.algebra, X)
    if cone.algebra.kind != "rank3-special":
        raise SpecError("determinant cubic requires a rank-3 special algebra")
    return _det_form(cone.algebra, X, block_norms(X))


def _p1_rank3(cone: ConeDescriptor, X: HermMatrix, n):
    """Degree-4 polynomial p_1 = x3 * pi^2 for any rank-3 algebra (the
    cleared form of the rational squared G-determinant); n is
    ``block_norms(X)``."""
    alg = cone.algebra
    p1 = X.diag.T[2] * _det_form(alg, X, n)
    if alg.kind == "rank3-special":
        return p1
    adj = alg.mult_flat_right(X.offdiag[(1, 3)], X.offdiag[(2, 3)])
    return p1 + (n[2] * n[1] - alg.norm_sq((1, 2), adj))


def _lower_p(cone: ConeDescriptor, X: HermMatrix, n=None) -> tuple:
    """(p_2, ..., p_m), which involve only the entries below the first row;
    n is ``block_norms(X)`` when the caller has it."""
    check_same_algebra(cone.algebra, X)
    if cone.rank == 2:
        return (X.diag.T[1],)
    _, x2, x3 = X.diag.T
    return (x3 * x2 - (block_norms(X) if n is None else n)[2], x3)


def p_polynomials(cone: ConeDescriptor, X: HermMatrix) -> tuple:
    """(p_1, ..., p_m): the homogeneous polynomials with
    a_ii(X)^2 = p_i / prod_{s>i} p_s; deg p_i = 2^(m-i)."""
    n = block_norms(X)
    lower = _lower_p(cone, X, n)
    if cone.rank == 2:
        x1, x2 = X.diag.T
        return (x1 * x2 - n[0], *lower)
    return (_p1_rank3(cone, X, n), *lower)


def g_determinant_sq(cone: ConeDescriptor, X: HermMatrix):
    """pi^2(X): rank 2 -> p_1; rank-3 special -> the determinant cubic;
    rank-3 dual -> the degree-3 rational function p_1 / p_3."""
    check_same_algebra(cone.algebra, X)
    if cone.rank == 2:
        return p_polynomials(cone, X)[0]
    if cone.algebra.kind == "rank3-special":
        return det_cubic(cone, X)
    x3 = X.diag.T[2]
    if (x3 == 0.0).any():
        raise OutsideConeError("squared G-determinant undefined at x3 = 0")
    return _p1_rank3(cone, X, block_norms(X)) / x3


def membership(cone: ConeDescriptor, X: HermMatrix):
    """Strict positivity of all m defining inequalities (open cone)."""
    check_same_algebra(cone.algebra, X)
    _require_euclidean(cone)
    return _truth(np.logical_and.reduce([p > 0.0 for p in p_polynomials(cone, X)]))


# ---------------------------------------------------------------------------
# Group coordinates (generalized Cholesky)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupCoordinates:
    """Result of decomposing X = A . A^*: the group element plus blockwise
    reconstruction residuals (relative to the scale of each point)."""

    element: TriangularElement
    residuals: dict

    @property
    def max_residual(self):
        return np.max(list(self.residuals.values()), axis=0)


def _back_substitute(cone: ConeDescriptor, X: HermMatrix, floor) -> tuple:
    """The radicands a_ii^2 and their roots a_ii (tuples over i, each root
    with a trailing axis of length 1), and the flat vector of the
    off-diagonal blocks of the A with positive diagonal and X = A . A^*
    (its diagonal left unset), solved back to front.  Raises
    OutsideConeError unless every radicand is above ``floor`` (a float, or
    one per point of a stack)."""
    alg = cone.algebra

    def root(r, name):
        if not (r > floor).all():
            raise OutsideConeError(f"{name} radicand <= 0")
        return np.sqrt(r)[..., None]

    if cone.rank == 2:
        x1, x2 = X.diag.T
        a2 = root(x2, "x22")
        a = X.to_vector() / a2  # its (1,2) block is a12
        r1 = x1 - alg.norm_sq((1, 2), a[..., alg.layout[(1, 2)]])
        return (r1, x2), (root(r1, "x11"), a2), a
    x1, x2, x3 = X.diag.T
    a3 = root(x3, "x33")
    a = X.to_vector() / a3  # its (1,3) and (2,3) blocks are t1 and w
    t1, w = a[..., alg.layout[(1, 3)]], a[..., alg.layout[(2, 3)]]
    _, n13, n23 = alg.block_products(a, a).T
    r2 = x2 - n23
    a2 = root(r2, "x22")
    a[..., alg.layout[(1, 2)]] = (X.offdiag[(1, 2)] - alg.mult_flat_right(t1, w)) / a2
    r1 = x1 - alg.norm_sq((1, 2), a[..., alg.layout[(1, 2)]]) - n13  # |t0|^2
    return (r1, r2, x3), (root(r1, "x11"), a2, a3), a


def group_coordinates(cone: ConeDescriptor, X: HermMatrix) -> GroupCoordinates:
    """Solve X = A . A^* back-to-front for the unique A with positive diagonal
    (at every point of a stack).  Raises OutsideConeError when a radicand is
    at or below RADICAND_FLOOR times the point's largest entry: the point is
    outside the open cone or near its boundary."""
    check_same_algebra(cone.algebra, X)
    alg = cone.algebra
    x = X.to_vector()
    largest = np.abs(x).max(-1)
    _, roots, a = _back_substitute(cone, X, RADICAND_FLOOR * largest)
    a[..., : cone.rank] = np.concatenate(roots, axis=-1)
    A = TriangularElement._from_flat(alg, a)
    scale = np.maximum(1.0, largest)
    err = np.abs(herm_from_triangular(A).to_vector() - x)
    # one max per layout slice: the diagonal from 0, each block from its start
    worst = np.maximum.reduceat(err, np.concatenate(([0], alg._segments[1])), axis=-1) / scale[..., None]
    names = ["diag", *(f"{i}{j}" for i, j in alg.offdiag_keys)]
    return GroupCoordinates(A, dict(zip(names, worst.T)))  # points are at most a 2-D stack


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def characteristic_exponents(cone: ConeDescriptor) -> tuple[Fraction, ...]:
    """Exponent of p_i in the characteristic function: n_i - n_{i-1} - ... - n_1."""
    return cone.characteristic_exponents


def characteristic_function(cone: ConeDescriptor, X: HermMatrix):
    """prod_i p_i(X)^(n_i - n_{i-1} - ... - n_1) through log p_i = log a_ii^2 +
    sum_{s>i} log p_s, with a_ii from the back-substitution of group
    coordinates: the cancellation in p_1 stays out of the large exponents.
    Defined on the open cone, which is where every radicand a_ii^2 =
    p_i / prod_{s>i} p_s is positive; raises OutsideConeError elsewhere."""
    check_same_algebra(cone.algebra, X)
    _require_euclidean(cone)
    log_p = []
    # any positive radicand: the open cone has points at every scale
    for r in reversed(_back_substitute(cone, X, 0.0)[0]):
        log_p.insert(0, np.log(r) + sum(log_p))
    return np.exp(sum(float(e) * lp for e, lp in zip(cone.characteristic_exponents, log_p)))


def characteristic_degree(cone: ConeDescriptor) -> Fraction:
    """Homogeneity degree sum_i deg(p_i) * exponent_i (equals sum_i n_i)."""
    m = cone.rank
    exps = cone.characteristic_exponents
    return sum((Fraction(2 ** (m - i - 1)) * exps[i] for i in range(m)), Fraction(0))


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def _d_prime_parts(cone: ConeDescriptor, X: HermMatrix) -> tuple:
    """d(X), the gap |s0|^2 |s1|^2 - |b(s1, s0)|^2 of d' = d + gap / x1, and
    ``block_norms(X)``."""
    check_same_algebra(cone.algebra, X)
    alg = cone.algebra
    if alg.kind != "rank3-special":
        raise SpecError("d' is defined on rank-3 special cones")
    n = block_norms(X)
    b = alg.mult_flat_left(X.offdiag[(1, 2)], X.offdiag[(1, 3)])  # in V: <b, v> = <s1, s0 . v>
    gap = n[0] * n[1] - alg.norm_sq((2, 3), b)
    return _det_form(alg, X, n), gap, n


def d_prime(cone: ConeDescriptor, X: HermMatrix):
    """Degree-3 rational invariant of the dual cone {A^* . A}:

        d'(X) = d(X) + (|s0|^2 |s1|^2 - |b(s1, s0)|^2) / x1

    where b(s1, s0) in V is the bilinear pairing <b, v> = <s1, mu_v(s0)>.
    Agrees with the squared G-determinant of the anti-transposed point
    computed in the dual algebra, and d'(A^* . A) = (a11 a22 a33)^2.
    """
    d, gap, _ = _d_prime_parts(cone, X)
    x1 = X.diag.T[0]
    if (x1 == 0.0).any():
        raise OutsideConeError("d' undefined at x1 = 0")
    return d + gap / x1


def d_prime_via_dual(cone: ConeDescriptor, X: HermMatrix):
    """Independent evaluation of d' through the anti-transposition route:
    the rational squared G-determinant of t'(X) in the dual algebra."""
    check_same_algebra(cone.algebra, X)
    if cone.algebra.kind != "rank3-special":
        raise SpecError("d' is defined on rank-3 special cones")
    return g_determinant_sq(dual_cone(cone), anti_transpose(X))


def dual_membership(cone: ConeDescriptor, X: HermMatrix):
    """Membership in the dual cone {A^* . A}.

    Rank 2: x11 > 0 and pi^2 > 0.  Rank 3: x1 > 0, x1 x2 - |s0|^2 > 0 and
    d'(X) > 0, tested as x1 d'(X) > 0.  Equivalent to membership of the
    anti-transposed point in the dual-algebra cone.
    """
    check_same_algebra(cone.algebra, X)
    _require_euclidean(cone)
    if cone.rank == 2:
        return _truth((X.diag.T[0] > 0.0) & (p_polynomials(cone, X)[0] > 0.0))
    if cone.algebra.kind != "rank3-special":
        return membership(dual_cone(cone), anti_transpose(X))
    x1, x2, _ = X.diag.T
    d, gap, n = _d_prime_parts(cone, X)
    p2_dual = x1 * x2 - n[0]
    return _truth((x1 > 0.0) & (p2_dual > 0.0) & (x1 * d + gap > 0.0))
