"""Analytic core of a Vinberg cone.

Membership, the polynomials p_i, the squared G-determinant, group
coordinates (generalized Cholesky decomposition of X = A . A^*), the
characteristic function, and the dual cone {A^* . A} with its degree-3
rational invariant.  Each takes one point or a stack of points (see README,
Coordinates): floats and bools for one point, arrays for a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import _sq_norm
from .errors import OutsideConeError, SpecError
from .nilalgebra import (
    HermMatrix,
    NilAlgebra,
    TriangularElement,
    _entries,
    _orbit_vector,
    anti_transpose,
    block_norms,
    check_same_algebra,
    dual_algebra,
)

# A radicand a_ii^2 at or below RADICAND_FLOOR * max |x| counts as outside the
# open cone: the radicands scale like X, so the test does not depend on scale.
RADICAND_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ConeDescriptor:
    """A rank-2 or rank-3 cone, fixed by its algebra; its ambient dimension
    and exponents follow from it (each computed once per cone)."""

    algebra: NilAlgebra

    def __post_init__(self):
        if not isinstance(self.algebra, NilAlgebra):
            raise SpecError(f"a cone needs a NilAlgebra, got {type(self.algebra).__name__}")

    @cached_property
    def rank(self) -> int:
        return self.algebra.rank

    @cached_property
    def dim_herm(self) -> int:
        return self.algebra.herm_dim

    @cached_property
    def exponents(self) -> tuple[float, ...]:
        """n_i = 1 + (1/2) sum_{s != i} dim N_is: half-integers, which floats
        hold exactly."""
        alg, m = self.algebra, self.rank
        return tuple(
            1 + sum(alg.dim((min(i, s), max(i, s))) for s in range(1, m + 1) if s != i) / 2 for i in range(1, m + 1)
        )

    @cached_property
    def characteristic_exponents(self) -> tuple[float, ...]:
        """Exponent of p_i in the characteristic function:
        n_i - n_{i-1} - ... - n_1."""
        n = self.exponents
        return tuple(n[i] - sum(n[:i]) for i in range(self.rank))

    @cached_property
    def dual(self) -> "ConeDescriptor":
        """The cone of the anti-transposed dual algebra (built once per cone)."""
        return ConeDescriptor(dual_algebra(self.algebra))


def cone_from_algebra(algebra: NilAlgebra) -> ConeDescriptor:
    return ConeDescriptor(algebra)


# ---------------------------------------------------------------------------
# Invariant polynomials
# ---------------------------------------------------------------------------


def _any_zero(x) -> bool:
    """Whether x is 0 (one point) or any point of a stack x is."""
    return x == 0.0 if isinstance(x, float) else bool((x == 0.0).any())


def _all_positive(*values):
    """Whether every value is > 0 (a bool, or one per point of a stack); raises where one is nan."""
    if isinstance(values[0], float):  # one point: Python or numpy floats
        mask = all(map((0.0).__lt__, values))
        nan = not mask and any(v != v for v in values)  # nan > 0 is False
    else:
        mask = np.logical_and.reduce([v > 0.0 for v in values])
        nan = any(np.isnan(v).any() for v in values)
    if nan:
        raise OutsideConeError("a defining polynomial is nan at this point: its terms overflow")
    return mask


def _det_form(alg: NilAlgebra, X: HermMatrix, n, P=None):
    """x1 x2 x3 - x3 |x12|^2 - x2 |x13|^2 - x1 |x23|^2 + 2 <x12 . x23, x13>
    on a rank-3 algebra of either kind, unchecked; n is ``block_norms(X)``
    and P, when the caller has it, the module's gamma_pairing(x13)."""
    x1, x2, x3 = _entries(X.diag)
    trilinear = alg.trilinear(X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)], P)
    return x1 * x2 * x3 - x3 * n[0] - x2 * n[1] - x1 * n[2] + 2.0 * trilinear


def det_cubic(cone: ConeDescriptor, X: HermMatrix):
    """The determinant cubic d(X) of a rank-3 special cone:

        d = x1 x2 x3 - x3 |s0|^2 - x2 |s1|^2 - x1 |v|^2 + 2 <s0 . v, s1>

    with s0, s1, v the entries at (1,2), (1,3), (2,3).  Equals the squared
    G-determinant: d(A . A^*) = (a11 a22 a33)^2.
    """
    check_same_algebra(cone.algebra, X)
    if not cone.algebra._special:
        raise SpecError("determinant cubic requires a rank-3 special algebra")
    return _det_form(cone.algebra, X, block_norms(X))


def _p1_rank3(alg: NilAlgebra, X: HermMatrix, n):
    """Degree-4 polynomial p_1 = x3 * pi^2 for any rank-3 algebra (the
    cleared form of the rational squared G-determinant), unchecked; n is
    ``block_norms(X)``.  The determinant form and, on the dual, the
    adjoint share one gather."""
    x13 = X.offdiag[(1, 3)]
    P = alg._module.gamma_pairing(x13)
    p1 = X.diag.T[2] * _det_form(alg, X, n, P)
    if alg._special:
        return p1
    adj = alg.mult_flat_right(x13, X.offdiag[(2, 3)], P)
    return p1 + (n[2] * n[1] - _sq_norm(adj))


def _lower_p(cone: ConeDescriptor, X: HermMatrix, n=None) -> tuple:
    """(p_2, ..., p_m), which involve only the entries below the first row,
    unchecked; n is ``block_norms(X)`` when the caller has it."""
    if cone.rank == 2:
        return (X.diag.T[1],)
    x = X.diag.T
    return (x[2] * x[1] - (block_norms(X) if n is None else n)[2], x[2])


def p_polynomials(cone: ConeDescriptor, X: HermMatrix) -> tuple:
    """(p_1, ..., p_m): the homogeneous polynomials with
    a_ii(X)^2 = p_i / prod_{s>i} p_s; deg p_i = 2^(m-i)."""
    check_same_algebra(cone.algebra, X)
    n = block_norms(X)
    lower = _lower_p(cone, X, n)
    if cone.rank == 2:
        x1, x2 = X.diag.T
        return (x1 * x2 - n[0], *lower)
    return (_p1_rank3(cone.algebra, X, n), *lower)


def g_determinant_sq(cone: ConeDescriptor, X: HermMatrix):
    """pi^2(X): rank 2 -> p_1; rank-3 special -> the determinant cubic;
    rank-3 dual -> the degree-3 rational function p_1 / p_3."""
    if cone.rank == 2:
        return p_polynomials(cone, X)[0]
    if cone.algebra._special:
        return det_cubic(cone, X)
    check_same_algebra(cone.algebra, X)
    x3 = X.diag.T[2]
    if _any_zero(x3):
        raise OutsideConeError("squared G-determinant undefined at x3 = 0")
    return _p1_rank3(cone.algebra, X, block_norms(X)) / x3


def membership(cone: ConeDescriptor, X: HermMatrix):
    """Strict positivity of all m defining inequalities (open cone); raises
    OutsideConeError where a p_i is nan."""
    return _all_positive(*p_polynomials(cone, X))


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


def _root(r, floor, name: str):
    """sqrt(r): a float for one point, an (N, 1) column for a stack of N.
    Raises OutsideConeError unless every radicand r is above ``floor``."""
    if isinstance(r, float):  # one point: Python or numpy floats
        if not r > floor:
            raise OutsideConeError(f"{name} radicand <= 0")
        return math.sqrt(r)  # correctly rounded, as np.sqrt
    if not (r > floor).all():
        raise OutsideConeError(f"{name} radicand <= 0")
    return np.sqrt(r)[..., None]


def _back_substitute(alg: NilAlgebra, X: HermMatrix, floor) -> tuple:
    """The radicands a_ii^2 and their roots a_ii (tuples over i, see
    :func:`_root`), the flat vector of the off-diagonal blocks of the A with
    positive diagonal and X = A . A^* (its diagonal left unset), solved back
    to front, and at rank 3 the product term a_13 . a_23^flat (else None).
    Raises OutsideConeError unless every radicand is above ``floor`` (a
    float, or one per point of a stack); unchecked."""
    lay = alg.layout
    if alg.rank == 2:
        x1, x2 = _entries(X.diag)
        a2 = _root(x2, floor, "x22")
        a = X._vector / a2  # its (1,2) block is a12
        r1 = x1 - _sq_norm(a[..., lay[(1, 2)]])
        return (r1, x2), (_root(r1, floor, "x11"), a2), a, None
    x1, x2, x3 = _entries(X.diag)
    a3 = _root(x3, floor, "x33")
    a = X._vector / a3  # its (1,3) and (2,3) blocks are t1 and w
    _, n13, n23 = _entries(alg._block_products(a, a))
    r2 = x2 - n23
    a2 = _root(r2, floor, "x22")
    product = alg.mult_flat_right(a[..., lay[(1, 3)]], a[..., lay[(2, 3)]])
    t0 = (X.offdiag[(1, 2)] - product) / a2
    a[..., lay[(1, 2)]] = t0
    r1 = x1 - _sq_norm(t0) - n13
    return (r1, r2, x3), (_root(r1, floor, "x11"), a2, a3), a, product


def group_coordinates(cone: ConeDescriptor, X: HermMatrix) -> GroupCoordinates:
    """Solve X = A . A^* back-to-front for the unique A with positive diagonal
    (at every point of a stack).  Raises OutsideConeError when a radicand is
    at or below RADICAND_FLOOR times the point's largest entry: the point is
    outside the open cone or near its boundary.  The reconstruction A . A^*
    reuses the back-substitution's product term, which has the same inputs."""
    check_same_algebra(cone.algebra, X)
    alg = cone.algebra
    x = X._vector
    largest = np.maximum.reduce(np.abs(x), -1)
    _, roots, a, product = _back_substitute(alg, X, RADICAND_FLOOR * largest)
    a[..., : alg.rank] = roots if a.ndim == 1 else np.concatenate(roots, axis=-1)
    err = np.abs(_orbit_vector(alg, a, False, product) - x)
    # one max per layout slice: the diagonal from 0, each block from its start
    starts, names = alg._residual_blocks
    worst = np.maximum.reduceat(err, starts, axis=-1) / np.maximum(1.0, largest)[..., None]
    A = TriangularElement._from_flat(alg, a)
    return GroupCoordinates(A, dict(zip(names, worst.T)))  # points are at most a 2-D stack


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def characteristic_function(cone: ConeDescriptor, X: HermMatrix):
    """prod_i p_i(X)^(n_i - n_{i-1} - ... - n_1) through log p_i = log a_ii^2 +
    sum_{s>i} log p_s, with a_ii from the back-substitution of group
    coordinates: the cancellation in p_1 stays out of the large exponents.
    Defined on the open cone, which is where every radicand a_ii^2 =
    p_i / prod_{s>i} p_s is positive; raises OutsideConeError elsewhere."""
    check_same_algebra(cone.algebra, X)
    log_p = []
    # any positive radicand: the open cone has points at every scale
    for r in reversed(_back_substitute(cone.algebra, X, 0.0)[0]):
        log_p.insert(0, np.log(r) + sum(log_p))
    return np.exp(sum(e * lp for e, lp in zip(cone.characteristic_exponents, log_p)))


def characteristic_degree(cone: ConeDescriptor) -> float:
    """Homogeneity degree sum_i deg(p_i) * exponent_i (equals sum_i n_i)."""
    m = cone.rank
    return sum(2 ** (m - i - 1) * e for i, e in enumerate(cone.characteristic_exponents))


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def _d_prime_parts(cone: ConeDescriptor, X: HermMatrix) -> tuple:
    """d(X), the gap |s0|^2 |s1|^2 - |b(s1, s0)|^2 of d' = d + gap / x1, and
    ``block_norms(X)``; d and b share one gather."""
    check_same_algebra(cone.algebra, X)
    alg = cone.algebra
    if not alg._special:
        raise SpecError("d' is defined on rank-3 special cones")
    n = block_norms(X)
    s0, s1 = X.offdiag[(1, 2)], X.offdiag[(1, 3)]
    P = alg._module.gamma_pairing(s1)
    b = alg.mult_flat_left(s0, s1, P)  # in V: <b, v> = <s1, s0 . v>
    gap = n[0] * n[1] - _sq_norm(b)
    return _det_form(alg, X, n, P), gap, n


def d_prime(cone: ConeDescriptor, X: HermMatrix):
    """Degree-3 rational invariant of the dual cone {A^* . A}:

        d'(X) = d(X) + (|s0|^2 |s1|^2 - |b(s1, s0)|^2) / x1

    where b(s1, s0) in V is the bilinear pairing <b, v> = <s1, mu_v(s0)>.
    Agrees with the squared G-determinant of the anti-transposed point
    computed in the dual algebra, and d'(A^* . A) = (a11 a22 a33)^2.
    """
    d, gap, _ = _d_prime_parts(cone, X)
    x1 = _entries(X.diag)[0]
    if _any_zero(x1):
        raise OutsideConeError("d' undefined at x1 = 0")
    return d + gap / x1


def d_prime_via_dual(cone: ConeDescriptor, X: HermMatrix):
    """Independent evaluation of d' through the anti-transposition route:
    the rational squared G-determinant of t'(X) in the dual algebra."""
    if not cone.algebra._special:
        raise SpecError("d' is defined on rank-3 special cones")
    return g_determinant_sq(cone.dual, anti_transpose(X))  # checks that t'(X), so X, is over the algebra


def dual_membership(cone: ConeDescriptor, X: HermMatrix):
    """Membership in the dual cone {A^* . A}.

    Rank 2: x11 > 0 and pi^2 > 0.  Rank 3: x1 > 0, x1 x2 - |s0|^2 > 0 and
    d'(X) > 0, tested as x1 d'(X) > 0.  Equivalent to membership of the
    anti-transposed point in the dual-algebra cone.  Raises
    OutsideConeError where one of these is nan.
    """
    if cone.rank == 2:  # p_polynomials checks X's algebra
        return _all_positive(X.diag.T[0], p_polynomials(cone, X)[0])
    if not cone.algebra._special:  # t'(X) is over the dual algebra iff X is over this one
        return membership(cone.dual, anti_transpose(X))
    d, gap, n = _d_prime_parts(cone, X)
    x1, x2, _ = _entries(X.diag)
    p2_dual = x1 * x2 - n[0]
    return _all_positive(x1, p2_dual, x1 * d + gap)
