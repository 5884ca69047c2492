"""Invariant cubic polynomials and admissibility of their Hessian metrics.

A cubic q on the Hermitian space is invariant under the unipotent group
(unit-diagonal triangular elements) iff it is a combination of

    rank 2:  x2^3           and  x2 * p1
    rank 3:  d (det cubic),      p2 * p3,      p3^3

The Hessian form g(q) = -Hess(log q) restricted to the tangent space of the
level hypersurface {q = 1} is positive definite exactly for the admissible
cubics; by invariance this can be decided on the diagonal slice.  Gradients
and Hessians are in the flat coordinates of the algebra's layout (see
README, Coordinates).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cone import ConeDescriptor, _lower_p, _require_euclidean, det_cubic, p_polynomials
from .errors import OutsideConeError, SpecError
from .nilalgebra import HermMatrix, check_same_algebra, herm_from_vector

MINOR_BAND = 1e-12  # minors within +/- band*scale count as degenerate

PD = "positive-definite"
INDEFINITE = "indefinite"
DEGENERATE = "degenerate"
# the sweep carries each point's kind as its index here
_KINDS = (PD, INDEFINITE, DEGENERATE, "constraint")
_PD, _INDEFINITE, _DEGENERATE, _CONSTRAINT = range(len(_KINDS))


# ---------------------------------------------------------------------------
# Invariant cubics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InvariantCubic:
    """Coefficients of an invariant cubic.

    rank 2: coeffs = (a, b) for q = a x2^3 + b x2 p1.
    rank 3: coeffs = (a, b, c) for q = a d + b p2 p3 + c p3^3.
    """

    cone: ConeDescriptor
    coeffs: tuple[float, ...]

    def __post_init__(self):
        want = 2 if self.cone.rank == 2 else 3
        if len(self.coeffs) != want:
            raise SpecError(f"rank-{self.cone.rank} cubic needs {want} coefficients")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise SpecError(f"cubic coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def rank2_family(cls, cone: ConeDescriptor, eps: float) -> "InvariantCubic":
        """Normalized family q = x2 p1 + eps x2^3."""
        if cone.rank != 2:
            raise SpecError("rank2_family needs a rank-2 cone")
        return cls(cone, (eps, 1.0))

    @classmethod
    def rank3_family(cls, cone: ConeDescriptor, eps1: float, eps2: float) -> "InvariantCubic":
        """Normalized family q = d + eps1 p2 p3 + eps2 p3^3."""
        if cone.rank != 3:
            raise SpecError("rank3_family needs a rank-3 cone")
        return cls(cone, (1.0, eps1, eps2))

    @property
    def normalizable(self) -> bool:
        """Whether the cubic lies in the normalized one/two-parameter family
        (leading coefficient nonzero)."""
        return (self.coeffs[1] != 0.0) if self.cone.rank == 2 else (self.coeffs[0] != 0.0)

    @property
    def eps(self) -> float:
        if self.cone.rank != 2 or not self.normalizable:
            raise SpecError("eps defined for normalizable rank-2 cubics")
        return self.coeffs[0] / self.coeffs[1]

    @property
    def eps12(self) -> tuple[float, float]:
        if self.cone.rank != 3 or not self.normalizable:
            raise SpecError("eps12 defined for normalizable rank-3 cubics")
        a, b, c = self.coeffs
        return (b / a, c / a)


def eval_cubic(q: InvariantCubic, X: HermMatrix):
    """Exact polynomial evaluation; homogeneous of degree 3 (one point or a stack)."""
    pw = np.float_power  # rounds one point and a stack alike, unlike **
    if q.cone.rank == 2:
        a, b = q.coeffs
        p1, x2 = p_polynomials(q.cone, X)
        return a * pw(x2, 3) + b * x2 * p1
    a, b, c = q.coeffs
    p2, p3 = _lower_p(q.cone, X)
    return a * det_cubic(q.cone, X) + b * (p2 * p3) + c * pw(p3, 3)


def gradient(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """Gradient of q in flat coordinates (closed-form polynomials)."""
    check_same_algebra(q.cone.algebra, X)
    alg = q.cone.algebra
    lay = alg.layout
    g = np.zeros(q.cone.dim_herm)
    if q.cone.rank == 2:
        a, b = q.coeffs
        x1, x2 = X.diag
        w = X.offdiag[(1, 2)]
        gw = alg.spaces[(1, 2)].lower(w)
        g[0] = b * x2**2
        g[1] = 3.0 * a * x2**2 + 2.0 * b * x1 * x2 - b * (w @ gw)
        g[lay[(1, 2)]] = -2.0 * b * x2 * gw
        return g
    a, b, c = q.coeffs
    x1, x2, x3 = X.diag
    s0, s1, v = X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    S0, S1, SV = (alg.spaces[k] for k in ((1, 2), (1, 3), (2, 3)))
    g0s0, g1s1, gvv = S0.lower(s0), S1.lower(s1), SV.lower(v)
    n0, n1, nv = s0 @ g0s0, s1 @ g1s1, v @ gvv
    pair = alg.clifford.gamma_pairing(s1)  # <s0 . v, s1> = v . pair . s0
    g[0] = a * (x2 * x3 - nv)
    g[1] = a * (x1 * x3 - n1) + b * x3**2
    g[2] = a * (x1 * x2 - n0) + 2.0 * b * x2 * x3 - b * nv + 3.0 * c * x3**2
    # <s0 . v, s1> differentiated in each slot
    g[lay[(1, 2)]] = -2.0 * a * x3 * g0s0 + 2.0 * a * (v @ pair)
    g[lay[(1, 3)]] = -2.0 * a * x2 * g1s1 + 2.0 * a * S1.lower(alg.mult(s0, v))
    g[lay[(2, 3)]] = -2.0 * (a * x1 + b * x3) * gvv + 2.0 * a * (pair @ s0)
    return g


def cubic_hessian(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """Hessian of q in flat coordinates (constant + linear polynomial entries)."""
    check_same_algebra(q.cone.algebra, X)
    alg = q.cone.algebra
    lay = alg.layout
    n = q.cone.dim_herm
    H = np.zeros((n, n))
    for (i, j), h in _diagonal_derivatives(q, X.diag)[1].items():
        H[i, j] = H[j, i] = h
    if q.cone.rank == 2:
        b, W, wsl = q.coeffs[1], alg.spaces[(1, 2)], lay[(1, 2)]
        H[1, wsl] = H[wsl, 1] = -2.0 * b * W.lower(X.offdiag[(1, 2)])
        H[wsl, wsl] = _gram_block(W, -2.0 * b * X.diag[1])
        return H
    a, b, _ = q.coeffs
    x1, x2, x3 = X.diag
    s0, s1, v = X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    S0, S1, SV = (alg.spaces[k] for k in ((1, 2), (1, 3), (2, 3)))
    g0s0, g1s1, gvv = S0.lower(s0), S1.lower(s1), SV.lower(v)
    s0sl, s1sl, vsl = lay[(1, 2)], lay[(1, 3)], lay[(2, 3)]
    H[0, vsl] = H[vsl, 0] = -2.0 * a * gvv
    H[1, s1sl] = H[s1sl, 1] = -2.0 * a * g1s1
    H[2, s0sl] = H[s0sl, 2] = -2.0 * a * g0s0
    H[2, vsl] = H[vsl, 2] = -2.0 * b * gvv
    H[s0sl, s0sl] = _gram_block(S0, -2.0 * a * x3)
    H[s1sl, s1sl] = _gram_block(S1, -2.0 * a * x2)
    H[vsl, vsl] = _gram_block(SV, -2.0 * (a * x1 + b * x3))
    # cross blocks from 2 <s0 . v, s1>
    blk_01 = 2.0 * a * S1.lower(alg.clifford.mu(v).T)  # d(s0) d(s1)
    H[s0sl, s1sl] = blk_01
    H[s1sl, s0sl] = blk_01.T
    blk_0v = 2.0 * a * alg.clifford.gamma_pairing(s1).T  # d(s0) d(v)
    H[s0sl, vsl] = blk_0v
    H[vsl, s0sl] = blk_0v.T
    blk_1v = 2.0 * a * S1.lower(alg.clifford.gamma_images(s0)).T  # d(s1) d(v)
    H[s1sl, vsl] = blk_1v
    H[vsl, s1sl] = blk_1v.T
    return H


def _gram_block(space, coef: float) -> np.ndarray:
    """coef times the Gram matrix of ``space``: coef I lowered, so a diagonal
    Gram fills the block from its weights."""
    return space.lower(coef * np.eye(space.dim))


def hessian_log(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """-Hess(log q) at X, assembled exactly as (grad q grad q^T - q Hess q) / q^2."""
    qx = eval_cubic(q, X)
    if qx == 0.0:
        raise OutsideConeError("log q singular: q(X) = 0")
    return _neg_hess_log(qx, gradient(q, X), cubic_hessian(q, X))


def _neg_hess_log(qx, g, H) -> np.ndarray:
    """(grad q grad q^T - q Hess q) / q^2 from q, its gradient and its
    Hessian, at one point or a stack.  np.float_power rounds like the scalar
    ** of one point; numpy's array ** does not."""
    qx = np.asarray(qx)[..., None, None]
    return (g[..., :, None] * g[..., None, :] - qx * H) / np.float_power(qx, 2)


def fd_hessian_log(q: InvariantCubic, X: HermMatrix, h: float = 1e-5) -> np.ndarray:
    """Central-difference -Hess(log q) with one Richardson step, (4 H(h) -
    H(2h)) / 3: the coarse oracle that the self-test and the tests hold
    hessian_log against (one step alone fails dim_v = 16 by truncation or
    the small cones by rounding).  Each row's points are one stack."""
    x0 = X.to_vector()
    n = x0.size
    eye = np.eye(n)
    steps = np.array([h, 2.0 * h])
    richardson = np.array([4.0, -1.0]) / 3.0  # weights of H(h) and H(2h)

    def f(z):
        return -np.log(eval_cubic(q, herm_from_vector(q.cone.algebra, z)))

    f0 = f(x0)
    H = np.zeros((n, n))
    for i in range(n):
        ei, ej = eye[i], eye[i + 1 :]
        dirs = np.concatenate([[ei, -ei], ei + ej, ei - ej, ej - ei, -ei - ej])
        fz = f((x0 + steps[:, None, None] * dirs).reshape(-1, n)).reshape(2, -1)
        H[i, i] = richardson @ ((fz[:, 0] - 2.0 * f0 + fz[:, 1]) / steps**2)
        pp, pm, mp, mm = np.split(fz[:, 2:], 4, axis=1)
        H[i, i + 1 :] = H[i + 1 :, i] = richardson @ ((pp - pm - mp + mm) / (4.0 * steps[:, None] ** 2))
    return H


# ---------------------------------------------------------------------------
# Tangent restriction and the verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HessianReport:
    """Restriction of -Hess(log q) to the tangent space of {q = 1} at a point."""

    point: HermMatrix
    hessian: np.ndarray
    tangent_basis: np.ndarray  # (n, n-1), orthonormal columns spanning ker dq
    restricted: np.ndarray
    verdict: str
    leading_minors: np.ndarray

    @property
    def min_minor(self) -> float:
        return float(np.min(self.leading_minors)) if self.leading_minors.size else math.nan


def _verdict_from_minors(minors: np.ndarray, scale) -> np.ndarray:
    """Verdict code (index into _KINDS) of each stack of leading minors (last
    axis) whose form has the given largest entry: degenerate when a minor is
    within the band, positive-definite when all are above it, else
    indefinite."""
    scale = np.asarray(scale)
    band = MINOR_BAND * scale[..., None]
    degenerate = (scale == 0.0) | (np.abs(minors) <= band).any(axis=-1)
    pd = (minors > band).all(axis=-1)
    return np.where(degenerate, _DEGENERATE, np.where(pd, _PD, _INDEFINITE))


def tangent_restriction(q: InvariantCubic, X: HermMatrix) -> HessianReport:
    """Project X onto {q = 1} (requires q(X) > 0), restrict -Hess(log q) to
    an orthonormal basis of ker dq, and classify by leading principal minors.

    The minors are taken after a diagonal (Jacobi) rescaling of the
    restricted form; the rescaling is a congruence, so the sign pattern and
    the verdict agree with those of the raw form while staying meaningful
    across the huge entry scales that extreme slice points produce.
    """
    _require_euclidean(q.cone)
    qx = eval_cubic(q, X)
    if qx <= 0.0:
        raise OutsideConeError("projection onto the level set requires q(X) > 0")
    if abs(qx - 1.0) > 1e-9:
        X = herm_from_vector(q.cone.algebra, X.to_vector() / qx ** (1.0 / 3.0))
        qx = eval_cubic(q, X)
    g = gradient(q, X)
    M = _neg_hess_log(qx, g, cubic_hessian(q, X))
    gnorm = float(np.linalg.norm(g))
    if gnorm <= 1e-300:
        n = q.cone.dim_herm
        return HessianReport(
            X, M, np.zeros((n, 0)), np.zeros((0, 0)), DEGENERATE, np.array([])
        )
    basis, R, minors, scale = _restrict(M, g / gnorm)
    return HessianReport(X, M, basis, R, _KINDS[_verdict_from_minors(minors, scale).item()], minors)


def _restrict(M, u):
    """Restrict each form M (last two axes) to an orthonormal basis of the
    complement of the unit vector u, at one point or a stack: the basis, the
    symmetrized restricted form R, the leading principal minors of R after a
    diagonal (Jacobi) rescaling, and that rescaled form's largest entry.

    The basis is coordinate-adapted: the axes other than the one most aligned
    with u, projected off u and orthonormalized (keeps the restricted form
    near-block-diagonal, so the minors stay well scaled)."""
    r = u.shape[-1]
    drop = np.abs(u).argmax(axis=-1)[..., None]
    keep = np.arange(r - 1)
    keep = keep + (keep >= drop)
    u_keep = u[np.arange(r) != drop].reshape(keep.shape)
    basis, _ = np.linalg.qr(np.eye(r)[keep].swapaxes(-1, -2) - u[..., :, None] * u_keep[..., None, :])
    R = basis.swapaxes(-1, -2) @ M @ basis
    R = 0.5 * (R + R.swapaxes(-1, -2))
    d = np.sqrt(np.abs(R.diagonal(axis1=-2, axis2=-1)))
    d[d == 0.0] = 1.0
    Rn = R / (d[..., :, None] * d[..., None, :])
    return basis, R, _leading_minors(Rn), np.abs(Rn).max(axis=(-2, -1))


def _leading_minors(A: np.ndarray) -> np.ndarray:
    """Leading principal minors of each square form A (last two axes), at one
    point or a stack: the running products of the pivots of one Gaussian
    elimination without row exchanges, O(n^3) in all.  A row whose
    elimination meets a zero or non-finite pivot (a zero row of a degenerate
    cubic's form, say) has no such products; it takes each minor as its own
    determinant instead."""
    n = A.shape[-1]
    U = A.copy()
    minors = np.empty(A.shape[:-1])
    minors[..., 0] = A[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n):
            U[..., k:, k:] -= U[..., k:, k - 1, None] * (U[..., None, k - 1, k:] / U[..., k - 1, k - 1, None, None])
            minors[..., k] = minors[..., k - 1] * U[..., k, k]
        pivots = U.diagonal(axis1=-2, axis2=-1)
        if not (pivots.all() and np.isfinite(pivots).all()):
            # a boolean index by the 0-d flag of one form selects it as a stack of one
            bad = ((pivots == 0.0) | ~np.isfinite(pivots)).any(axis=-1)
            A = A[bad]
            minors[bad] = np.stack([np.linalg.det(A[..., : k + 1, : k + 1]) for k in range(n)], axis=-1)
    return minors


# ---------------------------------------------------------------------------
# Diagonal-slice sweeps
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _LogSpaced:
    """The log-uniform spacing of a grid and its square of points, made on
    first use and kept on the (frozen) grid object, so that every cubic swept
    on it shares them.  A grid is checked when it is made: finite
    0 < lo <= hi and an integer n >= 1."""

    def __post_init__(self):
        lo, hi, n = self.lo, self.hi, self.n
        if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real) and 0.0 < lo <= hi < math.inf):
            raise SpecError(f"grid needs finite 0 < lo <= hi, got lo={lo!r}, hi={hi!r}")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise SpecError(f"grid needs an integer n >= 1, got n={n!r}")

    @cached_property
    def _xs(self) -> np.ndarray:
        return _read_only(np.geomspace(self.lo, self.hi, self.n))

    @cached_property
    def _square(self) -> tuple[np.ndarray, ...]:
        """The sampler's (x2, x3, x3^2, x3^3) with the spacing as each x2's
        row of x3, which is all a rank-3 slice takes from the grid unless
        probes join the rows."""
        rows = np.tile(self._xs, (self.n, 1))
        return tuple(map(_read_only, _row_points(self._xs, rows, isinstance(self, DiagonalGrid))))


# Rank-3 sweeps with a, c > 0 also probe each x2 row just inside its
# feasibility boundary in x3 (at these relative offsets below it) and at 8
# log-spaced x3 from grid.hi to PROBE_MAX; no sweep samples x3 > PROBE_MAX.
BOUNDARY_OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4)
PROBE_MAX = 1e3


@dataclass(frozen=True)
class DiagonalGrid(_LogSpaced):
    """Log-uniform sampling of the free diagonal coordinates of {q = 1}."""

    lo: float = 1e-2
    hi: float = 1e2
    n: int = 100

    @cached_property
    def _probed_rows(self) -> np.ndarray:
        """The spacing followed by the 8 large-x3 probes, a row of x3 for each x2."""
        row = np.concatenate([self._xs, np.geomspace(self.hi, PROBE_MAX, 8)])
        return _read_only(np.tile(row, (self.n, 1)))


@dataclass(frozen=True)
class SearchGrid(_LogSpaced):
    lo: float = 0.1
    hi: float = 10.0
    n: int = 20


@dataclass(frozen=True)
class DiagonalWitness:
    coords: tuple[float, ...]  # full diagonal (x1, x2[, x3])
    kind: str  # "constraint" | "indefinite" | "degenerate"
    min_minor: float


@dataclass(frozen=True)
class DiagonalReport:
    all_pd: bool
    checked: int
    witnesses: tuple[DiagonalWitness, ...]
    min_minor: float
    min_minor_coords: tuple[float, ...]


def _boundary_probes(q: InvariantCubic, x2: np.ndarray) -> np.ndarray:
    """x3 just inside the feasibility boundary of each x2 row: the largest
    positive root of c t^3 + b x2 t^2 - 1 times (1 - offset), inf where there
    is none.  The roots are the eigenvalues of the companion matrices that
    np.roots builds, all rows in one call."""
    _, b, c = q.coeffs
    A = np.zeros((len(x2), 3, 3))
    A[:, 0, 0] = -(b * x2) / c  # the first row is -(b x2, 0, -1) / c
    A[:, 0, 1:] = -0.0 / c, 1.0 / c
    A[:, 1, 0] = A[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(A)
    real = (np.abs(roots.imag) < 1e-9) & (roots.real > 0.0)
    t = np.where(real, roots.real, 0.0).max(axis=1)[:, None]
    return np.where(t > 0.0, t * (1.0 - np.array(BOUNDARY_OFFSETS)), np.inf)


def _row_points(xs: np.ndarray, x3: np.ndarray, sweep: bool) -> tuple[np.ndarray, ...]:
    """(x2, x3, x3^2, x3^3) at the finite x3 of each row, x2 = xs[row], row by
    row; a sweep takes each row's x3 sorted, without duplicates and none above
    PROBE_MAX (so the order they come in does not matter)."""
    if sweep:
        x3 = np.sort(np.where(x3 <= PROBE_MAX, x3, np.inf), axis=1)
        x3[:, 1:][x3[:, 1:] == x3[:, :-1]] = np.inf
    kept = np.isfinite(x3)
    x3 = x3[kept]
    return np.broadcast_to(xs[:, None], kept.shape)[kept], x3, np.float_power(x3, 2), np.float_power(x3, 3)


def _slice_points(q: InvariantCubic, grid: DiagonalGrid | SearchGrid) -> np.ndarray:
    """Diagonal points of {q = 1} as an (N, rank) array.

    A DiagonalGrid gives the sweep's points: the log grid over the free
    coordinates and, for rank 3 with a != 0, per x2 row the sorted distinct
    x3 of the grid and the probes, up to PROBE_MAX.  A SearchGrid gives the
    local search's x2 x x3 square (rank 3, a != 0).  Each point solves the
    level set for one coordinate and is kept when that one is positive.
    np.float_power rounds like the scalar ** of eval_cubic; numpy's array **
    does not."""
    pw = np.float_power
    xs = grid._xs
    if q.cone.rank == 2:
        a, b = q.coeffs
        if b == 0.0:
            if a <= 0.0:
                return np.empty((0, 2))
            return np.stack([xs, np.full_like(xs, (1.0 / a) ** (1.0 / 3.0))], axis=1)
        if b > 0.0 and a > 0.0:
            # x1 > 0 bounds the slice: respace inside the feasible range
            xs = np.geomspace(grid.lo, min(grid.hi, 0.999 * a ** (-1.0 / 3.0)), grid.n)
        x1 = (1.0 - a * pw(xs, 3)) / (b * pw(xs, 2))
        return np.stack([x1, xs], axis=1)[x1 > 0.0]
    a, b, c = q.coeffs
    if a == 0.0:
        # q has no x1 dependence: the grid runs over (x1, x2) when b = 0 and
        # over (x3, x1) otherwise, the first coordinate outer
        u, v = (m.ravel() for m in np.meshgrid(xs, xs, indexing="ij"))
        if b == 0.0:
            if c <= 0.0:
                return np.empty((0, 3))
            return np.stack([u, v, np.full_like(u, (1.0 / c) ** (1.0 / 3.0))], axis=1)
        x2 = (1.0 - c * pw(u, 3)) / (b * pw(u, 2))
        return np.stack([v, x2, u], axis=1)[x2 > 0.0]
    # one row of x3 values per x2; inf marks no value
    if isinstance(grid, DiagonalGrid) and a > 0.0 and c > 0.0:
        x2, x3, x3sq, x3cu = _row_points(xs, np.hstack([grid._probed_rows, _boundary_probes(q, xs)]), True)
    else:
        x2, x3, x3sq, x3cu = grid._square
    x1 = (1.0 - b * x2 * x3sq - c * x3cu) / (a * x2 * x3)
    return np.stack([x1, x2, x3], axis=1)[x1 > 0.0]


def _constraint_violated(q: InvariantCubic, x: np.ndarray) -> np.ndarray:
    """Sign of the vector-block diagonal of -Hess(log q) at each row of x:
    a x1 + b x3 <= 0 forces a non-positive tangent direction (rank 3 only)."""
    if q.cone.rank != 3:
        return np.zeros(len(x), dtype=bool)
    a, b, _ = q.coeffs
    return a * x[:, 0] + b * x[:, 2] <= 0.0


# ---------------------------------------------------------------------------
# Batched verdicts at diagonal points
# ---------------------------------------------------------------------------
#
# At a diagonal point the gradient has no off-diagonal part, so -Hess(log q)
# is a rank x rank core plus, on each off-diagonal block, a scalar times the
# block's Gram matrix.  ker dq then splits the same way, and the leading
# minors of the Jacobi-scaled restriction are those of a (rank-1)-square core
# followed by the tail det(core) times the running product of block signs
# times the running product P of the pivots of the Jacobi-scaled Gram
# matrices (P is all 1 for the orthonormal bases the library builds).  The
# kernel below evaluates that for a stack of points, through the dense
# path's _neg_hess_log and _restrict on the cores.  Every value that reaches
# the core repeats the float operations of eval_cubic (d = x1 x2 x3 from
# det_cubic, p2 = x3 x2 and p3 = x3 from cone._lower_p), gradient and
# cubic_hessian with zero off-diagonal entries, in the same grouping:
# near-singular cores amplify a last-bit change in an entry about 1e5-fold
# in min_minor.  Powers go through np.float_power, which rounds like the
# scalar ** of the dense path; numpy's array ** does not.
#
# The tail is never formed.  Within a block of sign s its signs are constant
# (s = 1), alternate (s = -1) or vanish (s = 0), so the entries at the
# block's even and at its odd offsets share one sign each, and a rounded
# det(core) * P is monotone in P.  The entries at the smallest and the
# largest P of each such class bound it: they carry its minimum, its
# smallest magnitude and its sign, all that the verdict and min_minor read.
# The kernel computes only those, at most four per block, as det(core) times
# the sign product up to each times P there: the cumprod's values bit for
# bit, as the signs are exact.


def _diagonal_q(q: InvariantCubic, x: np.ndarray) -> np.ndarray:
    """q at the rows of x, grouped as eval_cubic groups it."""
    pw = np.float_power
    if x.shape[1] == 2:
        a, b = q.coeffs
        x1, x2 = x.T
        return a * pw(x2, 3) + b * x2 * (x1 * x2)
    a, b, c = q.coeffs
    x1, x2, x3 = x.T
    return a * (x1 * x2 * x3) + b * ((x3 * x2) * x3) + c * pw(x3, 3)


def _diagonal_derivatives(q: InvariantCubic, x: np.ndarray):
    """The entries of q's gradient and the upper entries {(i, j): ...} of its
    Hessian in the diagonal coordinates, each an (N,) array over the rows of
    x, or a number at one point x; the Hessian's other upper entries are 0."""
    pw = np.float_power
    if q.cone.rank == 2:
        a, b = q.coeffs
        x1, x2 = x.T
        x2sq = pw(x2, 2)
        g = (b * x2sq, 3.0 * a * x2sq + 2.0 * b * x1 * x2)
        return g, {(0, 1): 2.0 * b * x2, (1, 1): 6.0 * a * x2 + 2.0 * b * x1}
    a, b, c = q.coeffs
    x1, x2, x3 = x.T
    x3sq = pw(x3, 2)
    g = (a * (x2 * x3), a * (x1 * x3) + b * x3sq, a * (x1 * x2) + 2.0 * b * x2 * x3 + 3.0 * c * x3sq)
    H = {(0, 1): a * x3, (0, 2): a * x2, (1, 2): a * x1 + 2.0 * b * x3, (2, 2): 2.0 * b * x2 + 6.0 * c * x3}
    return g, H


def _diagonal_parts(q: InvariantCubic, x: np.ndarray):
    """q, its gradient and Hessian in the diagonal coordinates, and the
    scalar of -Hess(log q) on each off-diagonal block, at the rows of x.
    Raises where q = 0, before the block scalars divide by it."""
    n, r = x.shape
    g = np.empty((n, r))
    H = np.zeros((n, r, r))
    blocks = np.empty((n, len(q.cone.algebra.offdiag_keys)))
    qx = _diagonal_q(q, x)
    gs, hs = _diagonal_derivatives(q, x)
    for k, gk in enumerate(gs):
        g[:, k] = gk
    for (i, j), h in hs.items():
        H[:, i, j] = H[:, j, i] = h
    if r == 2:
        blocks[:, 0] = hs[(0, 1)]
    else:
        a, b, _ = q.coeffs
        x1, x2, x3 = x.T
        blocks[:, 0] = 2.0 * a * x3
        blocks[:, 1] = 2.0 * a * x2
        blocks[:, 2] = 2.0 * (a * x1 + b * x3)
    if (qx == 0.0).any():
        raise OutsideConeError("projection onto the level set requires q(X) > 0")
    blocks /= qx[:, None]
    return qx, g, H, blocks


def _tail_minors(alg, det_core: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The tail minors det(core) * cumprod(block signs x Gram pivots) at the
    positions that stand for the whole tail (see above), bit for bit, for
    each row of block signs."""
    columns, P = alg._tail_entries
    powers = np.concatenate([np.ones_like(signs), signs, signs * signs], axis=1)
    return det_core[:, None] * (np.prod(powers[:, columns], axis=2) * P)


def _diagonal_verdicts(q: InvariantCubic, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verdict code (index into _KINDS) and min_minor of tangent_restriction
    at each row of x, an (N, rank) stack of diagonal points with q > 0.  Past
    the cores a point costs O(blocks); the zero-padded gradient norm is the
    one step whose cost grows with dim_herm."""
    qx, g, H, blocks = _diagonal_parts(q, x)
    if (qx <= 0.0).any():
        raise OutsideConeError("projection onto the level set requires q(X) > 0")
    off = np.abs(qx - 1.0) > 1e-9
    if off.any():
        x = x.copy()
        x[off] /= np.float_power(qx[off, None], 1.0 / 3.0)
        qx, g, H, blocks = _diagonal_parts(q, x)
    # np.linalg.norm in the dense path is sqrt(g.dot(g)) over the full
    # zero-padded gradient, a BLAS dot that rounds differently from one over
    # the rank entries alone; a stacked (1, n) @ (n, 1) matmul rounds like it
    # (einsum does not).  g != 0 by Euler's identity x . grad q = 3 q > 0.
    padded = np.zeros((len(x), q.cone.dim_herm))
    padded[:, : q.cone.rank] = g
    u = g / np.sqrt((padded[:, None, :] @ padded[:, :, None])[:, 0, 0])[:, None]
    _, _, core, scale = _restrict(_neg_hess_log(qx, g, H), u)
    signs = np.sign(blocks)
    minors = np.concatenate([core, _tail_minors(q.cone.algebra, core[:, -1], signs)], axis=1)
    scale = np.maximum(scale, np.abs(signs).max(axis=1))
    return _verdict_from_minors(minors, scale), minors.min(axis=1)


# ---------------------------------------------------------------------------
# The inertia rule and the closed-form core minor
# ---------------------------------------------------------------------------
#
# Hess q (X) X = 2 grad q (X) and X^T Hess q (X) X = 6 q(X) > 0, so Hess q
# splits Hess q-orthogonally into span X plus ker dq, and on {q = 1} the
# metric g(q) is -Hess q on ker dq.  g(q) is therefore positive definite at
# X exactly when Hess q (X) has inertia (1, n-1).  At a diagonal point that
# reads b > 0 for q = a x2^3 + b x2 p1, and a > 0 and 4c x3^3 < q for
# q = a d + b p2 p3 + c p3^3 (which implies the slope constraint).  The
# sweeps take each point's positive-definite / not decision from this rule;
# the kernel runs only where a minor is read: at a witness, and at the
# positive-definite points that may hold the slice's smallest min_minor.
# Those are the points whose closed-form core minor lies within ARGMIN_DELTA
# of the smallest, 30 times the largest gap between it and the kernel's
# (3.2e-4 relative, on the ROADMAP plane).

MARGIN_BAND = 1e-12  # a margin 1 - t <= band * max(1, t) is not positive-definite
ARGMIN_DELTA = 1e-2  # relative reach of the argmin candidates over the smallest


def _inertia_pd(q: InvariantCubic, x: np.ndarray, qx: np.ndarray) -> np.ndarray:
    """Whether g(q) is positive definite at each row of x, diagonal points
    with q = qx > 0: b > 0 (rank 2), or a > 0 and a margin 1 - t,
    t = 4c x3^3 / q, above MARGIN_BAND relative to max(1, t) (rank 3), so
    that a margin of 0 is not positive-definite."""
    if q.cone.rank == 2:
        return np.full(len(x), q.coeffs[1] > 0.0)
    a, _, c = q.coeffs
    if not a > 0.0 or c <= 0.0:  # a margin of at least 1
        return np.full(len(x), a > 0.0)
    x3 = x[:, 2]
    f = 4.0 * c * (x3 * x3 * x3)  # the margin times q, and its scale, need no division
    return qx - f > MARGIN_BAND * np.maximum(qx, f)


def _core_minors(x: np.ndarray, g, H) -> np.ndarray:
    """The kernel's core minor det(Rn) in closed form at each rank-3 diagonal
    point (rows of x), elementwise from _diagonal_derivatives' gradient
    entries g and upper Hessian entries H (H_00 = H_11 = 0).  On g-perp the
    g g^T term of -Hess(log q) vanishes, so R = -B^T H B / q.  There
    det R = g^T adj(H) g / (|g| q)^2, where H x = 2g (Euler) makes
    adj(H) g = det(H) x / 2; and R11 + R22 = (g^T H g / |g|^2 - tr H) / q.
    _restrict's first basis vector is b1 ~ |g|^2 e_i - g_i g, i the first
    axis it keeps (1 where |g_0| is the largest, else 0), which gives R11
    from g_i and (H g)_i alone; det(Rn) = det R / |R11 R22|."""
    g0, g1, g2 = g
    h01, h02, h12, h22 = (H[k] for k in ((0, 1), (0, 2), (1, 2), (2, 2)))
    hg0, hg1 = h01 * g1 + h02 * g2, h01 * g0 + h12 * g2
    ghg = g0 * hg0 + g1 * hg1 + g2 * (h02 * g0 + h12 * g1 + h22 * g2)
    nn = g0 * g0 + g1 * g1 + g2 * g2
    first = np.abs(g0) >= np.maximum(np.abs(g1), np.abs(g2))
    gi, hgi = np.where(first, g1, g0), np.where(first, hg1, hg0)
    with np.errstate(all="ignore"):
        r11 = gi * (gi * ghg - 2.0 * nn * hgi) / (nn * (nn - gi * gi))
        gx = x[:, 0] * g0 + x[:, 1] * g1 + x[:, 2] * g2
        return 0.5 * gx * h01 * (2.0 * h02 * h12 - h01 * h22) / (nn * np.abs(r11 * (h22 - ghg / nn - r11)))


# ---------------------------------------------------------------------------
# Sweeps over the classified slice
# ---------------------------------------------------------------------------


def _classify_slice(q: InvariantCubic, grid: DiagonalGrid | SearchGrid):
    """The diagonal points of {q = 1} on the grid, where the slope constraint
    holds and where the inertia rule calls g(q) positive-definite."""
    x = _slice_points(q, grid)
    inside = ~_constraint_violated(q, x)
    xs = x[inside]
    qx = _diagonal_q(q, xs)
    if (qx <= 0.0).any():
        raise OutsideConeError("projection onto the level set requires q(X) > 0")
    pd = np.zeros(len(x), dtype=bool)
    pd[inside] = _inertia_pd(q, xs, qx)
    return x, inside, pd


def _candidate_minors(q: InvariantCubic, x: np.ndarray) -> np.ndarray:
    """The kernel's min_minor at the rows of x (positive-definite slice
    points) that may hold the smallest, nan at the others: for rank 3 the
    rows whose closed-form core minor is within ARGMIN_DELTA relative of the
    smallest, or is nan; for rank 2 all, as their minors tie."""
    minors = np.full(len(x), math.nan)
    if len(x):
        rows = slice(None)
        if q.cone.rank == 3:
            core = _core_minors(x, *_diagonal_derivatives(q, x))
            lo = float(np.fmin.reduce(core, initial=math.inf))
            rows = ~(core > lo + ARGMIN_DELTA * abs(lo))
        minors[rows] = _diagonal_verdicts(q, x[rows])[1]
    return minors


def _first_smallest(minors: np.ndarray):
    """The index of the first of the smallest minors (a non-empty array) and
    that minor; index 0 and inf when none is a number."""
    ranked = np.where(np.isnan(minors), math.inf, minors)
    i = int(np.argmin(ranked))
    return (i, float(minors[i])) if ranked[i] < math.inf else (0, math.inf)


def admissibility_on_diagonal(q: InvariantCubic, grid: DiagonalGrid | None = None) -> DiagonalReport:
    """Sweep the diagonal slice of {q = 1}; admissibility of an invariant
    cubic reduces to positive definiteness there, which the inertia rule
    decides.  The kernel reads the witnesses' kinds and minors and the
    minors of the argmin candidates."""
    _require_euclidean(q.cone)
    x, inside, pd = _classify_slice(q, grid or DiagonalGrid())
    if not len(x):
        raise OutsideConeError("empty feasible diagonal grid")
    kinds = np.where(pd, _PD, _CONSTRAINT)
    minors = np.full(len(x), math.nan)
    read = np.flatnonzero(inside & ~pd)
    if read.size:
        # degenerate where the minors all clear MINOR_BAND: on the rule's band
        codes, minors[read] = _diagonal_verdicts(q, x[read])
        kinds[read] = np.where(codes == _PD, _DEGENERATE, codes)
    minors[pd] = _candidate_minors(q, x[pd])
    i, min_minor = _first_smallest(minors)
    w = np.flatnonzero(~pd)
    witnesses = tuple(
        DiagonalWitness(tuple(row), _KINDS[k], m)
        for row, k, m in zip(x[w].tolist(), kinds[w].tolist(), minors[w].tolist())
    )
    return DiagonalReport(
        all_pd=not witnesses,
        checked=len(x),
        witnesses=witnesses,
        min_minor=min_minor,
        min_minor_coords=tuple(x[i].tolist()),
    )


def find_locally_admissible_point(q: InvariantCubic, search: SearchGrid | None = None):
    """Deterministic grid search over the diagonal slice; returns the first
    point that the inertia rule calls positive-definite, or None."""
    _require_euclidean(q.cone)
    if q.cone.rank != 3:
        raise SpecError("local-admissibility search is for rank-3 cones")
    if q.coeffs[0] == 0.0:  # no point is PD; the sampler's q can cancel to <= 0 at extreme c
        return None
    x, _, pd = _classify_slice(q, search or SearchGrid())
    found = np.flatnonzero(pd)
    # the dense restriction at that one point fills in the whole report
    return tangent_restriction(q, HermMatrix(q.cone.algebra, x[found[0]], {})) if found.size else None


# ---------------------------------------------------------------------------
# Parameter-plane scan
# ---------------------------------------------------------------------------

ADMISSIBLE_ON_SAMPLE = "admissible-on-sample"
LOCALLY_ADMISSIBLE = "locally-admissible"
NOT_ADMISSIBLE = "not-admissible"


@dataclass(frozen=True)
class ScanCell:
    eps1: float
    eps2: float
    classification: str
    witness_x2: float
    witness_x3: float
    min_minor: float


def scan_parameter_plane(
    cone: ConeDescriptor,
    eps1_values,
    eps2_values,
    grid: DiagonalGrid | None = None,
    search: SearchGrid | None = None,
) -> list[ScanCell]:
    """Classify each (eps1, eps2) cell of the normalized rank-3 family by a
    diagonal sweep.  Deterministic: rows ordered by the input value order.
    Each cell gives the row that admissibility_on_diagonal's report gives,
    with the kernel run only at the argmin candidates of an
    all-positive-definite slice or else at the first witness.  No cell is
    locally-admissible: by the inertia rule an eps2 <= 0 cell is
    positive-definite at every slice point.  ``search`` is ignored."""
    if cone.rank != 3:
        raise SpecError("parameter-plane scan is for rank-3 cones")
    _require_euclidean(cone)
    grid = grid or DiagonalGrid()  # one spacing per plane
    rows = []
    for e1 in eps1_values:
        for e2 in eps2_values:
            e1, e2 = float(e1), float(e2)
            q = InvariantCubic.rank3_family(cone, e1, e2)
            x, inside, pd = _classify_slice(q, grid)
            if not len(x):
                raise OutsideConeError("empty feasible diagonal grid")
            if pd.all():
                i, minor = _first_smallest(_candidate_minors(q, x))
                rows.append(ScanCell(e1, e2, ADMISSIBLE_ON_SAMPLE, *x[i, 1:].tolist(), minor))
            else:
                j = int(np.argmin(pd))  # the first witness, whose minor the row reads
                minor = _diagonal_verdicts(q, x[j : j + 1])[1].item() if inside[j] else math.nan
                rows.append(ScanCell(e1, e2, NOT_ADMISSIBLE, *x[j, 1:].tolist(), minor))
    return rows


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def scan_to_csv(rows: list[ScanCell], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps1", "eps2", "classification", "witness_x2", "witness_x3", "min_minor"])
        for r in rows:
            writer.writerow(
                [
                    _fmt17(r.eps1),
                    _fmt17(r.eps2),
                    r.classification,
                    _fmt17(r.witness_x2),
                    _fmt17(r.witness_x3),
                    _fmt17(r.min_minor),
                ]
            )


# ---------------------------------------------------------------------------
# Degree bookkeeping for unimodular-invariant cubics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnimodularCubicReport:
    rank: int
    pi_sq_degree: int
    cubic_exists: bool
    description: str


def no_g0_cubic_check(cone: ConeDescriptor) -> UnimodularCubicReport:
    """Invariants of the unimodular subgroup are generated by the squared
    G-determinant, so a degree-3 invariant polynomial exists iff
    deg(pi^2) divides 3."""
    if cone.rank == 2:
        return UnimodularCubicReport(
            2, 2, False, "none exists: pi^2 has degree 2, which does not divide 3"
        )
    return UnimodularCubicReport(
        3, 3, True, "unique up to scale: the determinant cubic d"
    )
