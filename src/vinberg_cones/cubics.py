"""Invariant cubic polynomials and admissibility of their Hessian metrics.

A cubic q on the Hermitian space is invariant under the unipotent group
(unit-diagonal triangular elements) iff it is a combination of

    rank 2:  x2^3           and  x2 * p1
    rank 3:  d (det cubic),      p2 * p3,      p3^3

The Hessian form g(q) = -Hess(log q) restricted to the tangent space of the
level hypersurface {q = 1} is positive definite exactly for the admissible
cubics; by invariance this can be decided on the diagonal slice, where the
inertia rule below decides each point in closed form.  At any other point
the dense restriction decides by the signs of its elimination's pivots.
Gradients and Hessians are in the flat coordinates of the algebra's layout
(see README, Coordinates).
"""

from __future__ import annotations

import bisect
import csv
import math
import numbers
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .cone import ConeDescriptor, _lower_p, det_cubic, p_polynomials
from .errors import DimensionMismatchError, OutsideConeError, SpecError
from .nilalgebra import HermMatrix, check_same_algebra, herm_from_vector

PIVOT_BAND = 1e-12  # dense pivots within +/- band*scale count as degenerate
LEVEL_TOL = 1e-9  # a q(X) within this of 1 is on {q = 1}; others are projected onto it
FD_STEP = 1e-5  # the step h of fd_hessian_log

PD = "positive-definite"
INDEFINITE = "indefinite"
DEGENERATE = "degenerate"
# the sweep carries each point's kind as its index here
_KINDS = (PD, INDEFINITE, DEGENERATE, "constraint")
_PD, _INDEFINITE, _DEGENERATE, _CONSTRAINT = range(len(_KINDS))

_QR_RAW = getattr(_umath_linalg, "qr_r_raw", None) or _umath_linalg.qr_r_raw_n  # numpy 1.x names it by shape


@np.errstate(all="ignore")
def _lapack(op: str, a):
    """numpy.linalg's op(a) for op "det", "eigvals" (complex) or "qr" (Q alone;
    rows > columns), bit for bit, by the LAPACK gufunc and signature it calls,
    without its Python wrapper, which costs more than LAPACK at 3 x 3.  numpy
    flags a LAPACK failure and fills its result with nan (numpy.linalg raised
    LinAlgError); that raises here, never warns.  det cannot fail."""
    if op == "det":
        return _umath_linalg.det(a, signature="d->d")
    if op == "qr":
        a = np.array(a, dtype=np.float64)  # a fresh copy: qr_r_raw leaves its reflectors in it
        out = _umath_linalg.qr_reduced(a, _QR_RAW(a, signature="d->d"), signature="dd->d")
    else:
        out = _umath_linalg.eigvals(a, signature="d->D")
    if np.isnan(out).any():
        raise OutsideConeError(f"LAPACK's {op} failed")
    return out


# ---------------------------------------------------------------------------
# Invariant cubics
# ---------------------------------------------------------------------------


def _is_real(x) -> bool:
    """A real number, numpy's included, not a bool; a float skips the ABC check (about 0.5 us a call)."""
    return type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))


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
        if want == 3 and not self.cone.algebra._special:  # d, so q, is undefined on the dual
            raise SpecError("an invariant cubic on a rank-3 cone requires a rank-3 special algebra")
        try:
            count = len(self.coeffs)
        except TypeError:  # no sequence: a number, None, a cone
            count = None
        if count != want:
            raise SpecError(f"rank-{self.cone.rank} cubic needs {want} coefficients")
        if not all(map(_is_real, self.coeffs)):
            raise SpecError(f"cubic coefficients must be real numbers, got {self.coeffs!r}")
        try:
            coeffs = tuple(float(c) for c in self.coeffs)
        except OverflowError:  # an int or a Fraction beyond float range
            raise SpecError("cubic coefficients must be finite, got one beyond float range") from None
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
    d, (p2, p3) = det_cubic(q.cone, X), _lower_p(q.cone, X)  # det_cubic checks X's algebra
    return a * d + b * (p2 * p3) + c * pw(p3, 3)


def _check_point(name: str, q: InvariantCubic, X: HermMatrix) -> None:
    """Raise unless X is one point over q's algebra, not a stack."""
    check_same_algebra(q.cone.algebra, X)
    if X.diag.ndim != 1:
        raise DimensionMismatchError(f"{name} takes one point, not the flat shape {X.to_vector().shape}")


def gradient(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """Gradient of q in flat coordinates (closed-form polynomials) at one point."""
    _check_point("gradient", q, X)
    alg = q.cone.algebra
    lay = alg.layout
    g = np.zeros(q.cone.dim_herm)
    if q.cone.rank == 2:
        a, b = q.coeffs
        x1, x2 = X.diag
        w = X.offdiag[(1, 2)]
        g[0] = b * x2**2
        g[1] = 3.0 * a * x2**2 + 2.0 * b * x1 * x2 - b * (w @ w)
        g[lay[(1, 2)]] = -2.0 * b * x2 * w
        return g
    a, b, c = q.coeffs
    x1, x2, x3 = X.diag
    s0, s1, v = X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    n0, n1, nv = s0 @ s0, s1 @ s1, v @ v
    pair = alg.clifford.gamma_pairing(s1)  # <s0 . v, s1> = v . pair . s0
    g[0] = a * (x2 * x3 - nv)
    g[1] = a * (x1 * x3 - n1) + b * x3**2
    g[2] = a * (x1 * x2 - n0) + 2.0 * b * x2 * x3 - b * nv + 3.0 * c * x3**2
    # <s0 . v, s1> differentiated in each slot
    g[lay[(1, 2)]] = -2.0 * a * x3 * s0 + 2.0 * a * (v @ pair)
    g[lay[(1, 3)]] = -2.0 * a * x2 * s1 + 2.0 * a * alg.mult(s0, v)
    g[lay[(2, 3)]] = -2.0 * (a * x1 + b * x3) * v + 2.0 * a * (pair @ s0)
    return g


def cubic_hessian(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """Hessian of q in flat coordinates (constant + linear polynomial entries) at one point."""
    _check_point("cubic_hessian", q, X)
    alg = q.cone.algebra
    lay = alg.layout
    n = q.cone.dim_herm
    H = np.zeros((n, n))
    r = q.cone.rank
    H[:r, :r] = _diagonal_derivatives(q, X.diag)[1]
    if q.cone.rank == 2:
        b, wsl = q.coeffs[1], lay[(1, 2)]
        H[1, wsl] = H[wsl, 1] = -2.0 * b * X.offdiag[(1, 2)]
        H[wsl, wsl] = -2.0 * b * X.diag[1] * np.eye(alg.dim((1, 2)))
        return H
    a, b, _ = q.coeffs
    x1, x2, x3 = X.diag
    s0, s1, v = X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    s0sl, s1sl, vsl = lay[(1, 2)], lay[(1, 3)], lay[(2, 3)]
    H[0, vsl] = H[vsl, 0] = -2.0 * a * v
    H[1, s1sl] = H[s1sl, 1] = -2.0 * a * s1
    H[2, s0sl] = H[s0sl, 2] = -2.0 * a * s0
    H[2, vsl] = H[vsl, 2] = -2.0 * b * v
    H[s0sl, s0sl] = -2.0 * a * x3 * np.eye(s0.size)
    H[s1sl, s1sl] = -2.0 * a * x2 * np.eye(s1.size)
    H[vsl, vsl] = -2.0 * (a * x1 + b * x3) * np.eye(v.size)
    # cross blocks from 2 <s0 . v, s1>
    blk_01 = 2.0 * a * alg.clifford.mu(v).T  # d(s0) d(s1)
    H[s0sl, s1sl] = blk_01
    H[s1sl, s0sl] = blk_01.T
    blk_0v = 2.0 * a * alg.clifford.gamma_pairing(s1).T  # d(s0) d(v)
    H[s0sl, vsl] = blk_0v
    H[vsl, s0sl] = blk_0v.T
    blk_1v = 2.0 * a * alg.clifford.gamma_images(s0).T  # d(s1) d(v)
    H[s1sl, vsl] = blk_1v
    H[vsl, s1sl] = blk_1v.T
    return H


def hessian_log(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """-Hess(log q) at one point X, assembled exactly as (grad q grad q^T - q Hess q) / q^2.
    Raises where an entry is not finite: where q(X) = 0 or an overflow."""
    _check_point("hessian_log", q, X)
    with np.errstate(all="ignore"):
        M = _neg_hess_log(eval_cubic(q, X), gradient(q, X), cubic_hessian(q, X))
    if not np.isfinite(M).all():
        raise OutsideConeError("-Hess(log q) is not finite at this point: q(X) = 0 or an overflow")
    return M


def _neg_hess_log(qx, g, H) -> np.ndarray:
    """(grad q grad q^T - q Hess q) / q^2 from q, its gradient and its
    Hessian, at one point or a stack.  np.float_power rounds like the scalar
    ** of one point; numpy's array ** does not."""
    qx = np.asarray(qx)[..., None, None]
    return (g[..., :, None] * g[..., None, :] - qx * H) / np.float_power(qx, 2)


def fd_hessian_log(q: InvariantCubic, X: HermMatrix) -> np.ndarray:
    """Central-difference -Hess(log q) with one Richardson step, (4 H(h) -
    H(2h)) / 3, h = FD_STEP: the coarse oracle the self-test and the tests
    hold hessian_log against (one step alone fails dim_v = 16 by truncation
    or the small cones by rounding).  Each row's points are one stack."""
    _check_point("fd_hessian_log", q, X)
    x0 = X.to_vector()
    n = x0.size
    eye = np.eye(n)
    steps = np.array([FD_STEP, 2.0 * FD_STEP])
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
        return float(np.min(self.leading_minors))


def _q_error(qx) -> OutsideConeError:
    """The error where a value of q(X) (a number or an array) is not finite or not positive."""
    finite = np.isfinite(qx).all()
    return OutsideConeError("projection onto the level set requires q(X) > 0" if finite else "q(X) is not finite")


def tangent_restriction(q: InvariantCubic, X: HermMatrix) -> HessianReport:
    """Project X onto {q = 1} (requires q(X) > 0), restrict -Hess(log q) to
    an orthonormal basis of ker dq, and classify by the signs of the pivots
    of the elimination behind its leading principal minors (Sylvester's law
    of inertia).  The minors are taken after a diagonal (Jacobi) rescaling,
    a congruence: their signs are the raw form's, and they stay meaningful
    across the huge entry scales of extreme slice points.  A pivot (a ratio
    of successive minors) within PIVOT_BAND times the scaled form's largest
    entry of 0, or not a number, makes the form degenerate.  Raises, as the
    kernel does, where q(X), the gradient norm or a minor is not finite."""
    _check_point("tangent_restriction", q, X)
    with np.errstate(all="ignore"):  # an overflow leaves a value that is not finite, which raises
        qx = eval_cubic(q, X)
        if not 0.0 < qx < math.inf:
            raise _q_error(qx)
        if abs(qx - 1.0) > LEVEL_TOL:
            X = herm_from_vector(q.cone.algebra, X.to_vector() / qx ** (1.0 / 3.0))
            qx = eval_cubic(q, X)
        g = gradient(q, X)
        gnorm = math.sqrt(g.dot(g))  # numpy.linalg's norm(g), bit for bit
        if not 0.0 < gnorm < math.inf:
            raise OutsideConeError("the gradient norm is not finite at the level set")
        M = _neg_hess_log(qx, g, cubic_hessian(q, X))
        basis = _tangent_basis(g / gnorm)
        R = _restricted(M, basis)
        Rn = _jacobi_scaled(R)
        minors = _leading_minors(Rn)
        if not (np.isfinite(M).all() and np.isfinite(minors).all()):
            raise OutsideConeError("the minors of the Hessian metric are not finite at the level set")
        pivots = minors / np.concatenate([[1.0], minors[:-1]])  # their signs are the form's inertia
        clear = np.abs(pivots) > PIVOT_BAND * np.abs(Rn).max()
    verdict = DEGENERATE if not clear.all() else PD if (pivots > 0.0).all() else INDEFINITE
    return HessianReport(X, M, basis, R, verdict, minors)


def _jacobi_scaled(R):
    """Each form R (last two axes) over d d^T, d = sqrt|diag R| (1 where that
    is 0): the Jacobi congruence the minors are taken after."""
    d = np.sqrt(np.abs(R.diagonal(axis1=-2, axis2=-1)))
    d[d == 0.0] = 1.0
    return R / (d[..., :, None] * d[..., None, :])


def _tangent_basis(u):
    """An orthonormal basis of the complement of each unit vector u (last
    axis), coordinate-adapted: the axes other than the one most aligned with
    u, projected off u and orthonormalized (keeps the restricted form
    near-block-diagonal, so the minors stay well scaled)."""
    r = u.shape[-1]
    drop = np.abs(u).argmax(axis=-1)[..., None]
    keep = np.arange(r - 1)
    keep = keep + (keep >= drop)
    u_keep = u[np.arange(r) != drop].reshape(keep.shape)
    return _lapack("qr", (np.arange(r)[:, None] == keep[..., None, :]) - u[..., :, None] * u_keep[..., None, :])


def _restricted(M, basis):
    """The symmetrized form basis^T M basis, at one point or a stack."""
    R = basis.swapaxes(-1, -2) @ M @ basis
    return 0.5 * (R + R.swapaxes(-1, -2))


def _leading_minors(A: np.ndarray) -> np.ndarray:
    """Leading principal minors of each square form A (last two axes), at one
    point or a stack: the running products of the pivots of one Gaussian
    elimination without row exchanges, O(n^3).  A form whose elimination
    meets a zero or non-finite pivot (a degenerate cubic's zero row, say)
    takes each minor as its own determinant instead."""
    n = A.shape[-1]
    U = A.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n):
            U[..., k:, k:] -= U[..., k:, k - 1, None] * (U[..., None, k - 1, k:] / U[..., k - 1, k - 1, None, None])
        pivots = U.diagonal(axis1=-2, axis2=-1)
        minors = np.multiply.accumulate(pivots, axis=-1)
        if not (pivots.all() and np.isfinite(pivots).all()):
            # a boolean index by the 0-d flag of one form selects it as a stack of one
            bad = ((pivots == 0.0) | ~np.isfinite(pivots)).any(axis=-1)
            A = A[bad]
            minors[bad] = np.stack([_lapack("det", A[..., : k + 1, : k + 1]) for k in range(n)], axis=-1)
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
    on it shares them.  Checked when made: finite 0 < lo <= hi, integer n >= 1."""

    def __post_init__(self):
        lo, hi, n = self.lo, self.hi, self.n
        if not (_is_real(lo) and _is_real(hi) and 0.0 < lo <= hi < math.inf):
            raise SpecError(f"grid needs finite 0 < lo <= hi, got lo={lo!r}, hi={hi!r}")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise SpecError(f"grid needs an integer n >= 1, got n={n!r}")

    @classmethod
    def _given(cls, grid, sampler: str):
        """grid, or this kind's default for None; a grid of another kind is refused."""
        grid = cls() if grid is None else grid
        if not isinstance(grid, cls):
            raise SpecError(f"{sampler} samples a {cls.__name__}, got {type(grid).__name__}")
        return grid

    @cached_property
    def _xs(self) -> np.ndarray:
        return _read_only(np.geomspace(self.lo, self.hi, self.n))

    @cached_property
    def _square(self) -> tuple[np.ndarray, ...]:
        """The sampler's (x2, x3, x3^2, x3^3) over the spacing's x2, each with
        one row of x3 where no probes join it: the spacing itself, or for a
        sweep its distinct values up to PROBE_MAX, sorted."""
        xs = self._xs
        row = np.unique(xs[xs <= PROBE_MAX]) if isinstance(self, DiagonalGrid) else xs
        x3 = np.tile(row, self.n)
        return tuple(map(_read_only, (np.repeat(xs, row.size), x3, np.float_power(x3, 2), np.float_power(x3, 3))))


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
    def _probed_row(self) -> list:
        """The x3 (floats) of every x2 row before its boundary probes: the
        spacing and the 8 large-x3 probes, sorted, distinct, up to PROBE_MAX."""
        return sorted({t for t in self._xs.tolist() + np.geomspace(self.hi, PROBE_MAX, 8).tolist() if t <= PROBE_MAX})


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


def _boundary_probes(q: InvariantCubic, x2: float) -> list:
    """x3 just inside the feasibility boundary of the row of x2 (a float): the
    largest positive root of c t^3 + b x2 t^2 - 1 (an eigenvalue of np.roots'
    companion matrix) times (1 - offset), inf where there is none."""
    _, b, c = q.coeffs
    first = [-(b * x2) / c, -0.0 / c, 1.0 / c]  # -(b x2, 0, -1) / c
    if not all(map(math.isfinite, first)):
        raise OutsideConeError("the feasibility boundary of the diagonal slice overflows")
    roots = _lapack("eigvals", [first, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).tolist()
    t = max(r.real if abs(r.imag) < 1e-9 and r.real > 0.0 else 0.0 for r in roots)
    return [t * (1.0 - o) if t > 0.0 else math.inf for o in BOUNDARY_OFFSETS]


def _sweep_row(q: InvariantCubic, grid: DiagonalGrid, x2: float) -> list:
    """The x3 (floats) that a sweep samples on the row of x2 (a float) when
    a, c > 0: the grid's spacing, its 8 large-x3 probes and the row's 4
    boundary probes, sorted, distinct and none above PROBE_MAX."""
    row = grid._probed_row.copy()
    for t in _boundary_probes(q, x2):
        i = bisect.bisect_left(row, t)
        if t <= PROBE_MAX and row[i : i + 1] != [t]:
            row.insert(i, t)
    return row


def _slice_points(q: InvariantCubic, grid: DiagonalGrid | SearchGrid) -> np.ndarray:
    """Diagonal points of {q = 1} as an (N, rank) array.  A DiagonalGrid
    gives the sweep's: the log grid over the free coordinates and, for rank
    3 with a != 0, per x2 row _square's x3, or _sweep_row's where a, c > 0.
    A SearchGrid gives the local search's x2 x x3 square (rank 3, a != 0).
    Each point solves the level set for one coordinate and is kept when that
    one is positive.  np.float_power rounds like the scalar ** of eval_cubic;
    numpy's array ** does not."""
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
    if isinstance(grid, DiagonalGrid) and a > 0.0 and c > 0.0:
        rows = [_sweep_row(q, grid, x2) for x2 in xs.tolist()]
        x2, x3 = np.repeat(xs, list(map(len, rows))), np.concatenate(rows)
        x3sq, x3cu = pw(x3, 2), pw(x3, 3)
    else:
        x2, x3, x3sq, x3cu = grid._square
    x1 = _level_x1(q, x2, x3, x3sq, x3cu)
    return np.array([x1, x2, x3]).T[x1 > 0.0]


def _level_x1(q: InvariantCubic, x2, x3, x3sq, x3cu):
    """x1 on {q = 1} at rank-3 diagonal (x2, x3), a != 0, given x3^2 and x3^3 (arrays)."""
    a, b, c = q.coeffs
    return (1.0 - b * x2 * x3sq - c * x3cu) / (a * x2 * x3)


def _constraint_violated(q: InvariantCubic, x):
    """Sign of the vector-block diagonal of -Hess(log q) at each row of x:
    a x1 + b x3 <= 0 forces a non-positive tangent direction (rank 3 only)."""
    if q.cone.rank != 3:
        return np.zeros(len(x), dtype=bool)
    a, b, _ = q.coeffs
    x1, _, x3 = _unpack(x)[0]
    return a * x1 + b * x3 <= 0.0


# ---------------------------------------------------------------------------
# Batched verdicts at diagonal points
# ---------------------------------------------------------------------------
#
# At a diagonal point the gradient has no off-diagonal part, so -Hess(log q)
# is a rank x rank core plus a scalar times the identity on each off-diagonal
# block.  ker dq splits the same way: the leading minors of the Jacobi-scaled
# restriction are a (rank-1)-square core's, then the tail det(core) times the
# running product of block signs.  The kernel takes a stack of points through
# the dense path's _neg_hess_log, _tangent_basis and _restricted, and one
# point on Python floats (whose arithmetic, ** and math.sqrt round as numpy's
# ufuncs do) but for the gradient norm (a BLAS dot), the QR (LAPACK's geqrf
# and orgqr, by _lapack) and the restriction (BLAS fused multiply-adds).
# Every value that reaches the core repeats the float operations of
# eval_cubic, gradient and cubic_hessian with zero off-diagonal entries, in
# their grouping: a near-singular core amplifies a last-bit change in an
# entry about 1e5-fold in min_minor.  Powers go through np.float_power,
# which rounds like the scalar ** of the dense path; numpy's array ** does not.
#
# The tail is never formed.  Within a block of sign s its signs are constant
# (s = 1), alternate (s = -1) or vanish (s = 0), so its entries at even and
# at odd offsets are equal, and its first two carry its minimum, all that
# min_minor reads.  The kernel computes only those, as det(core) times the
# sign product up to each: the cumprod's values bit for bit (exact signs).


def _unpack(x):
    """The coordinate columns of x, or one point's floats, and the power that
    rounds them as np.float_power does (Python's float ** does)."""
    return (x.T, np.float_power) if isinstance(x, np.ndarray) else (x, pow)


def _diagonal_q(q: InvariantCubic, x):
    """q at the rows of x, or at one point x given as floats, grouped as
    eval_cubic groups it."""
    xs, pw = _unpack(x)
    if q.cone.rank == 2:
        a, b = q.coeffs
        x1, x2 = xs
        return a * pw(x2, 3) + b * x2 * (x1 * x2)
    a, b, c = q.coeffs
    x1, x2, x3 = xs
    return a * (x1 * x2 * x3) + b * ((x3 * x2) * x3) + c * pw(x3, 3)


def _diagonal_derivatives(q: InvariantCubic, x):
    """The entries of q's gradient and the rows of its Hessian (zeros
    included) in the diagonal coordinates, each an (N,) array over the rows
    of x, or a number at one point x."""
    xs, pw = _unpack(x)
    if q.cone.rank == 2:
        a, b = q.coeffs
        x1, x2 = xs
        x2sq, h01 = pw(x2, 2), 2.0 * b * x2
        return (b * x2sq, 3.0 * a * x2sq + 2.0 * b * x1 * x2), ((0.0, h01), (h01, 6.0 * a * x2 + 2.0 * b * x1))
    a, b, c = q.coeffs
    x1, x2, x3 = xs
    x3sq, b2x2 = pw(x3, 2), 2.0 * b * x2
    g = (a * (x2 * x3), a * (x1 * x3) + b * x3sq, a * (x1 * x2) + b2x2 * x3 + 3.0 * c * x3sq)
    h01, h02, h12 = a * x3, a * x2, a * x1 + 2.0 * b * x3
    return g, ((0.0, h01, h02), (h01, 0.0, h12), (h02, h12, b2x2 + 6.0 * c * x3))


def _diagonal_parts(q: InvariantCubic, x: np.ndarray):
    """q, its gradient (N, rank) and Hessian (N, rank, rank) in the diagonal
    coordinates, and the scalar of -Hess(log q) on each off-diagonal block
    (N, blocks), at the rows of x; those divide by q, which the caller checks."""
    qx = _diagonal_q(q, x)
    gs, hs = _diagonal_derivatives(q, x)
    n, r = x.shape
    g, H = np.empty((n, r)), np.empty((n, r, r))
    for i in range(r):
        g[:, i] = gs[i]
        for j in range(r):
            H[:, i, j] = hs[i][j]
    return qx, g, H, np.array(_block_scalars(q, x, qx)).T


def _block_scalars(q: InvariantCubic, x, qx) -> tuple:
    """The scalar of -Hess(log q) on each off-diagonal block, in the
    algebra's block order, at the rows of x or at one point x given as
    floats, where q = qx."""
    xs = _unpack(x)[0]
    if q.cone.rank == 2:
        return (2.0 * q.coeffs[1] * xs[1] / qx,)
    (a, b, _), (x1, x2, x3) = q.coeffs, xs
    return (2.0 * a * x3 / qx, 2.0 * a * x2 / qx, 2.0 * (a * x1 + b * x3) / qx)


def _scaled_core_minors(R):
    """The leading minors of the symmetric core R (at most 2 x 2; the last
    two axes) after _jacobi_scaled, as _leading_minors' elimination takes
    them: n00 and n00 (n11 - n10 (n01 / n00)), or its determinants where a
    pivot is zero or not finite.  Floats at one point, columns for a stack."""
    one = R.ndim == 2
    if one:
        E = R.tolist()
        d = [math.sqrt(abs(E[i][i])) or 1.0 for i in range(len(E))]
        n = [[e / (di * dj) for e, dj in zip(row, d)] for row, di in zip(E, d)]
    else:
        n = _jacobi_scaled(R).transpose(1, 2, 0)
    pivots = [n[0][0]]
    if len(n) == 2 and (not one or pivots[0]):  # a float / 0 raises
        pivots.append(n[1][1] - n[1][0] * (n[0][1] / n[0][0]))
    minors = [pivots[0]] + [pivots[0] * p for p in pivots[1:]]
    if one:
        if len(pivots) == len(n) and all(p != 0.0 and p * 0.0 == 0.0 for p in pivots):
            return minors
        return list(_leading_minors(_jacobi_scaled(R)))
    # n00 is 0, nan or finite and nonzero, and where it is 0 or nan the last
    # pivot is not finite: that pivot alone flags the rows
    if not (pivots[-1].all() and np.isfinite(pivots[-1]).all()):
        bad = (pivots[-1] == 0.0) | ~np.isfinite(pivots[-1])
        for m, fixed in zip(minors, _leading_minors(_jacobi_scaled(R[bad])).T):
            m[bad] = fixed
    return minors


def _tail_minors(alg, det_core, signs):
    """The tail minors det(core) * cumprod(block signs) that stand for the
    whole tail (see above): floats from one point's signs, columns from a stack's."""
    minors, run = [], 1.0
    for key, s in zip(alg.offdiag_keys, signs):
        odd = run * s
        even = odd * s
        minors.append(det_core * odd)
        if alg.dim(key) > 1:
            minors.append(det_core * even)
        run = odd if alg.dim(key) % 2 else even
    return minors


def _point_minors(q: InvariantCubic, x: list) -> list:
    """The minors at one diagonal point x (floats) with q > 0, projected onto
    {q = 1}: the stacked kernel's steps on Python floats but for the gradient
    norm (the stack's BLAS dot), the QR and the restriction."""
    qx = _diagonal_q(q, x)
    if not 0.0 < qx < math.inf:
        raise _q_error(qx)
    if abs(qx - 1.0) > LEVEL_TOL:
        s = qx ** (1.0 / 3.0)
        x = [xi / s for xi in x]
        qx = _diagonal_q(q, x)
    g, H = _diagonal_derivatives(q, x)
    padded = np.zeros(q.cone.dim_herm)
    padded[: len(g)] = g
    norm = math.sqrt(padded @ padded)
    if not 0.0 < norm < math.inf:
        raise OutsideConeError("the gradient norm is not finite at the level set")
    qsq, u = qx**2, [gi / norm for gi in g]
    M = [[(gi * gj - qx * h) / qsq for gj, h in zip(g, row)] for gi, row in zip(g, H)]
    au = [abs(t) for t in u]
    drop = au.index(max(au))  # the first largest, as _tangent_basis drops it
    basis = _lapack("qr", [[(i == k) - ui * uk for k, uk in enumerate(u) if k != drop] for i, ui in enumerate(u)])
    core = _scaled_core_minors(_restricted(np.array(M), basis))
    signs = [float((s > 0) - (s < 0)) if s == s else s for s in _block_scalars(q, x, qx)]  # as np.sign
    return core + _tail_minors(q.cone.algebra, core[-1], signs)


def _diagonal_minors(q: InvariantCubic, x: np.ndarray):
    """The leading minors of tangent_restriction's Jacobi-scaled form that
    its min_minor reads (core, then tail; last axis) at each row of x, an
    (N, rank) stack of diagonal points with q > 0, or at one point (rank,).
    Raises where a minor or |grad q| is not finite."""
    with np.errstate(all="ignore"):
        if x.ndim == 1:
            try:
                minors = _point_minors(q, x.tolist())
            except (OverflowError, ZeroDivisionError):  # where a stack gets inf or nan
                raise OutsideConeError("the level set overflows at a diagonal point") from None
            if not all(map(math.isfinite, minors)):
                raise OutsideConeError("the minors of the Hessian metric are not finite at the level set")
            return np.array(minors)
        qx, g, H, blocks = _diagonal_parts(q, x)
        off = ~(np.abs(qx - 1.0) <= LEVEL_TOL)  # nan too: a q within LEVEL_TOL of 1 needs no other check
        if off.any():
            if not ((qx > 0.0) & (qx < math.inf)).all():
                raise _q_error(qx)
            x = x.copy()
            x[off] /= np.float_power(qx[off, None], 1.0 / 3.0)
            qx, g, H, blocks = _diagonal_parts(q, x)
        # The dense path's norm, sqrt(g.dot(g)) over the full zero-padded
        # gradient, is a BLAS dot that rounds unlike one over the rank entries
        # alone; a stacked (1, n) @ (n, 1) matmul rounds like it (einsum does
        # not).  g != 0 by Euler's identity x . grad q = 3 q > 0.
        padded = np.zeros((len(x), q.cone.dim_herm))
        padded[:, : q.cone.rank] = g
        norm = np.sqrt((padded[:, None, :] @ padded[:, :, None])[:, 0, 0])
        if not ((norm > 0.0) & (norm < math.inf)).all():
            raise OutsideConeError("the gradient norm is not finite at the level set")
        core = _scaled_core_minors(_restricted(_neg_hess_log(qx, g, H), _tangent_basis(g / norm[:, None])))
        minors = np.array(core + _tail_minors(q.cone.algebra, core[-1], np.sign(blocks).T)).T.copy()
        if not np.isfinite(minors).all():
            raise OutsideConeError("the minors of the Hessian metric are not finite at the level set")
    return minors


# ---------------------------------------------------------------------------
# The inertia rule and the closed-form core minor
# ---------------------------------------------------------------------------
#
# Hess q (X) X = 2 grad q (X) and X^T Hess q (X) X = 6 q(X) > 0, so Hess q
# splits Hess q-orthogonally into span X plus ker dq, and on {q = 1} the
# metric g(q) is -Hess q on ker dq.  g(q) is therefore positive definite at
# X exactly when Hess q (X) has inertia (1, n-1).  At a diagonal point that
# reads b > 0 for q = a x2^3 + b x2 p1, and a > 0 and 4c x3^3 < q for
# q = a d + b p2 p3 + c p3^3 (which implies the slope constraint).  A zero
# leading coefficient (b, a) gives g(q) a zero block, and a zero margin
# q - 4c x3^3 a singular core: both are degenerate.  The sweeps take each
# point's kind from this rule; the kernel runs only where a minor is read:
# at a witness, and at the positive-definite points that may hold the
# slice's smallest min_minor.  Those are the points whose closed-form core
# minor lies within ARGMIN_DELTA of the smallest, 30 times the largest gap
# between it and the kernel's (3.2e-4 relative, on the ROADMAP plane).

MARGIN_BAND = 1e-12  # a margin |1 - t| <= band * max(1, t) is degenerate
ARGMIN_DELTA = 1e-2  # relative reach of the argmin candidates over the smallest


def _inertia_kinds(q: InvariantCubic, x, qx):
    """The kind code (index into _KINDS) of g(q) at each row of x, diagonal
    points with q = qx > 0 inside the slope constraint: positive-definite
    where b > 0 (rank 2), or a > 0 and a margin 1 - t, t = 4c x3^3 / q,
    above MARGIN_BAND relative to max(1, t) (rank 3); degenerate where b or
    a is 0 or the margin is within the band, 0 included; else indefinite."""
    lead = q.coeffs[1] if q.cone.rank == 2 else q.coeffs[0]
    if q.cone.rank == 2 or not lead > 0.0 or q.coeffs[2] <= 0.0:  # a > 0, c <= 0: a margin of at least 1
        return np.full(np.shape(qx), _PD if lead > 0.0 else _DEGENERATE if lead == 0.0 else _INDEFINITE)
    x3 = x[:, 2]
    f = 4.0 * q.coeffs[2] * (x3 * x3 * x3)  # the margin times q, and its scale, need no division
    band = MARGIN_BAND * np.maximum(qx, f)
    return np.where(qx - f > band, _PD, np.where(qx - f < -band, _INDEFINITE, _DEGENERATE))


def _core_minors(x: np.ndarray, g, H) -> np.ndarray:
    """The kernel's core minor det(Rn) in closed form at each rank-3 diagonal
    point (rows of x), elementwise from _diagonal_derivatives' gradient
    entries g and upper Hessian entries H (H_00 = H_11 = 0).  On g-perp the
    g g^T term of -Hess(log q) vanishes, so R = -B^T H B / q.  There
    det R = g^T adj(H) g / (|g| q)^2, where H x = 2g (Euler) makes
    adj(H) g = det(H) x / 2; and R11 + R22 = (g^T H g / |g|^2 - tr H) / q.
    _tangent_basis' first vector is b1 ~ |g|^2 e_i - g_i g, i the first
    axis it keeps (1 where |g_0| is the largest, else 0), which gives R11
    from g_i and (H g)_i alone; det(Rn) = det R / |R11 R22|."""
    g0, g1, g2 = g
    (_, h01, h02), (_, _, h12), (_, _, h22) = H
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


@np.errstate(all="ignore")  # an overflow leaves a q that is not finite, which raises
def _classify_slice(q: InvariantCubic, grid: DiagonalGrid | SearchGrid):
    """The diagonal points of {q = 1} on the grid and the kind code of each:
    constraint where the slope constraint fails, else the inertia rule's."""
    x = _slice_points(q, grid)
    inside = ~_constraint_violated(q, x)
    xs = x if inside.all() else x[inside]
    qx = _diagonal_q(q, xs)
    if not ((qx > 0.0) & (qx < math.inf)).all():
        raise _q_error(qx)
    if xs is x:
        return x, _inertia_kinds(q, x, qx)
    kinds = np.full(len(x), _CONSTRAINT)
    kinds[inside] = _inertia_kinds(q, xs, qx)
    return x, kinds


def _first_row_witness(q: InvariantCubic, grid: DiagonalGrid):
    """The first point (floats) and kind code of the first x2 row of the slice
    (a, c > 0) that is not positive-definite, or None: that row of
    _classify_slice on floats, which checks q at every inside point.  It
    repeats _level_x1 (a zero a x2 x3 divides as a stack does),
    _constraint_violated, _diagonal_q and _inertia_kinds inline."""
    a, b, c = q.coeffs
    x2, witness, qs = float(grid._xs[0]), None, []
    for x3 in _sweep_row(q, grid, x2):
        x3cu, den = x3**3, a * x2 * x3
        num = 1.0 - b * x2 * x3**2 - c * x3cu
        x1 = num / den if den else num * math.copysign(math.inf, den)
        if not x1 > 0.0:
            continue
        if a * x1 + b * x3 <= 0.0:
            witness = witness or ([x1, x2, x3], _CONSTRAINT)
            continue
        qs.append(qx := a * (x1 * x2 * x3) + b * ((x3 * x2) * x3) + c * x3cu)
        f = 4.0 * c * (x3 * x3 * x3)
        if witness is None and not qx - f > (band := MARGIN_BAND * max(qx, f)):
            witness = ([x1, x2, x3], _INDEFINITE if qx - f < -band else _DEGENERATE)
    if not all(0.0 < qx < math.inf for qx in qs):
        raise _q_error(qs)
    return witness


def _candidate_minors(q: InvariantCubic, x: np.ndarray) -> np.ndarray:
    """The kernel's min_minor at the rows of x (positive-definite slice
    points) that may hold the smallest, nan at the others: for rank 3 those
    whose closed-form core minor is nan or within ARGMIN_DELTA relative of the
    smallest, for rank 2 all (their minors tie).  One such row goes as a point."""
    minors = np.full(len(x), math.nan)
    if len(x):
        rows = np.arange(len(x))
        if q.cone.rank == 3:
            core = _core_minors(x, *_diagonal_derivatives(q, x))
            lo = float(np.fmin.reduce(core, initial=math.inf))
            rows = np.flatnonzero(~(core > lo + ARGMIN_DELTA * abs(lo)))
        minors[rows] = _diagonal_minors(q, x[rows[0]] if rows.size == 1 else x[rows]).min(axis=-1)
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
    decides.  The kernel reads the minors of the witnesses inside the slope
    constraint and of the argmin candidates."""
    x, kinds = _classify_slice(q, DiagonalGrid._given(grid, "the diagonal sweep"))
    if not len(x):
        raise OutsideConeError("empty feasible diagonal grid")
    pd = kinds == _PD
    minors = np.full(len(x), math.nan)
    read = np.flatnonzero(~pd & (kinds != _CONSTRAINT))
    if read.size:
        minors[read] = _diagonal_minors(q, x[read]).min(axis=-1)
    minors[pd] = _candidate_minors(q, x[pd])
    i, min_minor = _first_smallest(minors)
    w = np.flatnonzero(~pd)
    found = zip(x[w].tolist(), kinds[w].tolist(), minors[w].tolist())
    witnesses = tuple(DiagonalWitness(tuple(row), _KINDS[k], m) for row, k, m in found)
    coords = tuple(x[i].tolist())
    return DiagonalReport(
        all_pd=not witnesses, checked=len(x), witnesses=witnesses, min_minor=min_minor, min_minor_coords=coords
    )


def find_locally_admissible_point(q: InvariantCubic, search: SearchGrid | None = None):
    """Deterministic grid search over the diagonal slice; returns the first
    point that the inertia rule calls positive-definite, or None."""
    if q.cone.rank != 3:
        raise SpecError("local-admissibility search is for rank-3 cones")
    search = SearchGrid._given(search, "local-admissibility search")
    if q.coeffs[0] == 0.0:  # no point is PD; the sampler's q can cancel to <= 0 at extreme c
        return None
    x, kinds = _classify_slice(q, search)
    found = np.flatnonzero(kinds == _PD)
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
    all-positive-definite slice or else at the first witness, which an
    eps2 > 0 cell takes from its first x2 row, on floats, where it has one.
    No cell is locally-admissible: by the inertia rule an eps2 <= 0 cell is
    positive-definite everywhere.  ``search`` is ignored."""
    if cone.rank != 3:
        raise SpecError("parameter-plane scan is for rank-3 cones")
    grid = DiagonalGrid._given(grid, "parameter-plane scan")  # one spacing per plane
    rows = []
    for e1 in eps1_values:
        for e2 in eps2_values:
            q = InvariantCubic.rank3_family(cone, e1, e2)  # refuses a value that is no real number
            _, e1, e2 = q.coeffs
            w = _first_row_witness(q, grid) if e2 > 0.0 else None
            if w is None:
                x, kinds = _classify_slice(q, grid)
                if not len(x):
                    raise OutsideConeError("empty feasible diagonal grid")
                if (kinds == _PD).all():
                    i, minor = _first_smallest(_candidate_minors(q, x))
                    rows.append(ScanCell(e1, e2, ADMISSIBLE_ON_SAMPLE, *x[i, 1:].tolist(), minor))
                    continue
                j = int(np.argmax(kinds != _PD))  # the first witness, whose minor the row reads
                w = x[j].tolist(), kinds[j]
            minor = float(_diagonal_minors(q, np.array(w[0])).min()) if w[1] != _CONSTRAINT else math.nan
            rows.append(ScanCell(e1, e2, NOT_ADMISSIBLE, *w[0][1:], minor))
    return rows


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def scan_to_csv(rows: list[ScanCell], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps1", "eps2", "classification", "witness_x2", "witness_x3", "min_minor"])
        for r in rows:
            writer.writerow([_fmt17(r.eps1), _fmt17(r.eps2), r.classification, *map(_fmt17, astuple(r)[3:])])
