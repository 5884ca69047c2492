"""Nil-algebras of generalized matrices, their triangular groups and
Hermitian matrices.

A rank-m Nil-algebra stores one metric space per strictly-upper slot (i, j)
and, for rank 3, the Clifford module whose multiplication is the single
bilinear isometric product N_12 x N_23 -> N_13.  Triangular elements (the
solvable group when the diagonal is positive) and Hermitian matrices are
coordinate containers over a fixed algebra, each one flat vector in the
algebra's layout (see README, Coordinates); all products needed downstream
are expressed through the product and its two metric adjoints, gathers over
the module's monomial gammas, so the same code runs on an algebra and on its
anti-transposed dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import CliffordModule, MetricSpace
from .errors import AlgebraMismatchError, DimensionMismatchError, SpecError

Key = tuple[int, int]


@dataclass(frozen=True, eq=False)
class NilAlgebra:
    """Upper-triangular generalized-matrix algebra of rank 2 or 3.

    At rank 3 the bilinear map N_12 x N_23 -> N_13 is Clifford
    multiplication (s0, v) -> mu_v(s0) of ``clifford``.  ``kind``
    distinguishes the special orientation (entry (1,2) even spinor s0, (2,3)
    vector v), for which the squared G-determinant is a cubic polynomial,
    from its dual, which multiplies (v, s0) -> mu_v(s0).
    """

    rank: int
    spaces: dict[Key, MetricSpace]
    clifford: CliffordModule | None = None
    kind: str = "rank2"
    _dual: "NilAlgebra | None" = field(default=None, repr=False)
    # slice of the diagonal ("diag") and of each block in the flat vector
    layout: dict = field(init=False, repr=False)
    herm_dim: int = field(init=False, repr=False)
    offdiag_keys: tuple[Key, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.rank not in (2, 3):
            raise SpecError("only ranks 2 and 3 are supported")
        expect = [(i, j) for i in range(1, self.rank + 1) for j in range(i + 1, self.rank + 1)]
        if sorted(self.spaces) != expect:
            raise SpecError(f"spaces must be indexed by {expect}")
        layout, pos = {"diag": slice(0, self.rank)}, self.rank
        for key in expect:
            layout[key] = slice(pos, pos + self.dim(key))
            pos += self.dim(key)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "herm_dim", pos)
        object.__setattr__(self, "offdiag_keys", tuple(expect))
        if self.rank == 2:
            if self.clifford is not None:
                raise SpecError("rank-2 algebras have no product")
            return
        if self.clifford is None or self.kind not in ("rank3-special", "rank3-dual"):
            raise SpecError("rank-3 algebras need a Clifford module and a rank-3 kind")
        dims = (self.dim((1, 2)), self.dim((1, 3)), self.dim((2, 3)))
        s, v = self.clifford.dim_s, self.clifford.dim_v
        if dims != ((s, s, v) if self._special else (v, s, s)):
            raise DimensionMismatchError(f"block dimensions {dims} do not fit the Clifford module")
        self._tables()  # built once; rejects gammas that are not monomial

    # -- structure ---------------------------------------------------------

    def dim(self, key: Key) -> int:
        return self.spaces[key].dim

    @cached_property
    def is_euclidean(self) -> bool:
        return all(s.is_euclidean for s in self.spaces.values())

    @cached_property
    def gram_pivots(self) -> np.ndarray:
        """Ratios of consecutive leading minors (squared Cholesky diagonals) of
        each Jacobi-scaled block Gram matrix, in flat off-diagonal order
        (Euclidean algebras only; computed once)."""
        out = []
        for key in self.offdiag_keys:
            G = self.spaces[key].gram
            s = np.sqrt(np.diag(G))
            out.append(np.diag(np.linalg.cholesky(G / np.outer(s, s))) ** 2)
        return np.concatenate(out)

    def ip(self, key: Key, x, y):
        return self.spaces[key].ip(x, y)

    def norm_sq(self, key: Key, x):
        return self.spaces[key].ip(x, x)

    @cached_property
    def _segments(self) -> tuple:
        """The flat weight vector (1 on the diagonal, then every block's
        ``MetricSpace.weights``; None if a block Gram is not diagonal) and
        the start of each off-diagonal block (built on first use)."""
        weights = [self.spaces[k].weights for k in self.offdiag_keys]
        flat = None if any(w is None for w in weights) else np.concatenate([np.ones(self.rank), *weights])
        return flat, np.array([self.layout[k].start for k in self.offdiag_keys])

    def block_products(self, x, y) -> np.ndarray:
        """<x_k, y_k>_k for every off-diagonal block k of two flat vectors (or
        stacks), along a last axis in ``offdiag_keys`` order: one weighted
        product and one segmented sum, which gives each row of a stack the
        bits of its single point (a matmul against a block indicator would
        not).  A non-diagonal block Gram takes the per-block
        ``MetricSpace.ip``."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape[-1:] != (self.herm_dim,) or y.shape[-1:] != (self.herm_dim,):
            raise DimensionMismatchError(f"block_products: flat shapes {x.shape}, {y.shape} are wrong")
        flat, starts = self._segments
        if flat is None:
            lay = self.layout
            return np.stack([self.spaces[k].ip(x[..., lay[k]], y[..., lay[k]]) for k in self.offdiag_keys], -1)
        return np.add.reduceat(x * flat * y, starts, axis=-1)

    @cached_property
    def block_rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """i - 1 and j - 1 for every off-diagonal flat entry, (i, j) being its
        block: the diagonal entries of its row and its column (built on
        first use)."""
        sizes = [self.dim(k) for k in self.offdiag_keys]
        return tuple(np.repeat([k[side] - 1 for k in self.offdiag_keys], sizes) for side in (0, 1))

    @cached_property
    def anti_transpose_index(self) -> np.ndarray:
        """The flat index of anti-transposition: the dual-algebra vector of
        t'(X) is X's vector taken at it (built on first use)."""
        m, flat = self.rank, np.arange(self.herm_dim)
        blocks = [flat[self.layout[(m + 1 - j, m + 1 - i)]] for (i, j) in self.offdiag_keys]
        return np.concatenate([flat[m - 1 :: -1], *blocks])

    # -- products ----------------------------------------------------------
    # Rank 3 only, on block vectors or stacks of them.  The product is
    # (s0, v) -> mu_v(s0) with (s0, v) in (N_12, N_23), or in (N_23, N_12)
    # for the dual.  Every Gamma_a is monomial, so each product gathers one
    # factor through the module's index tables into a (..., dim_v, dim_s)
    # matrix and contracts the other against it in one matmul: O(dim_v dim_s).

    @property
    def _special(self) -> bool:
        return self.kind == "rank3-special"

    def _tables(self) -> tuple[np.ndarray, ...]:
        if self.rank != 3:
            raise SpecError("rank-2 algebra has no composable product")
        return self.clifford.monomial_tables

    def gamma_images(self, s0) -> np.ndarray:
        """The (..., dim_v, dim_s) matrix whose row a is Gamma_a s0."""
        _, _, inv, inv_val = self._tables()
        return _gather(s0, inv, inv_val)

    def gamma_pairing(self, x13) -> np.ndarray:
        """The (..., dim_v, dim_s) matrix P with P[a, j] = <x13, Gamma_a e_j>_13,
        so that <x13, mu_v(s0)>_13 = v . P . s0."""
        perm, val, _, _ = self._tables()
        return _gather(self.spaces[(1, 3)].lower(x13), perm, val)

    def trilinear(self, x12, x13, x23):
        """<x12 . x23, x13>_13 as v . P . s0, with P = gamma_pairing(x13) and
        (s0, v) the factors of the product: one gather, no adjoint."""
        s0, v = (x12, x23) if self._special else (x23, x12)
        return (_row_times(v, self.gamma_pairing(x13)) * s0).sum(-1)

    def mult(self, x12, x23) -> np.ndarray:
        """The algebra product N_12 x N_23 -> N_13."""
        s0, v = (x12, x23) if self._special else (x23, x12)
        return _row_times(v, self.gamma_images(s0))

    def _adjoint(self, x13, x, x_is_v: bool, key: Key) -> np.ndarray:
        """The out in N_key with <out, u>_key = <x13, product of u and x>_13
        for all u; x is the factor in V when x_is_v, else the one in S0."""
        P = self.gamma_pairing(x13)
        z = _row_times(x, P) if x_is_v else (P @ np.asarray(x, dtype=float)[..., None])[..., 0]
        return self.spaces[key].raise_(z)

    def mult_flat_right(self, x13, x23) -> np.ndarray:
        """x13 . x23^flat in N_12: <out, u>_12 = <x13, u . x23>_13 for all u."""
        return self._adjoint(x13, x23, self._special, (1, 2))

    def mult_flat_left(self, x12, x13) -> np.ndarray:
        """x12^flat . x13 in N_23: <out, y>_23 = <x13, x12 . y>_13 for all y."""
        return self._adjoint(x13, x12, not self._special, (2, 3))

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "kind": self.kind,
            "spaces": {
                f"{i}{j}": {"dim": s.dim, "signature": list(s.signature)}
                for (i, j), s in sorted(self.spaces.items())
            },
        }
        if self.clifford is not None:
            out["clifford"] = self.clifford.to_json()
        return out


def _gather(x, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values[a, j] * x[..., index[a, j]], of shape (..., dim_v, dim_s).  The
    method ``take`` spares a single point the 2 us of ``np.take``'s wrapper,
    and the product is taken in place: a stack's gather is large, and a
    second array that size costs more to allocate than the gather itself."""
    x = np.asarray(x, dtype=float)
    out = x.take(index.ravel(), axis=-1).reshape(x.shape[:-1] + index.shape)
    out *= values
    return out


def _row_times(x, M) -> np.ndarray:
    """x . M over the last axes: (..., n) times (..., n, k) gives (..., k)."""
    return (np.asarray(x, dtype=float)[..., None, :] @ M)[..., 0, :]


def rank2_algebra(w_space: MetricSpace) -> NilAlgebra:
    """Rank-2 Nil-algebra with single entry space W at slot (1, 2)."""
    return NilAlgebra(2, {(1, 2): w_space}, kind="rank2")


def rank3_special(module: CliffordModule) -> NilAlgebra:
    """Rank-3 special Nil-algebra: (1,2) = S0, (1,3) = S1, (2,3) = V,
    product (s0, v) -> mu_v(s0).  Raises CliffordRelationError unless every
    gamma is monomial."""
    spaces = {(1, 2): module.s0_space, (1, 3): module.s1_space, (2, 3): module.v_space}
    return NilAlgebra(3, spaces, clifford=module, kind="rank3-special")


def dual_algebra(algebra: NilAlgebra) -> NilAlgebra:
    """Anti-transposed dual: slot (i,j) holds the original (m+1-j, m+1-i)
    space, products compose in reversed order.  Involutive at object level."""
    if algebra._dual is not None:
        return algebra._dual
    m = algebra.rank
    spaces = {
        (i, j): algebra.spaces[(m + 1 - j, m + 1 - i)]
        for (i, j) in algebra.offdiag_keys
    }
    kind = {"rank2": "rank2", "rank3-special": "rank3-dual", "rank3-dual": "rank3-special"}[
        algebra.kind
    ]
    dual = NilAlgebra(m, spaces, clifford=algebra.clifford, kind=kind)
    object.__setattr__(dual, "_dual", algebra)
    object.__setattr__(algebra, "_dual", dual)
    return dual


# ---------------------------------------------------------------------------
# Matrix containers
# ---------------------------------------------------------------------------


class _FlatEntries:
    """Diagonal plus strictly-upper blocks over a fixed algebra, held as one
    read-only float array in ``algebra.layout`` (see README, Coordinates) of
    shape (herm_dim,), or (N, herm_dim) for a stack of N.  ``diag`` and
    ``offdiag[key]`` are read-only views along its last axis and share their
    leading shape; a block left out of ``offdiag`` is zero."""

    __slots__ = ("algebra", "diag", "offdiag", "_vector")

    def __init__(self, algebra: NilAlgebra, diag, offdiag: dict):
        diag = np.asarray(diag, dtype=float)
        vec = np.zeros(diag.shape[:-1] + (algebra.herm_dim,))
        entries = {"diag": diag, **offdiag}
        for key, sl in algebra.layout.items():
            if key in entries:
                entry = np.asarray(entries[key], dtype=float)
                if entry.shape != vec.shape[:-1] + (sl.stop - sl.start,):
                    raise DimensionMismatchError(f"{type(self).__name__}: entry {key} has wrong shape")
                vec[..., sl] = entry
        self._wrap(algebra, vec)

    def _wrap(self, algebra: NilAlgebra, vec: np.ndarray) -> None:
        if vec.ndim not in (1, 2) or vec.shape[-1] != algebra.herm_dim:
            raise DimensionMismatchError(f"{type(self).__name__}: flat shape {vec.shape} is wrong")
        vec.setflags(write=False)
        views = {key: vec[..., sl] for key, sl in algebra.layout.items()}
        fields = {"algebra": algebra, "_vector": vec, "diag": views.pop("diag"), "offdiag": views}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _from_flat(cls, algebra: NilAlgebra, vec: np.ndarray):
        """Wrap the float array ``vec`` (taken over, not copied)."""
        out = cls.__new__(cls)
        out._wrap(algebra, vec)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def to_vector(self) -> np.ndarray:
        """The flat coordinates (read-only)."""
        return self._vector

    def to_json(self) -> dict:
        return {
            "rank": self.algebra.rank,
            "diag": list(self.diag),
            "offdiag": {f"{i}{j}": list(self.offdiag[(i, j)]) for (i, j) in self.algebra.offdiag_keys},
        }


class TriangularElement(_FlatEntries):
    """Upper-triangular generalized matrix D + N.  Elements of the Vinberg
    group have strictly positive diagonal; products may leave that set."""

    __slots__ = ()

    @property
    def in_group(self) -> bool:
        return bool((self.diag > 0).all())


class HermMatrix(_FlatEntries):
    """Hermitian generalized matrix; only diagonal + upper entries stored."""

    __slots__ = ()

    def scaled(self, lam: float) -> "HermMatrix":
        return herm_from_vector(self.algebra, lam * self._vector)


def herm_from_vector(algebra: NilAlgebra, vec) -> HermMatrix:
    """A Hermitian matrix (or a stack of them) holding a copy of the flat
    coordinates ``vec``, of shape (herm_dim,) or (N, herm_dim)."""
    return HermMatrix._from_flat(algebra, np.array(vec, dtype=float))


_POINT_KEYS = {"rank", "diag", "offdiag"}


def herm_from_json(algebra: NilAlgebra, obj: dict) -> HermMatrix:
    """Read {"rank", "diag", "offdiag": {"12": [...], ...}}; a block left out
    is zero.  Unknown fields or block names, entries that are not lists of
    JSON numbers (strings and booleans included) and non-finite entries are
    rejected, so a misspelled key is never read as zeros."""
    if not isinstance(obj, dict):
        raise SpecError("Hermitian-matrix JSON must be an object")
    unknown = set(obj) - _POINT_KEYS
    if unknown:
        raise SpecError(f"unknown Hermitian-matrix fields: {sorted(unknown)}")
    if not isinstance(obj.get("rank"), int) or obj["rank"] != algebra.rank:
        raise SpecError("rank mismatch between matrix and algebra")
    names = {f"{i}{j}": (i, j) for (i, j) in algebra.offdiag_keys}
    offdiag = obj.get("offdiag", {})
    if not isinstance(offdiag, dict):
        raise SpecError("offdiag must be an object keyed by block name")
    unknown = set(offdiag) - set(names)
    if unknown:
        raise SpecError(f"unknown offdiag blocks {sorted(unknown)}; expected {sorted(names)}")
    for name, entry in {"diag": obj.get("diag"), **offdiag}.items():
        if not isinstance(entry, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry
        ):
            raise SpecError(f"Hermitian-matrix entry {name} must be a list of JSON numbers, got {entry!r}")
    try:
        X = HermMatrix(algebra, obj["diag"], {names[name]: v for name, v in offdiag.items()})
    except (DimensionMismatchError, OverflowError) as exc:  # an integer beyond float range overflows
        raise SpecError(f"bad Hermitian-matrix JSON: {exc}") from exc
    if not np.all(np.isfinite(X.to_vector())):
        raise SpecError("Hermitian-matrix JSON has a non-finite entry")
    return X


def identity_triangular(algebra: NilAlgebra) -> TriangularElement:
    return TriangularElement(algebra, np.ones(algebra.rank), {})


def herm_identity(algebra: NilAlgebra) -> HermMatrix:
    return HermMatrix(algebra, np.ones(algebra.rank), {})


def random_triangular(
    algebra: NilAlgebra,
    rng: np.random.Generator,
    diag_range: tuple[float, float] = (0.5, 2.0),
    off_range: tuple[float, float] = (-1.0, 1.0),
) -> TriangularElement:
    """Random group element: diagonal uniform in diag_range, entries of every
    off-diagonal block uniform in off_range.  Deterministic given the rng."""
    return TriangularElement._from_flat(algebra, _uniform_entries(algebra, rng, (), diag_range, off_range))


def _uniform_entries(algebra: NilAlgebra, rng, shape: tuple, diag_range=(0.5, 2.0), off_range=(-1.0, 1.0)):
    """Flat vectors of leading shape ``shape``, the diagonal uniform in
    diag_range and the other entries in off_range, from one rng call.  As
    numpy's uniform(lo, hi) is lo + (hi - lo) * random(), the values and the
    rng state after are those of drawing each vector's diagonal and then
    each block with ``rng.uniform``, vector by vector in C order."""
    m = algebra.rank
    lo, hi = np.array([diag_range] * m + [off_range] * (algebra.herm_dim - m)).T
    u = rng.random(tuple(shape) + (algebra.herm_dim,))
    u *= hi - lo
    u += lo
    return u


# ---------------------------------------------------------------------------
# Products and the orbit map
# ---------------------------------------------------------------------------


def check_same_algebra(algebra: NilAlgebra, *operands) -> None:
    """Raise AlgebraMismatchError unless every operand lives over ``algebra``."""
    if any(x.algebra is not algebra for x in operands):
        raise AlgebraMismatchError("operands live over different algebras")


def triangular_product(A: TriangularElement, B: TriangularElement) -> TriangularElement:
    """Associative product in the solvable matrix algebra T(N): block (i, j)
    is a_ii b_ij + a_ij b_jj, plus a_12 . b_23 at (1, 3)."""
    check_same_algebra(A.algebra, B)
    alg, a, b = A.algebra, A.to_vector(), B.to_vector()
    m, (rows, cols) = alg.rank, alg.block_rows_cols
    off = a[..., rows] * b[..., m:] + a[..., m:] * b[..., cols]
    out = np.concatenate((a[..., :m] * b[..., :m], off), axis=-1)
    if m == 3:
        out[..., alg.layout[(1, 3)]] += alg.mult(A.offdiag[(1, 2)], B.offdiag[(2, 3)])
    return TriangularElement._from_flat(alg, out)


def block_norms(E) -> np.ndarray:
    """|e_k|^2 for every off-diagonal block k of E, one row per block (each
    an (N,) array for a stack)."""
    v = E.to_vector()
    return E.algebra.block_products(v, v).T


def _orbit_point(A: TriangularElement, star: bool) -> HermMatrix:
    """A . A^*, or A^* . A when ``star``.  Diagonal entry i is a_ii^2 plus
    |a_ij|^2 over the blocks of row i (of column i when ``star``), added in
    flat order; block (i, j) is a_ij times a_jj (a_ii), plus at rank 3 the
    one product term, a_13 . a_23^flat at (1, 2) (a_12^flat . a_13 at
    (2, 3))."""
    if not A.in_group:
        raise SpecError(f"{'A^* . A' if star else 'A . A^*'} requires a strictly positive diagonal")
    alg, v, a = A.algebra, A.to_vector(), A.diag
    m, (rows, cols) = alg.rank, alg.block_rows_cols
    diag, n = list((a * a).T), alg.block_products(v, v).T  # per-point values along the first axis
    for k, (i, j) in enumerate(alg.offdiag_keys):
        s = (j if star else i) - 1
        diag[s] = diag[s] + n[k]
    out = np.empty(v.shape)
    out.T[:m] = diag
    out[..., m:] = a[..., rows if star else cols] * v[..., m:]
    if m == 3:
        t0, t1, w = (A.offdiag[k] for k in alg.offdiag_keys)
        if star:
            out[..., alg.layout[(2, 3)]] += alg.mult_flat_left(t0, t1)
        else:
            out[..., alg.layout[(1, 2)]] += alg.mult_flat_right(t1, w)
    return HermMatrix._from_flat(alg, out)


def herm_from_triangular(A: TriangularElement) -> HermMatrix:
    """The Hermitian matrix A . A^*; requires a positive diagonal."""
    return _orbit_point(A, star=False)


def herm_from_triangular_star(A: TriangularElement) -> HermMatrix:
    """The Hermitian matrix A^* . A (a point of the dual cone)."""
    return _orbit_point(A, star=True)


def anti_transpose(X):
    """Reflection of a Hermitian matrix or a triangular element across the
    anti-diagonal; lands in the dual algebra.  One take of the flat vector."""
    alg = X.algebra
    return type(X)._from_flat(dual_algebra(alg), X.to_vector().take(alg.anti_transpose_index, axis=-1))


anti_transpose_triangular = anti_transpose


def herm_pairing(X: HermMatrix, Y: HermMatrix):
    """Trace-form inner product sum_i x_i y_i + 2 sum_{i<j} <x_ij, y_ij>."""
    check_same_algebra(X.algebra, Y)
    blocks = X.algebra.block_products(X.to_vector(), Y.to_vector())
    return (X.diag * Y.diag).sum(-1) + 2.0 * blocks.sum(-1)
