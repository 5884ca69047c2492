"""Nil-algebras of generalized matrices, their triangular groups and
Hermitian matrices.

A Nil-algebra is fixed by its kind and, at rank 2, the dimension of its one
block W or, at rank 3, the Clifford module whose multiplication is the
single bilinear isometric product N_12 x N_23 -> N_13; every block is
Euclidean, of a dimension that input fixes.  Triangular elements (the
solvable group when the diagonal is positive) and Hermitian matrices are
coordinate containers over a fixed algebra, each one flat vector in the
algebra's layout (see README, Coordinates); all products needed downstream
are expressed through the product and its two metric adjoints, the Clifford
module's gathers over its monomial gammas, so the same code runs on an
algebra and on its anti-transposed dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import CliffordModule, MetricSpace
from .errors import AlgebraMismatchError, DimensionMismatchError, SpecError, require

Key = tuple[int, int]


@dataclass(frozen=True, eq=False)
class NilAlgebra:
    """Upper-triangular generalized-matrix algebra of rank 2 or 3, fixed by
    its ``kind`` and ``dim_w`` (kind "rank2") or ``clifford`` (a rank-3
    kind); the rank, the block dimensions and the layout follow from them.

    At rank 3 the bilinear map N_12 x N_23 -> N_13 is Clifford
    multiplication (s0, v) -> mu_v(s0) of ``clifford``.  ``kind``
    distinguishes the special orientation "rank3-special" (entry (1,2) even
    spinor s0, (2,3) vector v), for which the squared G-determinant is a
    cubic polynomial, from its dual "rank3-dual", which multiplies (v, s0).
    """

    kind: str
    clifford: CliffordModule | None = None
    dim_w: int | None = None
    _dual: "NilAlgebra | None" = field(default=None, init=False, repr=False)
    rank: int = field(init=False)
    _special: bool = field(init=False, repr=False)
    _dims: dict = field(init=False, repr=False)
    # slice of the diagonal ("diag") and of each block in the flat vector
    layout: dict = field(init=False, repr=False)
    herm_dim: int = field(init=False, repr=False)
    offdiag_keys: tuple[Key, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == "rank2":
            if self.clifford is not None:
                raise SpecError("rank-2 algebras have no product")
            rank, dims = 2, {(1, 2): MetricSpace(self.dim_w).dim}  # W refuses a dim_w that is no integer >= 1
        elif self.kind in ("rank3-special", "rank3-dual"):
            if not isinstance(self.clifford, CliffordModule) or self.dim_w is not None:
                raise SpecError("rank-3 algebras need a Clifford module and no dim_w")
            s, v = self.clifford.dim_s, self.clifford.dim_v
            sizes = (s, s, v) if self.kind == "rank3-special" else (v, s, s)
            rank, dims = 3, dict(zip([(1, 2), (1, 3), (2, 3)], sizes))
        else:
            raise SpecError(f"kind must be 'rank2', 'rank3-special' or 'rank3-dual', got {self.kind!r}")
        layout, pos = {"diag": slice(0, rank)}, rank
        for key, d in dims.items():
            layout[key] = slice(pos, pos + d)
            pos += d
        # past the frozen __setattr__
        self.__dict__.update(rank=rank, _special=self.kind == "rank3-special", _dims=dims, layout=layout)
        self.__dict__.update(herm_dim=pos, offdiag_keys=tuple(dims))

    # -- structure ---------------------------------------------------------

    def dim(self, key: Key) -> int:
        return self._dims[key]

    @cached_property
    def _segments(self) -> np.ndarray:
        """The start of each off-diagonal block in the flat vector (built once)."""
        return np.array([self.layout[k].start for k in self.offdiag_keys])

    @cached_property
    def _residual_blocks(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """The start of the diagonal and of every block in the flat vector,
        and their names "diag", "12", ...: the segments of the residuals of
        group coordinates (built once)."""
        starts = np.concatenate(([0], self._segments))
        return starts, ("diag", *(f"{i}{j}" for i, j in self.offdiag_keys))

    def block_products(self, x, y) -> np.ndarray:
        """<x_k, y_k>_k for every off-diagonal block k of two flat vectors (or
        stacks), along a last axis in ``offdiag_keys`` order: one product and
        one segmented sum, which gives each row of a stack the
        bits of its single point (a matmul by a block indicator would not)."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape[-1:] != (self.herm_dim,) or y.shape[-1:] != (self.herm_dim,):
            raise DimensionMismatchError(f"block_products: flat shapes {x.shape}, {y.shape} are wrong")
        return self._block_products(x, y)

    def _block_products(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """block_products on float arrays of the right shape, unchecked."""
        return np.add.reduceat(x * y, self._segments, axis=-1)

    @cached_property
    def block_rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """i - 1 and j - 1 for every flat entry, (i, j) being its block, and
        i for diagonal entry i: the diagonal entries of its row and its
        column, so that v.take(rows) * v scales every entry of a flat vector
        v as its row's diagonal entry does, and squares the diagonal (built
        on first use)."""
        sizes = [self.dim(k) for k in self.offdiag_keys]
        diag = np.arange(self.rank)
        return tuple(
            np.concatenate((diag, np.repeat([k[side] - 1 for k in self.offdiag_keys], sizes))) for side in (0, 1)
        )

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
    # for the dual; it and its two metric adjoints are the Clifford module's
    # mult, mult_adjoint and bilinear, and each method here only picks the
    # orientation.  ``P``, given when the caller has gamma_pairing(x13), lets
    # two products share a gather.

    @cached_property
    def _module(self) -> CliffordModule:
        if self.rank != 3:
            raise SpecError("rank-2 algebra has no composable product")
        return self.clifford

    def trilinear(self, x12, x13, x23, P=None):
        """<x12 . x23, x13>_13 as <mu_v^#(x13), s0>, with (s0, v) the factors
        of the product: one gather, one adjoint."""
        s0, v = (x12, x23) if self._special else (x23, x12)
        return np.add.reduce(self._module.mult_adjoint(v, x13, P) * s0, -1)

    def mult(self, x12, x23) -> np.ndarray:
        """The algebra product N_12 x N_23 -> N_13."""
        s0, v = (x12, x23) if self._special else (x23, x12)
        return self._module.mult(v, s0)

    def mult_flat_right(self, x13, x23, P=None) -> np.ndarray:
        """x13 . x23^flat in N_12: <out, u>_12 = <x13, u . x23>_13 for all u."""
        m = self._module
        return m.mult_adjoint(x23, x13, P) if self._special else m.bilinear(x13, x23, P)

    def mult_flat_left(self, x12, x13, P=None) -> np.ndarray:
        """x12^flat . x13 in N_23: <out, y>_23 = <x13, x12 . y>_13 for all y."""
        m = self._module
        return m.bilinear(x13, x12, P) if self._special else m.mult_adjoint(x12, x13, P)

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "kind": self.kind,
            "spaces": {f"{i}{j}": {"dim": d, "signature": [d, 0]} for (i, j), d in self._dims.items()},
        }
        if self.clifford is not None:
            out["clifford"] = self.clifford.to_json()
        return out


def rank2_algebra(w_space: MetricSpace) -> NilAlgebra:
    """Rank-2 Nil-algebra with single entry space W at slot (1, 2)."""
    require(w_space, MetricSpace, "a rank-2 algebra")
    return NilAlgebra("rank2", dim_w=w_space.dim)


def rank3_special(module: CliffordModule) -> NilAlgebra:
    """Rank-3 special Nil-algebra: (1,2) = S0, (1,3) = S1, (2,3) = V,
    product (s0, v) -> mu_v(s0)."""
    return NilAlgebra("rank3-special", clifford=module)


def dual_algebra(algebra: NilAlgebra) -> NilAlgebra:
    """Anti-transposed dual: slot (i,j) holds the original (m+1-j, m+1-i)
    space, products compose in reversed order.  Involutive at object level."""
    if algebra._dual is not None:
        return algebra._dual
    kind = {"rank2": "rank2", "rank3-special": "rank3-dual", "rank3-dual": "rank3-special"}[algebra.kind]
    dual = NilAlgebra(kind, algebra.clifford, algebra.dim_w)
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
        unknown = [key for key in offdiag if key not in algebra.offdiag_keys]
        if unknown:  # a misspelled block is not read as zeros
            raise DimensionMismatchError(f"{type(self).__name__}: unknown blocks {unknown}, not {algebra.offdiag_keys}")
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
        put = object.__setattr__
        put(self, "algebra", algebra)
        put(self, "_vector", vec)
        put(self, "diag", vec[..., : algebra.rank])
        put(self, "offdiag", {key: vec[..., algebra.layout[key]] for key in algebra.offdiag_keys})

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
        d = self.diag
        if d.ndim == 1:  # one element: Python floats, nan > 0 False as in numpy
            return all(map((0.0).__lt__, d.tolist()))
        return bool((d > 0.0).all())


class HermMatrix(_FlatEntries):
    """Hermitian generalized matrix; only diagonal + upper entries stored."""

    __slots__ = ()

    def scaled(self, lam: float) -> "HermMatrix":
        return herm_from_vector(self.algebra, lam * self._vector)


def herm_from_vector(algebra: NilAlgebra, vec) -> HermMatrix:
    """A Hermitian matrix (or a stack of them) holding a copy of the flat
    coordinates ``vec``, of shape (herm_dim,) or (N, herm_dim)."""
    try:
        vec = np.array(vec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"flat coordinates must be real numbers: {exc}") from None
    return HermMatrix._from_flat(algebra, vec)


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
    """Raise SpecError unless every operand is a HermMatrix or a
    TriangularElement, and AlgebraMismatchError unless it lives over ``algebra``."""
    for x in operands:
        if not isinstance(x, _FlatEntries):
            raise SpecError(f"an operand needs to be a HermMatrix or a TriangularElement, got {type(x).__name__}")
        if x.algebra is not algebra:
            raise AlgebraMismatchError("operands live over different algebras")


def triangular_product(A: TriangularElement, B: TriangularElement) -> TriangularElement:
    """Associative product in the solvable matrix algebra T(N): block (i, j)
    is a_ii b_ij + a_ij b_jj, plus a_12 . b_23 at (1, 3)."""
    check_same_algebra(getattr(A, "algebra", None), A, B)
    alg, a, b = A.algebra, A._vector, B._vector
    m, (rows, cols) = alg.rank, alg.block_rows_cols
    out = a.take(rows, axis=-1) * b  # a_ii b_ii, then a_ii b_ij
    out[..., m:] += a[..., m:] * b.take(cols[m:], axis=-1)
    if m == 3:
        out[..., alg.layout[(1, 3)]] += alg.mult(A.offdiag[(1, 2)], B.offdiag[(2, 3)])
    return TriangularElement._from_flat(alg, out)


def block_norms(E) -> list:
    """|e_k|^2 for every off-diagonal block k of E, in ``offdiag_keys`` order:
    floats for one point (see :func:`_entries`), (N,) arrays for a stack."""
    v = E._vector
    return _entries(E.algebra._block_products(v, v))


def _entries(z: np.ndarray) -> list:
    """The entries of z along its last axis: Python floats for one point,
    whose arithmetic has numpy's bits at a fraction of its per-call cost,
    and (N,) arrays for a stack of N."""
    return z.tolist() if z.ndim == 1 else list(z.T)


def _orbit_vector(alg: NilAlgebra, v: np.ndarray, star: bool, product=None) -> np.ndarray:
    """The flat vector of A . A^*, or of A^* . A when ``star``, from the flat
    vector v of A (or a stack), unchecked.  Diagonal entry i is a_ii^2 plus
    |a_ij|^2 over the blocks of row i (of column i when ``star``), added in
    flat order; block (i, j) is a_ij times a_jj (a_ii), plus at rank 3 the
    one product term, a_13 . a_23^flat at (1, 2) (a_12^flat . a_13 at
    (2, 3)), or ``product`` when the caller has it.  One take and one
    product give the squares and the scaled blocks."""
    m, (rows, cols) = alg.rank, alg.block_rows_cols
    out = v.take(rows if star else cols, axis=-1)
    out *= v
    diag, side = _entries(out[..., :m]), int(star)
    for key, n in zip(alg.offdiag_keys, _entries(alg._block_products(v, v))):
        diag[key[side] - 1] += n
    out.T[:m] = diag
    if m == 3:
        lay = alg.layout
        if product is None:
            t1, other = v[..., lay[(1, 3)]], v[..., lay[(1, 2) if star else (2, 3)]]
            product = alg.mult_flat_left(other, t1) if star else alg.mult_flat_right(t1, other)
        block = out[..., lay[(2, 3) if star else (1, 2)]]
        block += product
    return out


def _orbit_point(A: TriangularElement, star: bool) -> HermMatrix:
    """A . A^*, or A^* . A when ``star``, for A in the group."""
    if not A.in_group:
        raise SpecError(f"{'A^* . A' if star else 'A . A^*'} requires a strictly positive diagonal")
    return HermMatrix._from_flat(A.algebra, _orbit_vector(A.algebra, A._vector, star))


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
    return type(X)._from_flat(dual_algebra(alg), X._vector.take(alg.anti_transpose_index, axis=-1))


def herm_pairing(X: HermMatrix, Y: HermMatrix):
    """Trace-form inner product sum_i x_i y_i + 2 sum_{i<j} <x_ij, y_ij>."""
    check_same_algebra(getattr(X, "algebra", None), X, Y)
    blocks = X.algebra._block_products(X._vector, Y._vector)
    return np.add.reduce(X.diag * Y.diag, -1) + 2.0 * np.add.reduce(blocks, -1)
