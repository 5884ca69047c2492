"""Nil-algebras of generalized matrices, their triangular groups and
Hermitian matrices.

A rank-m Nil-algebra stores one metric space per strictly-upper slot (i, j)
and, for rank 3, the single bilinear isometric product
N_12 x N_23 -> N_13 as a dense tensor.  Triangular elements (the solvable
group when the diagonal is positive) and Hermitian matrices are coordinate
containers over a fixed algebra, each one flat vector in the algebra's
layout (see README, Coordinates); all products needed downstream are
expressed through the product tensor and its two metric adjoints, so the
same code runs on an algebra and on its anti-transposed dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clifford import CliffordModule, MetricSpace
from .errors import AlgebraMismatchError, DimensionMismatchError, SpecError

Key = tuple[int, int]


@dataclass(frozen=True, eq=False)
class NilAlgebra:
    """Upper-triangular generalized-matrix algebra of rank 2 or 3.

    ``product`` (rank 3 only) has shape (d13, d12, d23) and encodes the
    bilinear map N_12 x N_23 -> N_13:  (x . y)_k = product[k, i, a] x_i y_a.
    ``kind`` distinguishes the special orientation (entry (1,2) even spinor,
    (2,3) vector), for which the squared G-determinant is a cubic
    polynomial, from its dual.
    """

    rank: int
    spaces: dict[Key, MetricSpace]
    product: np.ndarray | None = None
    clifford: CliffordModule | None = None
    kind: str = "rank2"
    _dual: "NilAlgebra | None" = field(default=None, repr=False)
    # slice of the diagonal ("diag") and of each block in the flat vector
    layout: dict = field(init=False, repr=False)
    herm_dim: int = field(init=False, repr=False)

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
        if self.rank == 3:
            p = np.asarray(self.product, dtype=float)
            shape = (self.dim((1, 3)), self.dim((1, 2)), self.dim((2, 3)))
            if p.shape != shape:
                raise DimensionMismatchError(f"product tensor shape {p.shape} != {shape}")
            p.setflags(write=False)
            object.__setattr__(self, "product", p)
        elif self.product is not None:
            raise SpecError("rank-2 algebras have no product")

    # -- structure ---------------------------------------------------------

    @property
    def offdiag_keys(self) -> list[Key]:
        return sorted(self.spaces)

    def dim(self, key: Key) -> int:
        return self.spaces[key].dim

    @property
    def is_euclidean(self) -> bool:
        return all(s.is_euclidean for s in self.spaces.values())

    def ip(self, key: Key, x, y) -> float:
        return self.spaces[key].ip(x, y)

    def norm_sq(self, key: Key, x) -> float:
        return self.spaces[key].ip(x, x)

    # -- products ----------------------------------------------------------

    def mult(self, x12, x23) -> np.ndarray:
        """The algebra product N_12 x N_23 -> N_13."""
        if self.rank != 3:
            raise SpecError("rank-2 algebra has no composable product")
        return np.einsum("kia,i,a->k", self.product, x12, x23)

    def mult_flat_right(self, x13, x23) -> np.ndarray:
        """x13 . x23^flat in N_12: <out, u>_12 = <x13, u . x23>_13 for all u."""
        g13 = self.spaces[(1, 3)].gram
        z = np.einsum("k,kia,a->i", g13 @ np.asarray(x13, dtype=float), self.product, x23)
        return np.linalg.solve(self.spaces[(1, 2)].gram, z)

    def mult_flat_left(self, x12, x13) -> np.ndarray:
        """x12^flat . x13 in N_23: <out, y>_23 = <x13, x12 . y>_13 for all y."""
        g13 = self.spaces[(1, 3)].gram
        z = np.einsum("k,kia,i->a", g13 @ np.asarray(x13, dtype=float), self.product, x12)
        return np.linalg.solve(self.spaces[(2, 3)].gram, z)

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


def rank2_algebra(w_space: MetricSpace) -> NilAlgebra:
    """Rank-2 Nil-algebra with single entry space W at slot (1, 2)."""
    return NilAlgebra(2, {(1, 2): w_space}, kind="rank2")


def rank3_special(module: CliffordModule) -> NilAlgebra:
    """Rank-3 special Nil-algebra: (1,2) = S0, (1,3) = S1, (2,3) = V,
    product (s0, v) -> mu_v(s0)."""
    if module.s0_space.dim != module.s1_space.dim:
        raise DimensionMismatchError("special algebra needs dim S0 == dim S1")
    # product[k, i, a] = (Gamma_a)_{k i}
    tensor = np.transpose(np.asarray(module.gammas, dtype=float), (1, 2, 0))
    spaces = {(1, 2): module.s0_space, (1, 3): module.s1_space, (2, 3): module.v_space}
    return NilAlgebra(3, spaces, tensor, clifford=module, kind="rank3-special")


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
    tensor = None
    if m == 3:
        # dual product (u, w) = original product (w, u)
        tensor = np.transpose(algebra.product, (0, 2, 1)).copy()
    kind = {"rank2": "rank2", "rank3-special": "rank3-dual", "rank3-dual": "rank3-special"}[
        algebra.kind
    ]
    dual = NilAlgebra(m, spaces, tensor, clifford=algebra.clifford, kind=kind)
    object.__setattr__(dual, "_dual", algebra)
    object.__setattr__(algebra, "_dual", dual)
    return dual


# ---------------------------------------------------------------------------
# Matrix containers
# ---------------------------------------------------------------------------


class _FlatEntries:
    """Diagonal plus strictly-upper blocks over a fixed algebra, held as one
    read-only float vector in ``algebra.layout`` (see README, Coordinates).
    ``diag`` and ``offdiag[key]`` are read-only views into it; a block left
    out of ``offdiag`` is zero."""

    __slots__ = ("algebra", "diag", "offdiag", "_vector")

    def __init__(self, algebra: NilAlgebra, diag, offdiag: dict):
        entries = {"diag": diag, **offdiag}
        vec = np.zeros(algebra.herm_dim)
        for key, sl in algebra.layout.items():
            if key in entries:
                entry = np.asarray(entries[key], dtype=float)
                if entry.shape != (sl.stop - sl.start,):
                    raise DimensionMismatchError(f"{type(self).__name__}: entry {key} has wrong dimension")
                vec[sl] = entry
        self._wrap(algebra, vec)

    def _wrap(self, algebra: NilAlgebra, vec: np.ndarray) -> None:
        vec.setflags(write=False)
        views = {key: vec[sl] for key, sl in algebra.layout.items()}
        fields = {"algebra": algebra, "_vector": vec, "diag": views.pop("diag"), "offdiag": views}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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
        return bool(np.all(self.diag > 0))


class HermMatrix(_FlatEntries):
    """Hermitian generalized matrix; only diagonal + upper entries stored."""

    __slots__ = ()

    def scaled(self, lam: float) -> "HermMatrix":
        return herm_from_vector(self.algebra, lam * self._vector)


def herm_from_vector(algebra: NilAlgebra, vec) -> HermMatrix:
    """A Hermitian matrix holding a copy of the flat coordinates ``vec``."""
    vec = np.array(vec, dtype=float)
    if vec.shape != (algebra.herm_dim,):
        raise DimensionMismatchError("vector length != Hermitian dimension")
    X = HermMatrix.__new__(HermMatrix)
    X._wrap(algebra, vec)
    return X


_POINT_KEYS = {"rank", "diag", "offdiag"}


def herm_from_json(algebra: NilAlgebra, obj: dict) -> HermMatrix:
    """Read {"rank", "diag", "offdiag": {"12": [...], ...}}; a block left out
    is zero.  Unknown fields or block names and non-finite entries are
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
    try:
        X = HermMatrix(algebra, obj["diag"], {names[name]: v for name, v in offdiag.items()})
    except (KeyError, TypeError, ValueError) as exc:
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
    diag = rng.uniform(*diag_range, algebra.rank)
    off = {k: rng.uniform(*off_range, algebra.dim(k)) for k in algebra.offdiag_keys}
    return TriangularElement(algebra, diag, off)


# ---------------------------------------------------------------------------
# Products and the orbit map
# ---------------------------------------------------------------------------


def check_same_algebra(algebra: NilAlgebra, *operands) -> None:
    """Raise AlgebraMismatchError unless every operand lives over ``algebra``."""
    if any(x.algebra is not algebra for x in operands):
        raise AlgebraMismatchError("operands live over different algebras")


def triangular_product(A: TriangularElement, B: TriangularElement) -> TriangularElement:
    """Associative product in the solvable matrix algebra T(N)."""
    check_same_algebra(A.algebra, B)
    alg = A.algebra
    diag = A.diag * B.diag
    off: dict[Key, np.ndarray] = {}
    for (i, j) in alg.offdiag_keys:
        acc = A.diag[i - 1] * B.offdiag[(i, j)] + A.offdiag[(i, j)] * B.diag[j - 1]
        for k in range(i + 1, j):
            acc = acc + alg.mult(A.offdiag[(i, k)], B.offdiag[(k, j)])
        off[(i, j)] = acc
    return TriangularElement(alg, diag, off)


def herm_from_triangular(A: TriangularElement) -> HermMatrix:
    """The Hermitian matrix A . A^*; requires a positive diagonal."""
    if not A.in_group:
        raise SpecError("A . A^* requires a strictly positive diagonal")
    alg = A.algebra
    if alg.rank == 2:
        a1, a2 = A.diag
        w = A.offdiag[(1, 2)]
        diag = [a1**2 + alg.norm_sq((1, 2), w), a2**2]
        off = {(1, 2): a2 * w}
        return HermMatrix(alg, diag, off)
    a1, a2, a3 = A.diag
    t0, t1, w = A.offdiag[(1, 2)], A.offdiag[(1, 3)], A.offdiag[(2, 3)]
    x3 = a3**2
    v = a3 * w
    s1 = a3 * t1
    x2 = a2**2 + alg.norm_sq((2, 3), w)
    s0 = a2 * t0 + alg.mult_flat_right(t1, w)
    x1 = a1**2 + alg.norm_sq((1, 2), t0) + alg.norm_sq((1, 3), t1)
    return HermMatrix(alg, [x1, x2, x3], {(1, 2): s0, (1, 3): s1, (2, 3): v})


def herm_from_triangular_star(A: TriangularElement) -> HermMatrix:
    """The Hermitian matrix A^* . A (a point of the dual cone)."""
    if not A.in_group:
        raise SpecError("A^* . A requires a strictly positive diagonal")
    alg = A.algebra
    if alg.rank == 2:
        a1, a2 = A.diag
        w = A.offdiag[(1, 2)]
        diag = [a1**2, a2**2 + alg.norm_sq((1, 2), w)]
        return HermMatrix(alg, diag, {(1, 2): a1 * w})
    a1, a2, a3 = A.diag
    t0, t1, w = A.offdiag[(1, 2)], A.offdiag[(1, 3)], A.offdiag[(2, 3)]
    y1 = a1**2
    e12 = a1 * t0
    e13 = a1 * t1
    y2 = a2**2 + alg.norm_sq((1, 2), t0)
    e23 = a2 * w + alg.mult_flat_left(t0, t1)
    y3 = a3**2 + alg.norm_sq((1, 3), t1) + alg.norm_sq((2, 3), w)
    return HermMatrix(alg, [y1, y2, y3], {(1, 2): e12, (1, 3): e13, (2, 3): e23})


def anti_transpose(X):
    """Reflection of a Hermitian matrix or a triangular element across the
    anti-diagonal; lands in the dual algebra."""
    m = X.algebra.rank
    dual = dual_algebra(X.algebra)
    off = {(i, j): X.offdiag[(m + 1 - j, m + 1 - i)] for (i, j) in dual.offdiag_keys}
    return type(X)(dual, X.diag[::-1], off)


anti_transpose_triangular = anti_transpose


def herm_pairing(X: HermMatrix, Y: HermMatrix) -> float:
    """Trace-form inner product sum_i x_i y_i + 2 sum_{i<j} <x_ij, y_ij>."""
    check_same_algebra(X.algebra, Y)
    alg = X.algebra
    total = float(X.diag @ Y.diag)
    for key in alg.offdiag_keys:
        total += 2.0 * alg.ip(key, X.offdiag[key], Y.offdiag[key])
    return total
