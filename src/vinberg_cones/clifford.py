"""Z2-graded Clifford modules with invariant metrics.

A module here is the data of a metric vector space (V, g_V) together with
two spinor spaces S0, S1 of equal dimension and one linear map
Gamma_a : S0 -> S1 per canonical basis vector of V.  The maps satisfy the
isometry identity

    <mu_v(s), mu_v(s)>_S1 = <v, v>_V * <s, s>_S0      mu_v = sum_a v^a Gamma_a

exactly, because every Gamma_a is a signed permutation matrix (entries in
{-1, 0, +1}) produced by the Cayley-Dickson tower (complexes, quaternions,
octonions) and the period-8 tensor recursion.  For Euclidean V the spinor
dimension is the minimal one allowed by the Hurwitz-Radon bound; indefinite
signatures use a doubled spinor space with split metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CliffordRelationError,
    DimensionMismatchError,
    ModuleTooLargeError,
    SpecError,
)

# Largest dim_v * dim_s**2 that build_clifford_module accepts: the entries of
# the dense gamma stack.  dim_v = 18 (4.7M entries) is the largest Euclidean
# module under it; dim_v = 19 would hold 20M entries.  The CLI holds the
# dim_w x dim_w Gram matrix of a rank-2 spec to the same bound.
MAX_GAMMA_ENTRIES = 2**23


# ---------------------------------------------------------------------------
# Metric vector spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A finite-dimensional real vector space with a fixed inner product.

    The Gram matrix G and its inverse are stored explicitly; canonical
    constructors produce diagonal +/-1 matrices (identity in the Euclidean
    case), as does every module :func:`build_clifford_module` builds.  When
    G is diagonal, ``weights`` and ``inv_weights`` hold the diagonals of G
    and G^-1, and :meth:`lower` and :meth:`raise_` multiply by them
    elementwise: x_j g_j rounds once, as in the dense product, so the values
    are those of the dense products (an exact zero may change sign).
    Otherwise both are None and the two methods take the dense products.
    Every product with G or G^-1 in the library goes through these two.
    """

    dim: int
    signature: tuple[int, int]
    gram: np.ndarray
    gram_inv: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray | None = field(init=False, repr=False)
    inv_weights: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        p, q = self.signature
        if p < 0 or q < 0 or p + q != self.dim:
            raise SpecError(f"signature {self.signature} incompatible with dim {self.dim}")
        g = np.asarray(self.gram, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatchError("gram matrix has wrong shape")
        if not np.allclose(g, g.T, atol=1e-12):
            raise SpecError("gram matrix must be symmetric")
        ev = np.linalg.eigvalsh(g)
        if np.min(np.abs(ev)) <= 1e-12 * max(1.0, np.max(np.abs(ev))):
            raise SpecError("gram matrix is degenerate")
        if (int(np.sum(ev > 0)), int(np.sum(ev < 0))) != (p, q):
            raise SpecError("declared signature does not match the gram matrix")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        inv = np.linalg.inv(g)
        inv.setflags(write=False)
        object.__setattr__(self, "gram_inv", inv)
        # diag(G^-1), not 1 / diag(G): a division rounds differently
        diagonal = all(np.count_nonzero(m - np.diag(np.diag(m))) == 0 for m in (g, inv))
        for name, m in (("weights", g), ("inv_weights", inv)):
            w = np.diag(m).copy()
            w.setflags(write=False)
            object.__setattr__(self, name, w if diagonal else None)

    @classmethod
    def euclidean(cls, dim: int) -> "MetricSpace":
        return cls(dim, (dim, 0), np.eye(dim))

    @classmethod
    def canonical(cls, p: int, q: int) -> "MetricSpace":
        """Pseudo-orthonormal basis: gram = diag(+1 x p, -1 x q)."""
        diag = np.concatenate([np.ones(p), -np.ones(q)])
        return cls(p + q, (p, q), np.diag(diag))

    @classmethod
    def with_gram(cls, gram: np.ndarray) -> "MetricSpace":
        g = np.asarray(gram, dtype=float)
        ev = np.linalg.eigvalsh(g)
        sig = (int(np.sum(ev > 0)), int(np.sum(ev < 0)))
        return cls(g.shape[0], sig, g)

    @property
    def is_euclidean(self) -> bool:
        return self.signature == (self.dim, 0)

    def lower(self, x) -> np.ndarray:
        """x . G over the last axis: the covector <x, .> of x, or of each row."""
        if self.weights is None:
            return np.asarray(x) @ self.gram
        return np.multiply(x, self.weights)

    def raise_(self, z) -> np.ndarray:
        """z . G^-1 over the last axis: the vector x with <x, .> = z, or one per row."""
        if self.inv_weights is None:
            return np.asarray(z) @ self.gram_inv
        return np.multiply(z, self.inv_weights)

    def ip(self, x, y):
        """Inner product <x, y> over the last axis (pairwise sums, as accurate as a dot).
        Leading axes broadcast; a last axis other than ``dim`` raises."""
        x, y = np.asarray(x), np.asarray(y)
        if x.shape[-1:] != (self.dim,) or y.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(f"ip on a space of dim {self.dim}: shapes {x.shape}, {y.shape}")
        return (self.lower(x) * y).sum(-1)

    def norm_sq(self, x) -> float:
        return self.ip(x, x)


# ---------------------------------------------------------------------------
# Cayley-Dickson tower: integer left-multiplication matrices
# ---------------------------------------------------------------------------


def _cd_conj(x: np.ndarray) -> np.ndarray:
    if x.shape[0] == 1:
        return x.copy()
    h = x.shape[0] // 2
    return np.concatenate([_cd_conj(x[:h]), -x[h:]])


def _cd_mult(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))
    n = x.shape[0]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate(
        [
            _cd_mult(a, c) - _cd_mult(_cd_conj(d), b),
            _cd_mult(d, a) + _cd_mult(b, _cd_conj(c)),
        ]
    )


def _left_mult_matrix(u: np.ndarray) -> np.ndarray:
    """Matrix of y -> u y: every column u e_j in one recursion, u broadcast
    along the columns of the identity."""
    return _cd_mult(u[:, None], np.eye(u.shape[0], dtype=np.int64))


@lru_cache(maxsize=None)
def _cl_neg_generators(k: int) -> tuple[np.ndarray, ...]:
    """k anticommuting skew-orthogonal integer matrices J_i with J_i^2 = -I.

    Minimal dimension for every k (Hurwitz-Radon): base families come from
    left multiplication by imaginary Cayley-Dickson units, larger k from the
    period-8 tensor recursion J x omega, I x beta.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ()
    if k <= 7:
        level = 1 if k == 1 else (2 if k <= 3 else 3)
        dim = 2**level
        units = np.eye(dim, dtype=np.int64)
        fam = tuple(_left_mult_matrix(units[i]) for i in range(1, k + 1))
    else:
        base = _cl_neg_generators(k - 8)
        beta = _cl_neg8_on_r16()
        omega = beta[0]
        for b in beta[1:]:
            omega = omega @ b
        d = base[0].shape[0] if base else 1
        eye_d = np.eye(d, dtype=np.int64)
        fam = tuple(np.kron(j, omega) for j in base) + tuple(
            np.kron(eye_d, b) for b in beta
        )
    _check_j_family(fam)
    for m in fam:
        m.setflags(write=False)
    return fam


@lru_cache(maxsize=None)
def _cl_neg8_on_r16() -> tuple[np.ndarray, ...]:
    """Eight anticommuting skew-orthogonal generators on R^16."""
    tau = np.array([[1, 0], [0, -1]], dtype=np.int64)
    eps = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    oct7 = _cl_neg_generators(7)
    fam = tuple(np.kron(tau, j) for j in oct7) + (np.kron(eps, np.eye(8, dtype=np.int64)),)
    return fam


def _monomial(stack: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """(perm, val) of a (k, d, d) stack of monomial matrices.

    ``stack[a, perm[a, j], j] == val[a, j] != 0`` and every other entry is
    zero.  Raises :class:`CliffordRelationError` with ``message`` unless
    every matrix has exactly one nonzero per row and a nonzero in every
    column; then its d nonzeros fill d columns, one each.
    """
    nonzero = stack != 0
    if not (np.all(nonzero.sum(axis=2) == 1) and np.all(nonzero.any(axis=1))):
        raise CliffordRelationError(message)
    perm = nonzero.argmax(axis=1)
    return perm, stack[np.arange(len(stack))[:, None], perm, np.arange(stack.shape[2])]


def _signed_permutation(stack: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) of a (k, d, d) stack of signed permutation matrices: the
    :func:`_monomial` tables, with every nonzero +/-1 or the error raised."""
    perm, sign = _monomial(stack, message)
    if not np.all((sign == 1) | (sign == -1)):
        raise CliffordRelationError(message)
    return perm, sign


def _inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Row-wise inverse of a (k, d) stack of permutations of range(d)."""
    inv = np.empty_like(perm)
    inv[np.arange(len(perm))[:, None], perm] = np.arange(perm.shape[1])
    return inv


def _check_j_family(fam) -> None:
    """Exact check: each J is skew and orthogonal, and distinct J's anticommute.

    An integer matrix is orthogonal exactly when it is a signed permutation,
    so J_a J_b is the signed permutation j -> perm_a(perm_b(j)) with sign
    sign_a(perm_b(j)) sign_b(j), and J_a J_b = -J_b J_a compares those arrays.
    """
    if not all(np.array_equal(J.T, -J) for J in fam):
        raise CliffordRelationError("J must be skew")
    if not fam:
        return
    perm, sign = _signed_permutation(np.stack(fam), "J must be orthogonal")
    rows = np.arange(len(fam))[:, None, None]
    comp_perm = perm[rows, perm[None]]
    comp_sign = sign[rows, perm[None]] * sign[None]
    anti = (comp_perm == comp_perm.swapaxes(0, 1)) & (comp_sign == -comp_sign.swapaxes(0, 1))
    if not np.all(anti | np.eye(len(fam), dtype=bool)[:, :, None]):
        raise CliffordRelationError("J's must anticommute")


# Spinor dimensions for k = dim_v - 1 = 0..7 anticommuting complex
# structures; each further 8 multiply the dimension by 16 (Hurwitz-Radon).
_PERIOD8_SPINOR_DIMS = (1, 2, 4, 4, 8, 8, 8, 8)


def minimal_spinor_dim(dim_v: int, signature: tuple[int, int] | None = None) -> int:
    """Spinor dimension used by :func:`build_clifford_module` at multiplicity 1.

    Euclidean: the minimal graded-module dimension (period-8 table,
    1,2,4,4,8,8,8,8,16,...).  Indefinite signatures use twice the Euclidean
    value for p+q, on a split metric.  Closed form: builds no generators.
    """
    if signature is None:
        signature = (dim_v, 0)
    p, q = signature
    if p + q < 1:
        raise DimensionMismatchError("dim_v must be >= 1")
    periods, k = divmod(p + q - 1, 8)
    d = 16**periods * _PERIOD8_SPINOR_DIMS[k]
    return d if q == 0 else 2 * d


# ---------------------------------------------------------------------------
# Clifford modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CliffordModule:
    """Graded Clifford module data: gamma maps S0 -> S1 plus the metrics.

    ``gammas`` has shape (dim_v, dim_s, dim_s); ``gammas[a]`` is the matrix
    of multiplication by the a-th canonical basis vector of V.
    """

    v_space: MetricSpace
    s0_space: MetricSpace
    s1_space: MetricSpace
    gammas: np.ndarray
    multiplicity: int = 1

    def __post_init__(self):
        if self.s0_space.dim != self.s1_space.dim:
            raise DimensionMismatchError("graded module needs dim S0 == dim S1")
        g = np.asarray(self.gammas)
        expected = (self.v_space.dim, self.s1_space.dim, self.s0_space.dim)
        if g.shape != expected:
            raise DimensionMismatchError(f"gammas shape {g.shape} != {expected}")
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)

    @property
    def dim_v(self) -> int:
        return self.v_space.dim

    @property
    def dim_s(self) -> int:
        return self.s0_space.dim

    @property
    def is_euclidean(self) -> bool:
        return (
            self.v_space.is_euclidean
            and self.s0_space.is_euclidean
            and self.s1_space.is_euclidean
        )

    @cached_property
    def monomial_tables(self) -> tuple[np.ndarray, ...]:
        """Index tables of the gammas, built once: (perm, val, inv, inv_val)
        with ``Gamma_a e_j = val[a, j] e_perm[a, j]`` and, row by row,
        ``e_k^T Gamma_a = inv_val[a, k] e_inv[a, k]^T``; values as floats.
        Raises :class:`CliffordRelationError` unless every gamma is monomial
        (one nonzero per row and per column)."""
        perm, val = _monomial(self.gammas, "gammas must be monomial: one nonzero per row and per column")
        inv = _inverse_permutation(perm)
        val = val.astype(float)
        tables = (perm, val, inv, np.take_along_axis(val, inv, axis=1))
        for t in tables:
            t.setflags(write=False)
        return tables

    def mu(self, v: np.ndarray) -> np.ndarray:
        """Matrix of mu_v : S0 -> S1, scattered from the index tables:
        entry (perm[a, j], j) gains v^a val[a, j], in O(dim_v dim_s + dim_s^2)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim_v,):
            raise DimensionMismatchError("v has wrong dimension")
        perm, val, _, _ = self.monomial_tables
        d = self.dim_s
        # a sum per entry, not an assignment: gammas that only need to be
        # monomial may share an entry
        flat = np.bincount((perm * d + np.arange(d)).ravel(), (v[:, None] * val).ravel(), d * d)
        return flat.reshape(d, d)

    def to_json(self) -> dict:
        return {
            "dim_v": self.dim_v,
            "signature": list(self.v_space.signature),
            "multiplicity": self.multiplicity,
            "gammas": [g.tolist() for g in np.asarray(self.gammas, dtype=np.int64)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CliffordModule":
        try:
            dim_v = int(obj["dim_v"])
            p, q = (int(x) for x in obj["signature"])
            mult = int(obj["multiplicity"])
            gammas = np.asarray(obj["gammas"], dtype=np.int64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"bad Clifford-module JSON: {exc}") from exc
        if gammas.ndim != 3 or p + q != dim_v:
            raise SpecError(
                "bad Clifford-module JSON: need signature p + q == dim_v and 3-d gammas"
            )
        v_space = MetricSpace.canonical(p, q)
        dim_s = gammas.shape[1]
        s_gram = _spinor_gram(dim_s, euclidean=(q == 0))
        s_space = MetricSpace.with_gram(s_gram)
        module = cls(v_space, s_space, s_space, gammas, multiplicity=mult)
        _check_clifford_relations(module.gammas, v_space.gram, s_gram)
        return module


def _spinor_gram(dim_s: int, euclidean: bool) -> np.ndarray:
    if euclidean:
        return np.eye(dim_s)
    # split metric diag(+1, -1, +1, -1, ...) from the doubling construction
    return np.diag(np.tile([1.0, -1.0], dim_s // 2))


def build_clifford_module(
    dim_v: int,
    signature: tuple[int, int] | None = None,
    multiplicity: int = 1,
) -> CliffordModule:
    """Construct a graded module over Cl(V, g_V) with exact integer gammas.

    The Euclidean construction takes Gamma_1 = identity and Gamma_{1+i} = J_i
    with J_i the Cayley-Dickson complex structures; resulting spinor spaces
    carry the identity metric.  For signature (p, q) with q > 0, all gammas
    are tensored with a 2x2 factor (identity for spacelike directions, a
    rotation by pi/2 for timelike ones) acting on a split-metric plane, which
    doubles the spinor dimension.  Reducible modules are block-diagonal
    copies of the irreducible one.

    Raises :class:`ModuleTooLargeError`, before building anything, when
    dim_v * dim_s**2 (dim_s including the multiplicity) exceeds
    ``MAX_GAMMA_ENTRIES``.
    """
    if dim_v < 1:
        raise DimensionMismatchError("dim_v must be >= 1")
    if multiplicity < 1:
        raise DimensionMismatchError("multiplicity must be >= 1")
    if signature is None:
        signature = (dim_v, 0)
    p, q = signature
    if p < 0 or q < 0 or p + q != dim_v:
        raise SpecError(f"signature {signature} incompatible with dim_v {dim_v}")
    if dim_v > MAX_GAMMA_ENTRIES:  # dim_s >= 1; spares computing a 16**(dim_v / 8) dim_s
        raise ModuleTooLargeError(f"dim_v = {dim_v} exceeds MAX_GAMMA_ENTRIES = {MAX_GAMMA_ENTRIES}")
    dim_s = minimal_spinor_dim(dim_v, signature) * multiplicity
    if dim_v * dim_s**2 > MAX_GAMMA_ENTRIES:
        raise ModuleTooLargeError(
            f"dim_v * dim_s^2 = {dim_v} * {dim_s}^2 exceeds MAX_GAMMA_ENTRIES = {MAX_GAMMA_ENTRIES}"
        )

    jf = _cl_neg_generators(dim_v - 1)
    d = jf[0].shape[0] if jf else 1
    eucl = [np.eye(d, dtype=np.int64)] + [j for j in jf]

    if q == 0:
        gammas = eucl
        s_gram_core = np.eye(d, dtype=np.int64)
    else:
        eye2 = np.eye(2, dtype=np.int64)
        eps = np.array([[0, 1], [-1, 0]], dtype=np.int64)
        tau = np.array([[1, 0], [0, -1]], dtype=np.int64)
        gammas = [np.kron(g, eye2 if a < p else eps) for a, g in enumerate(eucl)]
        s_gram_core = np.kron(np.eye(d, dtype=np.int64), tau)

    if multiplicity > 1:
        eye_m = np.eye(multiplicity, dtype=np.int64)
        gammas = [np.kron(eye_m, g) for g in gammas]
        s_gram_core = np.kron(eye_m, s_gram_core)

    v_space = MetricSpace.canonical(p, q)
    s_space = MetricSpace.with_gram(s_gram_core.astype(float))
    stack = np.stack(gammas).astype(np.int64)

    _check_clifford_relations(stack, v_space.gram, s_gram_core)
    return CliffordModule(v_space, s_space, s_space, stack, multiplicity=multiplicity)


def _check_clifford_relations(gammas, g_v, g_s) -> None:
    """Exact integer check: Gamma_a^T G_S Gamma_b + (a <-> b) == 2 g_ab G_S.

    G_S must be diagonal and every gamma a signed permutation.  Then column j
    of M_ab = Gamma_a^T G_S Gamma_b has its one nonzero in row
    R[a, b, j] = perm_a^-1(perm_b(j)), with value
    V[a, b, j] = sign_b(j) G_S[perm_b(j)] sign_a(R[a, b, j]).  Column j of
    M_ab + M_ba - 2 g_ab G_S touches rows R[a, b, j], R[b, a, j] and j only,
    so the relation holds exactly when the column sums to zero at each of
    those rows.  Row R[b, a, j] of the pair (a, b) is row R of the pair
    (b, a), so rows R and j over all ordered pairs cover all three; they are
    compared at once in O(dim_v^2 dim_s).
    """
    gs = np.asarray(g_s, dtype=np.int64)
    gv = np.asarray(np.round(g_v), dtype=np.int64)
    gs_diag = np.diag(gs)
    if not np.array_equal(gs, np.diag(gs_diag)):
        raise CliffordRelationError("spinor metric must be diagonal")
    perm, sign = _signed_permutation(np.asarray(gammas), "Clifford relation failed")
    n, d = perm.shape
    rows = np.arange(n)[:, None, None]
    R = _inverse_permutation(perm)[rows, perm[None]]
    V = (sign * gs_diag[perm])[None] * sign[rows, R]
    Rt, Vt = R.swapaxes(0, 1), V.swapaxes(0, 1)
    j = np.arange(d)
    target = 2 * gv[:, :, None] * gs_diag

    def column_sum_at(row):
        return V * (R == row) + Vt * (Rt == row) - target * (j == row)

    for row in (R, j):
        if np.any(column_sum_at(row)):
            raise CliffordRelationError("Clifford relation failed")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def clifford_mult(module: CliffordModule, v, s0) -> np.ndarray:
    """mu_v(s0) = sum_a v^a Gamma_a s0, an element of S1 (leading axes broadcast)."""
    v = np.asarray(v, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    if v.shape[-1:] != (module.dim_v,) or s0.shape[-1:] != (module.dim_s,):
        raise DimensionMismatchError("clifford_mult: dimension mismatch")
    return np.einsum("...a,aij,...j->...i", v, module.gammas, s0)


def clifford_bilinear(module: CliffordModule, s1, s0) -> np.ndarray:
    """The unique w in V with <w, v>_V = <s1, mu_v(s0)>_S1 for all v."""
    s1 = np.asarray(s1, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    if s1.shape[-1:] != (module.dim_s,) or s0.shape[-1:] != (module.dim_s,):
        raise DimensionMismatchError("clifford_bilinear: dimension mismatch")
    z = np.einsum("...k,aki,...i->...a", module.s1_space.lower(s1), module.gammas, s0)
    return module.v_space.raise_(z)


def clifford_mult_adjoint(module: CliffordModule, v, s1) -> np.ndarray:
    """Metric adjoint mu_v^# applied to s1: the S0 element with
    <mu_v^#(s1), u>_S0 = <s1, mu_v(u)>_S1 for all u in S0."""
    v = np.asarray(v, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    if v.shape != (module.dim_v,) or s1.shape != (module.dim_s,):
        raise DimensionMismatchError("clifford_mult_adjoint: dimension mismatch")
    z = module.mu(v).T @ module.s1_space.lower(s1)
    return module.s0_space.raise_(z)


def verify_isometry(module: CliffordModule, n_samples: int = 1000, seed: int = 0) -> float:
    """Worst absolute violation of |mu_v(s)|^2 = |v|^2 |s|^2 over random samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, (n_samples, module.dim_v))
    s = rng.uniform(-1.0, 1.0, (n_samples, module.dim_s))
    # mu_v(s) for all samples; contracting s first never holds an
    # (n_samples, dim_s, dim_s) intermediate
    out = np.einsum("na,aij,nj->ni", v, module.gammas, s, optimize=["einsum_path", (1, 2), (0, 1)])
    dev = module.s1_space.norm_sq(out) - module.v_space.norm_sq(v) * module.s0_space.norm_sq(s)
    return float(np.max(np.abs(dev)))
