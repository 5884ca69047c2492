"""Z2-graded Clifford modules with invariant metrics.

A module here is the data of a metric vector space (V, g_V) together with
two spinor spaces S0, S1 of equal dimension and one linear map
Gamma_a : S0 -> S1 per canonical basis vector of V.  The maps satisfy the
isometry identity

    <mu_v(s), mu_v(s)>_S1 = <v, v>_V * <s, s>_S0      mu_v = sum_a v^a Gamma_a

exactly, because every Gamma_a is a signed permutation, built and checked
as index tables by the Cayley-Dickson tower (complexes, quaternions,
octonions) and the period-8 tensor recursion; every Clifford operation and
the relation check run on those tables.  For Euclidean V the spinor
dimension is the minimal one allowed by the Hurwitz-Radon bound; indefinite
signatures use a doubled spinor space with split metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import CliffordRelationError, DimensionMismatchError, ModuleTooLargeError, SpecError

# Largest dim_v * dim_s**2 that build_clifford_module accepts: the entries of
# the dense gamma stack that to_json writes, unchanged although a module holds
# tables.  dim_v = 18 (4.7M entries) is the largest Euclidean module under it;
# dim_v = 19 would hold 20M entries.  The CLI holds the dim_w x dim_w Gram
# matrix of a rank-2 spec to the same bound.
MAX_GAMMA_ENTRIES = 2**23


def _is_int(x) -> bool:
    """An exact integer: a Python or numpy int, not a bool or a float."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# Metric vector spaces
# ---------------------------------------------------------------------------


def _exact_diagonal(g: np.ndarray) -> np.ndarray | None:
    """diag(g) if g is square and diagonal and ``np.linalg.eigvalsh`` returns
    that diagonal exactly (LAPACK's dsyevd splits it into 1x1 blocks, and
    rescales only a largest |entry| outside [2**-485, 2**485]), else None."""
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        return None
    d = np.diag(g)
    diagonal = np.count_nonzero(g) == np.count_nonzero(d)
    return d if diagonal and 2.0**-400 <= np.max(np.abs(d), initial=0.0) <= 2.0**400 else None


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
    A diagonal G takes its spectrum from its entries and its inverse from
    reciprocals, with the values ``eigvalsh`` and ``inv`` give, and skips
    the dense symmetry and off-diagonal scans.
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
        d = _exact_diagonal(g)  # a diagonal G is symmetric and needs no dense scan
        if d is None and not np.allclose(g, g.T, atol=1e-12):
            raise SpecError("gram matrix must be symmetric")
        ev = np.linalg.eigvalsh(g) if d is None else d
        if np.min(np.abs(ev)) <= 1e-12 * max(1.0, np.max(np.abs(ev))):
            raise SpecError("gram matrix is degenerate")
        if (int(np.sum(ev > 0)), int(np.sum(ev < 0))) != (p, q):
            raise SpecError("declared signature does not match the gram matrix")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        # row i of I / g_ii keeps the signed zeros of LAPACK's solve
        inv = np.linalg.inv(g) if d is None else np.eye(self.dim) / d[:, None]
        inv.setflags(write=False)
        object.__setattr__(self, "gram_inv", inv)
        # diag(G^-1), not 1 / diag(G): a division rounds differently
        diagonal = d is not None or all(np.count_nonzero(m - np.diag(np.diag(m))) == 0 for m in (g, inv))
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
        d = _exact_diagonal(g)
        ev = np.linalg.eigvalsh(g) if d is None else d
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
# Cayley-Dickson tower and period-8 recursion on signed-permutation tables: a
# stack of k matrices of size d is a pair (perm, sign) of (k, d) integer arrays,
# M_a e_j = sign[a, j] e_perm[a, j]; leading axes broadcast
# ---------------------------------------------------------------------------

_TAU = (np.array([0, 1]), np.array([1, -1]))  # diag(1, -1)
_EPS = (np.array([1, 0]), np.array([-1, 1]))  # [[0, 1], [-1, 0]]


def _identity(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(d), np.ones(d, dtype=np.int64)


def _kron(a, b):
    """Tables of A (x) B, B of size n: column j n + l is
    sign_a(j) sign_b(l) e_(perm_a(j) n + perm_b(l))."""
    (pa, sa), (pb, sb) = a, b
    perm = pa[..., :, None] * pb.shape[-1] + pb[..., None, :]
    sign = sa[..., :, None] * sb[..., None, :]
    shape = perm.shape[:-2] + (perm.shape[-2] * perm.shape[-1],)
    return perm.reshape(shape), sign.reshape(shape)


def _compose(a, b):
    """Tables of A B: A B e_j = sign_a(perm_b(j)) sign_b(j) e_perm_a(perm_b(j))."""
    (pa, sa), (pb, sb) = a, b
    return pa[pb], sa[pb] * sb


def _stack(*tables):
    """One stack of the given matrices and stacks, in order."""
    return tuple(np.vstack(parts) for parts in zip(*tables))


def _cd_conj(x: np.ndarray) -> np.ndarray:
    if x.shape[0] == 1:
        return x.copy()
    h = x.shape[0] // 2
    return np.concatenate([_cd_conj(x[:h]), -x[h:]])


def _cd_mult(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), coordinates along axis 0
    n = x.shape[0]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate([_cd_mult(a, c) - _cd_mult(_cd_conj(d), b), _cd_mult(d, a) + _cd_mult(b, _cd_conj(c))])


@lru_cache(maxsize=None)
def _cl_neg_generators(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k anticommuting skew-orthogonal J_i with J_i^2 = -I as (k, d) tables, d
    minimal (Hurwitz-Radon): for k <= 7 the left multiplications by imaginary
    Cayley-Dickson units, beyond that the period-8 recursion J (x) omega,
    I (x) beta, with beta eight generators on R^16 and omega their product."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k <= 7:
        eye = np.eye(1 if k == 0 else 2 if k == 1 else 4 if k <= 3 else 8, dtype=np.int64)
        # m[:, i, j] = e_(i+1) e_j: every unit times every basis vector in one product
        m = _cd_mult(eye[:, 1 : k + 1, None], eye[:, None, :])
        fam = (np.abs(m).argmax(axis=0), m.sum(axis=0))
    else:
        beta = _stack(_kron(_TAU, _cl_neg_generators(7)), _kron(_EPS, _identity(8)))
        omega = reduce(_compose, zip(*beta))
        base = _cl_neg_generators(k - 8)
        fam = _stack(_kron(base, omega), _kron(_identity(base[0].shape[1]), beta))
    _check_j_family(*fam)
    for t in fam:
        t.setflags(write=False)
    return fam


def _monomial(stack: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """(perm, val) of a (k, d, d) stack of monomial matrices, with
    ``stack[a, perm[a, j], j] == val[a, j] != 0`` and every other entry zero.
    Raises :class:`CliffordRelationError` with ``message`` unless every matrix
    has one nonzero per row and a nonzero in every column."""
    nonzero = stack != 0
    if not (np.all(nonzero.sum(axis=2) == 1) and np.all(nonzero.any(axis=1))):
        raise CliffordRelationError(message)
    perm = nonzero.argmax(axis=1)
    return perm, stack[np.arange(len(stack))[:, None], perm, np.arange(stack.shape[2])]


def _check_j_family(perm: np.ndarray, sign: np.ndarray) -> None:
    """Exact check of a (k, d) table family: each J skew and orthogonal, and
    distinct J's anticommuting, reporting the first failure in the dense
    products' order (J_1 skew, orthogonal, against each later J; then J_2...).

    J^T = -J exactly when perm is an involution with sign(perm(j)) = -sign(j),
    and signs +/-1 make it orthogonal.  J_a J_b is the signed permutation
    perm_a o perm_b with signs sign_a(perm_b(j)) sign_b(j), compared with -J_b J_a.
    """
    rows = np.arange(len(perm))[:, None]
    skew = np.all(perm[rows, perm] == np.arange(perm.shape[1]), axis=1) & np.all(sign[rows, perm] == -sign, axis=1)
    rows = rows[:, :, None]
    comp_perm = perm[rows, perm[None]]
    comp_sign = sign[rows, perm[None]] * sign[None]
    anti = np.all((comp_perm == comp_perm.swapaxes(0, 1)) & (comp_sign == -comp_sign.swapaxes(0, 1)), axis=2)
    failed = np.stack([~skew, ~np.all(np.abs(sign) == 1, axis=1), np.triu(~anti, 1).any(axis=1)], axis=1)
    if failed.any():
        kind = np.argwhere(failed)[0, 1]
        raise CliffordRelationError(("J must be skew", "J must be orthogonal", "J's must anticommute")[kind])


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


@dataclass(frozen=True, eq=False, init=False)
class CliffordModule:
    """Graded Clifford module data: gamma maps S0 -> S1 plus the metrics.

    A module is its index tables: (dim_v, dim_s) arrays (perm, val) with
    ``Gamma_a e_j = val[a, j] e_perm[a, j]``, given as ``tables`` (as
    build_clifford_module does) or read at construction from a dense
    (dim_v, dim_s, dim_s) stack ``gammas`` (``gammas[a]`` multiplies by the
    a-th basis vector of V), which raises CliffordRelationError after the
    shape checks unless every gamma is monomial.
    """

    v_space: MetricSpace
    s0_space: MetricSpace
    s1_space: MetricSpace
    multiplicity: int = 1

    def __init__(self, v_space, s0_space, s1_space, gammas=None, multiplicity=1, *, tables=None):
        if (gammas is None) == (tables is None):
            raise TypeError("CliffordModule needs either gammas or tables")
        if s0_space.dim != s1_space.dim:
            raise DimensionMismatchError("graded module needs dim S0 == dim S1")
        expected = (v_space.dim, s1_space.dim, s0_space.dim)
        if tables is None:
            g = np.asarray(gammas)
            if g.shape != expected:
                raise DimensionMismatchError(f"gammas shape {g.shape} != {expected}")
            tables = _monomial(g, "gammas must be monomial: one nonzero per row and per column")
        elif tables[0].shape != expected[:2]:
            raise DimensionMismatchError(f"tables shape {tables[0].shape} != {expected[:2]}")
        fields = dict(v_space=v_space, s0_space=s0_space, s1_space=s1_space, multiplicity=multiplicity)
        self.__dict__.update(fields, _tables=tables)  # past the frozen __setattr__

    @property
    def dim_v(self) -> int:
        return self.v_space.dim

    @property
    def dim_s(self) -> int:
        return self.s0_space.dim

    @property
    def is_euclidean(self) -> bool:
        return all(s.is_euclidean for s in (self.v_space, self.s0_space, self.s1_space))

    @cached_property
    def gammas(self) -> np.ndarray:
        """The read-only dense stack, scattered from the tables on first read,
        in the dtype of their values; no operation reads it."""
        perm, val = self._tables
        k, d = perm.shape
        g = np.zeros((k, d, d), dtype=val.dtype)
        g[np.arange(k)[:, None], perm, np.arange(d)] = val
        g.setflags(write=False)
        return g

    @cached_property
    def monomial_tables(self) -> tuple[np.ndarray, ...]:
        """Index tables of the gammas, completed once: (perm, val, inv, inv_val)
        with ``Gamma_a e_j = val[a, j] e_perm[a, j]`` and, row by row,
        ``e_k^T Gamma_a = inv_val[a, k] e_inv[a, k]^T``; values as floats."""
        perm, val = self._tables
        inv, val = np.argsort(perm, axis=1), val.astype(float)
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

    # mult, bilinear and mult_adjoint, the unchecked cores of the public
    # operations and of the NilAlgebra products, gather one factor through the
    # tables and contract the other in one matmul: O(dim_v dim_s) per point.

    def gamma_images(self, s0) -> np.ndarray:
        """The (..., dim_v, dim_s) matrix whose row a is Gamma_a s0."""
        _, _, inv, inv_val = self.monomial_tables
        return _gather(s0, inv, inv_val)

    def gamma_pairing(self, s1) -> np.ndarray:
        """The (..., dim_v, dim_s) matrix P with P[a, j] = <s1, Gamma_a e_j>_S1,
        so that <s1, mu_v(s0)>_S1 = v . P . s0."""
        perm, val, _, _ = self.monomial_tables
        return _gather(self.s1_space.lower(s1), perm, val)

    def mult(self, v, s0) -> np.ndarray:
        """mu_v(s0) in S1."""
        return _row_times(v, self.gamma_images(s0))

    def bilinear(self, s1, s0) -> np.ndarray:
        """The w in V with <w, v>_V = <s1, mu_v(s0)>_S1 for all v."""
        z = self.gamma_pairing(s1) @ np.asarray(s0, dtype=float)[..., None]
        return self.v_space.raise_(z[..., 0])

    def mult_adjoint(self, v, s1) -> np.ndarray:
        """The u in S0 with <u, s>_S0 = <s1, mu_v(s)>_S1 for all s."""
        return self.s0_space.raise_(_row_times(v, self.gamma_pairing(s1)))

    def to_json(self) -> dict:
        return {
            "dim_v": self.dim_v,
            "signature": list(self.v_space.signature),
            "multiplicity": self.multiplicity,
            "gammas": [g.tolist() for g in np.asarray(self.gammas, dtype=np.int64)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CliffordModule":
        """The module of :meth:`to_json`; SpecError on a malformed object,
        CliffordRelationError unless its gammas pass the exact checks."""
        try:
            dim_v, (p, q), mult = obj["dim_v"], obj["signature"], obj["multiplicity"]
            gammas = np.asarray(obj["gammas"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad Clifford-module JSON: {exc}") from exc
        dim_s = gammas.shape[-1] if gammas.ndim else 0
        ints = all(map(_is_int, (dim_v, p, q, mult))) and min(p, q) >= 0 and p + q == dim_v and mult >= 1
        stack = gammas.dtype.kind == "i" and gammas.shape == (dim_v, dim_s, dim_s) and dim_s > 0
        if not (ints and stack) or (q and dim_s % 2):
            raise SpecError(
                "bad Clifford-module JSON: need integers (not bools or floats) p, q >= 0 with p + q == dim_v, "
                "multiplicity >= 1 and a (dim_v, dim_s, dim_s) integer gamma stack, dim_s even if q > 0"
            )
        v_space = MetricSpace.canonical(p, q)
        s_gram = _spinor_gram(dim_s, euclidean=(q == 0))
        s_space = MetricSpace.with_gram(s_gram)
        tables = _monomial(gammas, "Clifford relation failed")
        _check_clifford_relations(*tables, v_space.gram, s_gram)
        return cls(v_space, s_space, s_space, multiplicity=mult, tables=tables)


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


def _spinor_gram(dim_s: int, euclidean: bool) -> np.ndarray:
    if euclidean:
        return np.eye(dim_s)
    # split metric diag(+1, -1, +1, -1, ...) from the doubling construction
    return np.diag(np.tile([1.0, -1.0], dim_s // 2))


def build_clifford_module(dim_v: int, signature: tuple[int, int] | None = None, multiplicity: int = 1) -> CliffordModule:
    """Construct a graded module over Cl(V, g_V) with exact integer gammas.

    The Euclidean construction takes Gamma_1 = identity and Gamma_{1+i} = J_i
    with J_i the Cayley-Dickson complex structures; resulting spinor spaces
    carry the identity metric.  For signature (p, q) with q > 0, all gammas
    are tensored with a 2x2 factor (identity for spacelike directions, a
    rotation by pi/2 for timelike ones) acting on a split-metric plane, which
    doubles the spinor dimension.  Reducible modules are block-diagonal
    copies of the irreducible one.  Every step runs on (perm, sign) tables,
    and the module carries them as its ``monomial_tables``.

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
    gammas = _stack(_identity(jf[0].shape[1]), jf)
    if q:
        gammas = _kron(gammas, _stack(*[_identity(2)] * p, *[_EPS] * q))
    gammas = _kron(_identity(multiplicity), gammas)
    v_space = MetricSpace.canonical(p, q)
    s_space = MetricSpace.with_gram(_spinor_gram(dim_s, euclidean=(q == 0)))
    _check_clifford_relations(*gammas, v_space.gram, s_space.gram)
    return CliffordModule(v_space, s_space, s_space, tables=gammas, multiplicity=multiplicity)


def _relation_residual(perm, val, g_v, g_s) -> float:
    """Largest |entry| of Gamma_a^T G_S Gamma_b + Gamma_b^T G_S Gamma_a - 2 g_ab G_S
    over all a, b, from (k, d) tables of monomial gammas and a diagonal G_S,
    in O(dim_v^2 dim_s).  Column j of M_ab = Gamma_a^T G_S Gamma_b has its one
    nonzero in row R[a, b, j] = perm_a^-1(perm_b(j)), with value
    V[a, b, j] = val_b(j) G_S[perm_b(j)] val_a(R[a, b, j]), so column j of the
    residual is zero outside rows R[a, b, j], R[b, a, j] and j, and is the
    column sum at each.  Rows R and j over all ordered pairs give every
    entry.  On integer tables and metrics the entries are exact, those of the
    dense products; on +/-1 metrics a zero residual forces |val| = 1 (the
    a = b columns), so it is zero exactly when the relation holds.
    """
    g_s = np.asarray(g_s, dtype=float)
    gs = np.diag(g_s)
    if not np.array_equal(g_s, np.diag(gs)):
        raise CliffordRelationError("spinor metric must be diagonal")
    n, d = perm.shape
    j = np.arange(d)
    rows = np.arange(n)[:, None, None]
    R = np.argsort(perm, axis=1)[rows, perm[None]]
    V = (val * gs[perm])[None] * val[rows, R]
    Rt, Vt = R.swapaxes(0, 1), V.swapaxes(0, 1)
    target = 2.0 * np.asarray(g_v, dtype=float)[:, :, None] * gs
    return float(max(np.max(np.abs(V * (R == row) + Vt * (Rt == row) - target * (j == row))) for row in (R, j)))


def _check_clifford_relations(perm, val, g_v, g_s) -> None:
    """Raise :class:`CliffordRelationError` unless the tables satisfy the
    Clifford relation exactly (a zero :func:`_relation_residual`)."""
    if _relation_residual(perm, val, g_v, g_s):
        raise CliffordRelationError("Clifford relation failed")


# ---------------------------------------------------------------------------
# Operations: the dimension checks around the module's cores
# ---------------------------------------------------------------------------


def _check_last_axes(name: str, x, n: int, y, m: int) -> None:
    if np.shape(x)[-1:] != (n,) or np.shape(y)[-1:] != (m,):
        raise DimensionMismatchError(f"{name}: dimension mismatch")


def clifford_mult(module: CliffordModule, v, s0) -> np.ndarray:
    """mu_v(s0) = sum_a v^a Gamma_a s0, an element of S1 (leading axes broadcast)."""
    _check_last_axes("clifford_mult", v, module.dim_v, s0, module.dim_s)
    return module.mult(v, s0)


def clifford_bilinear(module: CliffordModule, s1, s0) -> np.ndarray:
    """The unique w in V with <w, v>_V = <s1, mu_v(s0)>_S1 for all v
    (leading axes broadcast)."""
    _check_last_axes("clifford_bilinear", s1, module.dim_s, s0, module.dim_s)
    return module.bilinear(s1, s0)


def clifford_mult_adjoint(module: CliffordModule, v, s1) -> np.ndarray:
    """Metric adjoint mu_v^# applied to s1: the S0 element with
    <mu_v^#(s1), u>_S0 = <s1, mu_v(u)>_S1 for all u in S0 (leading axes
    broadcast)."""
    _check_last_axes("clifford_mult_adjoint", v, module.dim_v, s1, module.dim_s)
    return module.mult_adjoint(v, s1)


def verify_isometry(module: CliffordModule, n_samples: int = 1000, seed: int = 0) -> float:
    """Worst absolute violation of |mu_v(s)|^2 = |v|^2 |s|^2 over random samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, (n_samples, module.dim_v))
    s = rng.uniform(-1.0, 1.0, (n_samples, module.dim_s))
    out = module.mult(v, s)
    dev = module.s1_space.norm_sq(out) - module.v_space.norm_sq(v) * module.s0_space.norm_sq(s)
    return float(np.max(np.abs(dev)))
