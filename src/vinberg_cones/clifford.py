"""Z2-graded Clifford modules with invariant metrics.

A module here is the data of a metric vector space (V, g_V) together with
two spinor spaces S0, S1 of equal dimension and one linear map
Gamma_a : S0 -> S1 per canonical basis vector of V.  The maps satisfy the
isometry identity

    <mu_v(s), mu_v(s)>_S1 = <v, v>_V * <s, s>_S0      mu_v = sum_a v^a Gamma_a

exactly, because every Gamma_a is a signed permutation, built as index
tables by the Cayley-Dickson tower (complexes, quaternions, octonions) and
the period-8 tensor recursion, and checked once, by the Clifford relation
on the module's tables; every operation runs on them.  Every space is
Euclidean, as the blocks of a T-algebra are, and the spinor dimension is the
minimal one allowed by the Hurwitz-Radon bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import CliffordRelationError, DimensionMismatchError, IndefiniteSignatureError
from .errors import ModuleTooLargeError, SpecError

# Largest dim_v * dim_s**2 that build_clifford_module accepts: the entries of
# the dense gamma stack that to_json writes, unchanged although a module holds
# tables.  dim_v = 18 (4.7M entries) is the largest module under it;
# dim_v = 19 would hold 20M entries.  The CLI holds dim_w**2 of a rank-2 spec
# to the same bound: the dim_herm x dim_herm dense forms that selftest builds
# (cubic_hessian, hessian_log, fd_hessian_log) grow with it.
MAX_GAMMA_ENTRIES = 2**23


def _is_int(x) -> bool:
    """An exact integer: a Python or numpy int, not a bool or a float."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_count(name: str, n) -> None:
    """Raise DimensionMismatchError unless n is an exact integer >= 1."""
    if not _is_int(n):
        raise DimensionMismatchError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise DimensionMismatchError(f"{name} must be >= 1")


# ---------------------------------------------------------------------------
# Metric vector spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpace:
    """R^dim with the Euclidean inner product of its standard basis: the
    block W that ``rank2_algebra`` takes.  A ``dim`` that is no integer
    >= 1 raises DimensionMismatchError."""

    dim: int

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim < 1:
            raise DimensionMismatchError(f"a metric space needs an integer dim >= 1, got {self.dim!r}")

    @classmethod
    def euclidean(cls, dim: int) -> "MetricSpace":
        return cls(dim)


def _sq_norm(x: np.ndarray):
    """|x|^2 along the last axis of a float array by pairwise sums (as accurate as a dot), unchecked."""
    return np.add.reduce(x * x, -1)


def _check_signature(signature, dim: int) -> None:
    """Raise unless ``signature`` is the Euclidean (dim, 0): SpecError when
    it is no pair of integer counts >= 0 that sum to dim,
    IndefiniteSignatureError when its q > 0, since a split metric makes no
    convex cone.  The one check of a signature, where it arrives as data:
    a spec's key and :meth:`CliffordModule.from_json`."""
    if not isinstance(signature, (list, tuple)) or len(signature) != 2:
        raise SpecError(f"signature must be a list [p, q], got {signature!r}")
    p, q = signature
    if not (_is_int(p) and _is_int(q)) or min(p, q) < 0 or p + q != dim:
        raise SpecError(f"signature {list(signature)} incompatible with dim {dim}")
    if q:
        raise IndefiniteSignatureError(
            f"signature {list(signature)} is indefinite: a Vinberg cone needs Euclidean blocks, [{dim}, 0]"
        )


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


# Spinor dimensions for k = dim_v - 1 = 0..7 anticommuting complex
# structures; each further 8 multiply the dimension by 16 (Hurwitz-Radon).
_PERIOD8_SPINOR_DIMS = (1, 2, 4, 4, 8, 8, 8, 8)


@lru_cache(maxsize=None)
def _cl_neg_generators(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k anticommuting skew-orthogonal J_i with J_i^2 = -I as (k, d) tables, d
    minimal (Hurwitz-Radon): for k <= 7 the left multiplications by imaginary
    Cayley-Dickson units, beyond that the period-8 recursion J (x) omega,
    I (x) beta, with beta eight generators on R^16 and omega their product.
    Unchecked here: with Gamma_0 = I, the module's relation check says at
    its entries (0, i), (i, i) and (i, j) that the J's are skew, orthogonal
    and anticommuting."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k <= 7:
        eye = np.eye(_PERIOD8_SPINOR_DIMS[k], dtype=np.int64)
        # m[:, i, j] = e_(i+1) e_j: every unit times every basis vector in one product
        m = _cd_mult(eye[:, 1 : k + 1, None], eye[:, None, :])
        fam = (np.abs(m).argmax(axis=0), m.sum(axis=0))
    else:
        beta = _stack(_kron(_TAU, _cl_neg_generators(7)), _kron(_EPS, _identity(8)))
        omega = reduce(_compose, zip(*beta))
        base = _cl_neg_generators(k - 8)
        fam = _stack(_kron(base, omega), _kron(_identity(base[0].shape[1]), beta))
    for t in fam:
        t.setflags(write=False)
    return fam


def _monomial(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, val) of a (k, d, d) stack of monomial matrices, with
    ``stack[a, perm[a, j], j] == val[a, j] != 0`` and every other entry zero.
    Raises :class:`CliffordRelationError` unless every matrix has one
    nonzero per row and a nonzero in every column."""
    nonzero = stack != 0
    if not (np.all(nonzero.sum(axis=2) == 1) and np.all(nonzero.any(axis=1))):
        raise CliffordRelationError("Clifford relation failed")
    perm = nonzero.argmax(axis=1)
    return perm, stack[np.arange(len(stack))[:, None], perm, np.arange(stack.shape[2])]


def minimal_spinor_dim(dim_v: int) -> int:
    """Spinor dimension used by :func:`build_clifford_module` at multiplicity
    1: the minimal graded-module dimension (period-8 table,
    1,2,4,4,8,8,8,8,16,...).  Closed form: builds no generators.
    """
    _check_count("dim_v", dim_v)
    periods, k = divmod(dim_v - 1, 8)
    return 16**periods * _PERIOD8_SPINOR_DIMS[k]


# ---------------------------------------------------------------------------
# Clifford modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class CliffordModule:
    """Graded Clifford module: one gamma map S0 -> S1 per basis vector of V,
    every space Euclidean.

    A module is its index tables: (dim_v, dim_s) arrays ``tables = (perm,
    val)`` with ``Gamma_a e_j = val[a, j] e_perm[a, j]``, Gamma_a the map of
    the a-th basis vector of V, and dim S0 = dim S1 = dim_s.  ``tables`` is
    keyword-only: a dense (2, 2, 2) stack has the shapes of a (perm, val)
    pair on dim_v = dim_s = 2.  The constructor checks that the two tables
    have one non-empty 2-D shape, that every row of ``perm`` is a
    permutation of 0..dim_s-1 and that dim_s is a multiple of the minimal
    spinor dimension, and keeps read-only copies of them;
    :func:`build_clifford_module` and :meth:`from_json`, the dense entry
    point, check the relation.
    """

    dim_v: int
    dim_s: int

    def __init__(self, *, tables):
        shapes = [np.shape(t) for t in tables]
        if len(shapes) != 2 or shapes[0] != shapes[1] or len(shapes[0]) != 2 or 0 in shapes[0]:
            raise DimensionMismatchError(f"tables need two arrays of one non-empty 2-D shape, got shapes {shapes}")
        (dim_v, dim_s), perm = shapes[0], np.asarray(tables[0])
        seen = np.zeros((dim_v, dim_s), dtype=bool)
        if perm.dtype.kind in "iu" and ((perm >= 0) & (perm < dim_s)).all():
            seen[np.arange(dim_v)[:, None], perm] = True  # O(dim_v dim_s)
        if not seen.all():
            raise SpecError("every row of the perm table must be a permutation of 0..dim_s-1")
        if dim_s % minimal_spinor_dim(dim_v):
            raise DimensionMismatchError(f"dim_s = {dim_s} is no multiple of minimal_spinor_dim({dim_v})")
        tables = tuple(np.array(t) for t in tables)  # read-only copies: the caller's arrays stay theirs
        for t in tables:
            t.setflags(write=False)
        # past the frozen __setattr__
        self.__dict__.update(dim_v=dim_v, dim_s=dim_s, _tables=tables)

    @cached_property
    def multiplicity(self) -> int:
        """The number of copies of the minimal module: dim_s / minimal_spinor_dim(dim_v)."""
        return self.dim_s // minimal_spinor_dim(self.dim_v)

    @cached_property
    def gammas(self) -> np.ndarray:
        """The read-only dense stack, scattered from the tables on first read,
        in the dtype of their values; only :meth:`to_json` reads it."""
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
    # operations, gather one factor through the tables and contract the other
    # in one gemv (_row_times, _mat_times); the two adjoints take a shared
    # gamma_pairing(s1) gather as ``P``, and no other code contracts one.

    def gamma_images(self, s0) -> np.ndarray:
        """The (..., dim_v, dim_s) matrix whose row a is Gamma_a s0."""
        _, _, inv, inv_val = self.monomial_tables
        return _gather(s0, inv, inv_val)

    def gamma_pairing(self, s1) -> np.ndarray:
        """The (..., dim_v, dim_s) matrix P with P[a, j] = <s1, Gamma_a e_j>_S1,
        so that <s1, mu_v(s0)>_S1 = v . P . s0."""
        perm, val, _, _ = self.monomial_tables
        return _gather(s1, perm, val)

    def mult(self, v, s0) -> np.ndarray:
        """mu_v(s0) in S1."""
        return _row_times(v, self.gamma_images(s0))

    def bilinear(self, s1, s0, P=None) -> np.ndarray:
        """The w in V with <w, v>_V = <s1, mu_v(s0)>_S1 for all v."""
        return _mat_times(self.gamma_pairing(s1) if P is None else P, s0)

    def mult_adjoint(self, v, s1, P=None) -> np.ndarray:
        """The u in S0 with <u, s>_S0 = <s1, mu_v(s)>_S1 for all s."""
        return _row_times(v, self.gamma_pairing(s1) if P is None else P)

    def to_json(self) -> dict:
        return {
            "dim_v": self.dim_v,
            "signature": [self.dim_v, 0],
            "multiplicity": self.multiplicity,
            "gammas": [g.tolist() for g in np.asarray(self.gammas, dtype=np.int64)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CliffordModule":
        """The module of :meth:`to_json`; SpecError on a malformed object or
        a multiplicity its gammas do not have, IndefiniteSignatureError on a
        signature with q > 0 and CliffordRelationError unless its gammas
        pass the exact checks."""
        try:
            dim_v, signature, mult = obj["dim_v"], obj["signature"], obj["multiplicity"]
            gammas = np.asarray(obj["gammas"])
            _check_signature(signature, dim_v)
        except IndefiniteSignatureError:  # a ValueError, but a refusal of its own
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad Clifford-module JSON: {exc}") from exc
        dim_s = gammas.shape[-1] if gammas.ndim else 0
        ints = _is_int(dim_v) and _is_int(mult) and mult >= 1
        stack = gammas.dtype.kind == "i" and gammas.shape == (dim_v, dim_s, dim_s) and dim_s > 0
        if not (ints and stack):
            raise SpecError(
                "bad Clifford-module JSON: need integers (not bools or floats) dim_v and "
                "multiplicity >= 1 and a (dim_v, dim_s, dim_s) integer gamma stack"
            )
        tables = _monomial(gammas)
        _check_clifford_relations(*tables)
        module = cls(tables=tables)
        if mult != module.multiplicity:
            raise SpecError(f"bad Clifford-module JSON: multiplicity {mult}, but its gammas have {module.multiplicity}")
        return module


def _gather(x, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values[a, j] * x[..., index[a, j]], of shape (..., dim_v, dim_s): one
    take and one product.  A single point takes by fancy indexing, about
    0.5 us under the method ``take``; a stack by ``take`` along its last
    axis, which fancy indexing behind an ellipsis does at several times the
    cost.
    The product is taken in place: a stack's gather is large, and a second
    array that size costs more to allocate than the gather itself."""
    x = np.asarray(x, dtype=float)
    out = x[index] if x.ndim == 1 else x.take(index, axis=-1)
    out *= values
    return out


def _row_times(x, M) -> np.ndarray:
    """x . M over the last axes: (..., n) times (..., n, k) gives (..., k).  Each
    product is the BLAS gemv of a vector times a matrix, so a stack's row has its
    single point's bits; ``ndarray.dot`` calls it at half the cost of a matmul."""
    x = np.asarray(x, dtype=float)
    return x.dot(M) if x.ndim == 1 and M.ndim == 2 else (x[..., None, :] @ M)[..., 0, :]


def _mat_times(M, x) -> np.ndarray:
    """M . x over the last axes, (..., k, n) times (..., n), by gemv as :func:`_row_times`."""
    x = np.asarray(x, dtype=float)
    return M.dot(x) if x.ndim == 1 and M.ndim == 2 else (M @ x[..., None])[..., 0]


def build_clifford_module(dim_v: int, multiplicity: int = 1) -> CliffordModule:
    """Construct a graded module over Cl(V, g_V) with exact integer gammas.

    The construction takes Gamma_1 = identity and Gamma_{1+i} = J_i with J_i
    the Cayley-Dickson complex structures; V and the spinor spaces carry the
    identity metric.  Reducible modules are block-diagonal copies of the
    irreducible one.  Every step runs on (perm, sign) tables, and the module
    carries them as its ``monomial_tables``.

    Raises :class:`ModuleTooLargeError`, before building anything, when
    dim_v * dim_s**2 (dim_s including the multiplicity) exceeds
    ``MAX_GAMMA_ENTRIES``.
    """
    _check_count("dim_v", dim_v)
    _check_count("multiplicity", multiplicity)
    if dim_v > MAX_GAMMA_ENTRIES:  # dim_s >= 1; spares computing a 16**(dim_v / 8) dim_s
        raise ModuleTooLargeError(f"dim_v = {dim_v} exceeds MAX_GAMMA_ENTRIES = {MAX_GAMMA_ENTRIES}")
    dim_s = minimal_spinor_dim(dim_v) * multiplicity
    if dim_v * dim_s**2 > MAX_GAMMA_ENTRIES:
        raise ModuleTooLargeError(
            f"dim_v * dim_s^2 = {dim_v} * {dim_s}^2 exceeds MAX_GAMMA_ENTRIES = {MAX_GAMMA_ENTRIES}"
        )
    jf = _cl_neg_generators(dim_v - 1)
    gammas = _kron(_identity(multiplicity), _stack(_identity(jf[0].shape[1]), jf))
    _check_clifford_relations(*gammas)
    return CliffordModule(tables=gammas)


def _relation_residual(perm, val) -> float:
    """Largest |entry| of Gamma_a^T Gamma_b + Gamma_b^T Gamma_a - 2 delta_ab I
    over all a, b, from (k, d) tables of monomial gammas, in
    O(dim_v^2 dim_s).  Column j of M_ab = Gamma_a^T Gamma_b has its one
    nonzero in row R[a, b, j] = perm_a^-1(perm_b(j)), with value
    V[a, b, j] = val_b(j) val_a(R[a, b, j]), so column j of the residual is
    zero outside rows R[a, b, j], R[b, a, j] and j, and is the column sum at
    each.  Rows R and j over all ordered pairs give every entry.  On integer
    tables the entries are exact, those of the dense products; a zero
    residual forces |val| = 1 (the a = b columns), so it is zero exactly
    when the relation holds.
    """
    n, d = perm.shape
    j = np.arange(d)
    rows = np.arange(n)[:, None, None]
    R = np.argsort(perm, axis=1)[rows, perm[None]]
    V = val[None] * val[rows, R]
    Rt, Vt = R.swapaxes(0, 1), V.swapaxes(0, 1)
    target = 2.0 * np.eye(n)[:, :, None]
    return float(max(np.max(np.abs(V * (R == row) + Vt * (Rt == row) - target * (j == row))) for row in (R, j)))


def _check_clifford_relations(perm, val) -> None:
    """Raise :class:`CliffordRelationError` unless the tables satisfy the
    Clifford relation exactly (a zero :func:`_relation_residual`)."""
    if _relation_residual(perm, val):
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
    _check_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, (n_samples, module.dim_v))
    s = rng.uniform(-1.0, 1.0, (n_samples, module.dim_s))
    out = module.mult(v, s)
    dev = _sq_norm(out) - _sq_norm(v) * _sq_norm(s)
    return float(np.max(np.abs(dev)))
