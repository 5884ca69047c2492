"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own computation paths:
finite differences for Hessians (``cubics.fd_hessian_log``, shared with the
self-test, which only evaluates q), explicit closed forms at diagonal
points, the Hurwitz-Radon bound for spinor dimensions, the dense generator
recursion for the table-built Clifford modules, the dense polarized loop
for the relation residual that ``clifford`` reads off the tables, the dense
product tensor and einsums over the dense gammas for the gathered algebra
products, dense 3x3 determinants for the self-adjoint instance, the
diagonal kernel's tail formed entry by entry for the tail that ``cubics``
reads off each block's first two entries, one determinant per leading minor for the
minors that ``cubics`` takes from the pivots of one elimination, and the
scan loop built on the sweep's reports for the scan that reads the point
codes.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import clifford, cubics
from vinberg_cones.cubics import DEGENERATE, INDEFINITE, PD, PROBE_MAX
from vinberg_cones.cubics import fd_hessian_log  # noqa: F401  (re-exported for the tests)

_CONES = {}

# positive-definite metrics other than the identity: diagonal ones given by
# their weights, and non-diagonal Gram matrices.  A MetricSpace takes only its
# dimension and refuses them; the tests that ran the library on them are
# negative controls.
SCALED_V = np.array([2.0, 0.5, 3.0])
SCALED_S = np.array([2.0, 0.5, 3.0, 1.25])
FULL_V = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]])
FULL_S = np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.3, 0.0], [0.0, 0.3, 3.0, 0.2], [0.1, 0.0, 0.2, 1.5]])


def regauged_module(v_weights, s_weights) -> "vc.CliffordModule":
    """The tables of build_clifford_module(3) under other metrics on V and S,
    given as weight vectors or Gram matrices: refused, as MetricSpace takes
    no metric but its dimension, and a module holds no space."""
    for weights in (v_weights, s_weights):
        vc.MetricSpace(weights)  # raises
    return vc.CliffordModule(tables=vc.build_clifford_module(3).monomial_tables[:2])


class Refused:
    """A test case whose metric is not the identity, or whose signature is
    indefinite: the test checks that ``make()`` raises, its negative
    control."""

    def __init__(self, make):
        self.make = make


def refused():
    """pytest.raises for what MetricSpace raises on a metric in place of its
    dimension (DimensionMismatchError), and what a signature [p, q] with
    q > 0 raises (IndefiniteSignatureError)."""
    return pytest.raises(
        (vc.DimensionMismatchError, vc.IndefiniteSignatureError), match="integer dim|is indefinite"
    )


def made(case):
    """case() for a case the library builds; for a :class:`Refused` one,
    None after checking that making it raises."""
    if not isinstance(case, Refused):
        return case()
    with refused():
        case.make()
    return None


def rank2_cone(dim_w: int):
    key = ("r2", dim_w)
    if key not in _CONES:
        _CONES[key] = vc.cone_from_algebra(vc.rank2_algebra(vc.MetricSpace.euclidean(dim_w)))
    return _CONES[key]


def rank3_cone(dim_v: int, mult: int = 1, signature=None):
    """The rank-3 special cone; a ``signature`` with q > 0 raises
    IndefiniteSignatureError."""
    key = ("r3", dim_v, mult, signature)
    if key not in _CONES:
        module = vc.build_clifford_module(dim_v, signature, mult)
        _CONES[key] = vc.cone_from_algebra(vc.rank3_special(module))
    return _CONES[key]


def made_cone(case):
    """rank3_cone(*case) for a Euclidean case (dim_v, multiplicity,
    signature); for one with an indefinite signature, None after checking
    that building it is refused."""
    make = lambda: rank3_cone(*case)  # noqa: E731
    return made(make if case[2] is None else Refused(make))


def random_orbit_point(cone, rng):
    return vc.herm_from_triangular(vc.random_triangular(cone.algebra, rng))


def random_dual_point(cone, rng):
    return vc.herm_from_triangular_star(vc.random_triangular(cone.algebra, rng))


def per_block_draws(alg, rng, n: int) -> np.ndarray:
    """n flat vectors drawn one group element at a time, each part by its own
    rng.uniform call: the diagonal in [0.5, 2], then each block in [-1, 1]."""

    def one():
        diag = rng.uniform(0.5, 2.0, alg.rank)
        return np.concatenate([diag, *(rng.uniform(-1.0, 1.0, alg.dim(k)) for k in alg.offdiag_keys)])

    return np.array([one() for _ in range(n)])


def max_block_error(A, B) -> float:
    """Max componentwise difference between two triangular elements."""
    err = float(np.max(np.abs(A.diag - B.diag)))
    for k in A.algebra.offdiag_keys:
        err = max(err, float(np.max(np.abs(A.offdiag[k] - B.offdiag[k]), initial=0.0)))
    return err


def triangular_scale(A) -> float:
    s = float(np.max(np.abs(A.diag)))
    for k in A.algebra.offdiag_keys:
        s = max(s, float(np.max(np.abs(A.offdiag[k]), initial=0.0)))
    return max(1.0, s)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def hurwitz_radon(d: int) -> int:
    """rho(d) = 2^b + 8a where d = odd * 2^(4a+b), 0 <= b <= 3."""
    n4 = 0
    while d % 2 == 0:
        d //= 2
        n4 += 1
    a, b = divmod(n4, 4)
    return 2**b + 8 * a


def min_dim_by_radon(n_anticommuting: int) -> int:
    """Smallest d admitting n_anticommuting-1 anticommuting complex
    structures, i.e. smallest d with rho(d) >= n_anticommuting."""
    d = 1
    while hurwitz_radon(d) < n_anticommuting:
        d += 1
    return d


def _exact_float(*arrays) -> list:
    """float64 copies of integer arrays whose dense products stay exact: every
    entry and every partial sum of a triple product is an integer below 2**53."""
    bound = max(int(np.max(np.abs(a), initial=0)) for a in arrays)
    dim = max(a.shape[-1] for a in arrays)
    if bound**3 * dim**2 >= 2**53:
        raise ValueError("entries too large for an exact float64 product")
    return [a.astype(np.float64) for a in arrays]


def dense_check_clifford_relations(gammas) -> None:
    """Dense oracle for clifford._check_clifford_relations: for every pair,
    Gamma_a^T Gamma_b + Gamma_b^T Gamma_a == 2 delta_ab I by full matrix
    products (int64 matmul is not BLAS-backed and takes about 25 s at
    dim_v = 17, so the exact integer products run in float64)."""
    (gam,) = _exact_float(np.asarray(gammas, dtype=np.int64))
    n, d = gam.shape[0], gam.shape[-1]
    for a in range(n):
        for b in range(a, n):
            lhs = gam[a].T @ gam[b] + gam[b].T @ gam[a]
            if not np.array_equal(lhs, 2 * (a == b) * np.eye(d)):
                raise vc.CliffordRelationError("Clifford relation failed")


def dense_polarized_residual(module) -> float:
    """Dense oracle for clifford._relation_residual on a module: the largest
    |entry| of Gamma_a^T Gamma_b + Gamma_b^T Gamma_a - 2 delta_ab I over all
    pairs, by full matrix products of the dense gammas."""
    largest = 0.0
    gam = np.asarray(module.gammas, dtype=float)
    eye = np.eye(module.dim_s)
    for a in range(module.dim_v):
        for b in range(module.dim_v):
            lhs = gam[a].T @ gam[b] + gam[b].T @ gam[a]
            largest = max(largest, float(np.max(np.abs(lhs - 2.0 * (a == b) * eye))))
    return largest


def dense_check_j_family(fam) -> None:
    """Dense oracle for a J family: skew, J^T J == I and pairwise
    anticommutation by full matrix products."""
    for i, a in enumerate(fam):
        (af,) = _exact_float(np.asarray(a, dtype=np.int64))
        if not np.array_equal(af.T, -af):
            raise vc.CliffordRelationError("J must be skew")
        if not np.array_equal(af.T @ af, np.eye(af.shape[0])):
            raise vc.CliffordRelationError("J must be orthogonal")
        for b in fam[i + 1 :]:
            (bf,) = _exact_float(np.asarray(b, dtype=np.int64))
            if not np.array_equal(af @ bf, -(bf @ af)):
                raise vc.CliffordRelationError("J's must anticommute")


def j_relation_check(perm, sign) -> None:
    """The check that covers a (k, d) J family in a built module:
    clifford._check_clifford_relations on the tables of [I, J_1..J_k],
    whose entries (0, i), (i, i) and (i, j) say that the J's are skew,
    orthogonal and anticommuting."""
    d = np.shape(perm)[1]
    clifford._check_clifford_relations(*clifford._stack(clifford._identity(d), (perm, sign)))


def table_check_j_family(fam) -> None:
    """j_relation_check on the (perm, sign) tables of a dense family (on R^1
    if it is empty), read as CliffordModule.from_json reads a gamma stack."""
    stack = np.stack(fam) if len(fam) else np.zeros((0, 1, 1), dtype=np.int64)
    j_relation_check(*clifford._monomial(stack))


def table_check_clifford_relations(gammas) -> None:
    """clifford._check_clifford_relations on the tables of a dense stack, the
    way CliffordModule.from_json runs it."""
    clifford._check_clifford_relations(*clifford._monomial(np.asarray(gammas)))


def dense_from_tables(perm, sign) -> np.ndarray:
    """The (k, d, d) int64 stack with M[a] e_j = sign[a, j] e_perm[a, j], one
    column at a time."""
    k, d = np.shape(perm)
    out = np.zeros((k, d, d), dtype=np.int64)
    for a in range(k):
        for j in range(d):
            out[a, perm[a][j], j] = sign[a][j]
    return out


def corrupt_tables(perm, sign, kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """Copies of (k, d) tables, d >= 2, with one seeded corruption: two entries
    of one perm row swapped, or one sign flipped."""
    perm, sign = np.array(perm), np.array(sign)
    a = int(rng.integers(len(perm)))
    i, j = rng.choice(perm.shape[1], 2, replace=False)
    if kind == "swap-perm":
        perm[a, [i, j]] = perm[a, [j, i]]
    elif kind == "flip-sign":
        sign[a, i] *= -1
    else:
        raise ValueError(kind)
    return perm, sign


def corrupt_stack(stack: np.ndarray, kind: str, rng) -> np.ndarray:
    """A copy of a (k, d, d) integer stack with one seeded corruption."""
    out = np.array(stack, dtype=np.int64)
    k, d, _ = out.shape
    a = int(rng.integers(k))
    i, j = (int(x) for x in rng.integers(d, size=2))
    if kind == "bump":
        out[a, i, j] += 1
    elif kind == "flip-column":
        out[a, :, j] *= -1
    elif kind == "swap-columns":
        j2 = (j + 1 + int(rng.integers(d - 1))) % d if d > 1 else j
        out[a, :, [j, j2]] = out[a, :, [j2, j]]
    elif kind == "duplicate":
        out[a] = out[(a + 1) % k]
    elif kind == "negate":
        out[a] *= -1
    else:
        raise ValueError(kind)
    return out


# ---------------------------------------------------------------------------
# Dense generator oracle: the Cayley-Dickson tower and the period-8 recursion
# on dense integer matrices, every left multiplication built one column at a
# time and every tensor step an np.kron, which the library's (perm, sign)
# tables replace
# ---------------------------------------------------------------------------

_TAU = np.array([[1, 0], [0, -1]], dtype=np.int64)
_EPS = np.array([[0, 1], [-1, 0]], dtype=np.int64)


def _dense_left_mult(u: np.ndarray) -> np.ndarray:
    """Matrix of y -> u y, column j the product u e_j."""
    return np.stack([clifford._cd_mult(u, e) for e in np.eye(len(u), dtype=np.int64)], axis=1)


@lru_cache(maxsize=None)
def dense_cl_neg_generators(k: int) -> tuple[np.ndarray, ...]:
    """k anticommuting skew-orthogonal integer matrices, as dense matrices."""
    if k == 0:
        return ()
    if k <= 7:
        units = np.eye(2 if k == 1 else 4 if k <= 3 else 8, dtype=np.int64)
        return tuple(_dense_left_mult(units[i]) for i in range(1, k + 1))
    oct7 = dense_cl_neg_generators(7)
    beta = tuple(np.kron(_TAU, j) for j in oct7) + (np.kron(_EPS, np.eye(8, dtype=np.int64)),)
    omega = beta[0]
    for b in beta[1:]:
        omega = omega @ b
    base = dense_cl_neg_generators(k - 8)
    eye_d = np.eye(base[0].shape[0] if base else 1, dtype=np.int64)
    return tuple(np.kron(j, omega) for j in base) + tuple(np.kron(eye_d, b) for b in beta)


def dense_module_stack(dim_v: int, multiplicity: int = 1) -> np.ndarray:
    """The int64 gamma stack of build_clifford_module, built with dense
    Kronecker products."""
    jf = dense_cl_neg_generators(dim_v - 1)
    d = jf[0].shape[0] if jf else 1
    eye_m = np.eye(multiplicity, dtype=np.int64)
    return np.stack([np.kron(eye_m, g) for g in (np.eye(d, dtype=np.int64), *jf)])


# ---------------------------------------------------------------------------
# Dense product oracle: the (d13, d12, d23) tensor of the rank-3 product,
# built from the dense gammas and contracted in full, which the gathers of
# NilAlgebra replace
# ---------------------------------------------------------------------------


# rank3_cone arguments (dim_v, multiplicity, signature) of the modules the
# gathers are checked on; the two with an indefinite signature are refused
# (see made_cone), negative controls
PRODUCT_MODULES = [(d, 1, None) for d in range(1, 18)] + [
    (3, 1, (2, 1)),
    (4, 1, (1, 3)),
    (4, 2, None),
    (3, 3, None),
]


def dense_product_tensor(alg) -> np.ndarray:
    """product[k, i, a] with (x12 . x23)_k = product[k, i, a] x12_i x23_a."""
    P = np.transpose(np.asarray(alg.clifford.gammas, dtype=float), (1, 2, 0))  # (Gamma_a)_{k i}
    return P if alg.kind == "rank3-special" else np.transpose(P, (0, 2, 1))


def dense_mult(alg, x12, x23) -> np.ndarray:
    return np.einsum("kia,...i,...a->...k", dense_product_tensor(alg), x12, x23)


def _dense_form13(alg, x13) -> np.ndarray:
    """(u, y) -> <x13, u . y>_13 as a (..., d12, d23) matrix."""
    return np.einsum("...k,kia->...ia", np.asarray(x13, dtype=float), dense_product_tensor(alg))


def dense_mult_flat_right(alg, x13, x23) -> np.ndarray:
    return np.einsum("...ia,...a->...i", _dense_form13(alg, x13), x23)


def dense_mult_flat_left(alg, x12, x13) -> np.ndarray:
    return np.einsum("...i,...ia->...a", x12, _dense_form13(alg, x13))


def dense_cubic_derivatives(q, X, tensor: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of an invariant cubic at one point from the
    closed forms, each block's metric the identity.  At rank 3 the terms of
    2 <s0 . v, s1> contract the dense product tensor; with ``tensor=False``
    they take the library's gathers in the library's order of operations,
    an oracle for the assembly of the blocks alone."""
    alg = q.cone.algebra
    lay = alg.layout
    n = alg.herm_dim
    g, H = np.zeros(n), np.zeros((n, n))
    if q.cone.rank == 2:
        a, b = q.coeffs
        x1, x2 = X.diag
        w, wsl = X.offdiag[(1, 2)], lay[(1, 2)]
        g[0] = b * x2**2
        g[1] = 3.0 * a * x2**2 + 2.0 * b * x1 * x2 - b * (w @ w)
        g[wsl] = -2.0 * b * x2 * w
        H[0, 1] = H[1, 0] = 2.0 * b * x2
        H[1, 1] = 6.0 * a * x2 + 2.0 * b * x1
        H[1, wsl] = H[wsl, 1] = -2.0 * b * w
        H[wsl, wsl] = -2.0 * b * x2 * np.eye(w.size)
        return g, H
    a, b, c = q.coeffs
    x1, x2, x3 = X.diag
    s0, s1, v = X.offdiag[(1, 2)], X.offdiag[(1, 3)], X.offdiag[(2, 3)]
    s0sl, s1sl, vsl = lay[(1, 2)], lay[(1, 3)], lay[(2, 3)]
    # derivatives of <s0 . v, s1> in s0, in s1 and in v, and the blocks
    # mu_v (S1 x S0), P^T (S0 x V) and Gamma_a s0 (S1 x V)
    if tensor:
        P = dense_product_tensor(alg)
        d_s0, d_s1, d_v = np.einsum("kia,k,a->i", P, s1, v), dense_mult(alg, s0, v), np.einsum("kia,k,i->a", P, s1, s0)
        mu, pair_t, images = np.einsum("kia,a->ki", P, v), np.einsum("kia,k->ia", P, s1), np.einsum("kia,i->ka", P, s0)
    else:
        pair = dense_gamma_pairing(alg, s1)
        d_s0, d_s1, d_v = v @ pair, alg.mult(s0, v), pair @ s0
        mu, pair_t, images = dense_mu(alg.clifford, v), pair.T, alg.clifford.gamma_images(s0).T
    n0, n1, nv = s0 @ s0, s1 @ s1, v @ v
    g[0] = a * (x2 * x3 - nv)
    g[1] = a * (x1 * x3 - n1) + b * x3**2
    g[2] = a * (x1 * x2 - n0) + 2.0 * b * x2 * x3 - b * nv + 3.0 * c * x3**2
    g[s0sl] = -2.0 * a * x3 * s0 + 2.0 * a * d_s0
    g[s1sl] = -2.0 * a * x2 * s1 + 2.0 * a * d_s1
    g[vsl] = -2.0 * (a * x1 + b * x3) * v + 2.0 * a * d_v
    H[0, 1] = H[1, 0] = a * x3
    H[0, 2] = H[2, 0] = a * x2
    H[1, 2] = H[2, 1] = a * x1 + 2.0 * b * x3
    H[2, 2] = 2.0 * b * x2 + 6.0 * c * x3
    H[0, vsl] = H[vsl, 0] = -2.0 * a * v
    H[1, s1sl] = H[s1sl, 1] = -2.0 * a * s1
    H[2, s0sl] = H[s0sl, 2] = -2.0 * a * s0
    H[2, vsl] = H[vsl, 2] = -2.0 * b * v
    H[s0sl, s0sl] = -2.0 * a * x3 * np.eye(s0.size)
    H[s1sl, s1sl] = -2.0 * a * x2 * np.eye(s1.size)
    H[vsl, vsl] = -2.0 * (a * x1 + b * x3) * np.eye(v.size)
    for rows, cols, blk in (
        (s0sl, s1sl, 2.0 * a * mu.T),
        (s0sl, vsl, 2.0 * a * pair_t),
        (s1sl, vsl, 2.0 * a * images),
    ):
        H[rows, cols] = blk
        H[cols, rows] = blk.T
    return g, H


# ---------------------------------------------------------------------------
# Dense oracles: the inner product through a matmul by the identity Gram
# matrix, mu_v as the einsum over the dense gammas that its scatter replaces,
# and the products as a take of the whole table and einsums
# ---------------------------------------------------------------------------


def ip(x, y):
    """<x, y> over the last axis by pairwise sums: the Euclidean inner product
    of a block, summed as the library sums its norms (leading axes broadcast)."""
    return np.add.reduce(np.asarray(x, dtype=float) * y, -1)


def dense_ip(dim: int, x, y):
    return ((np.asarray(x) @ np.eye(dim)) * y).sum(-1)


def dense_mu(module, v) -> np.ndarray:
    return np.einsum("a,aij->ij", v, module.gammas)


def dense_gamma_pairing(alg, x13) -> np.ndarray:
    perm, val, _, _ = alg.clifford.monomial_tables
    # np.take returns a C-ordered array, as the library's gathers do; a stack
    # laid out otherwise takes another matmul path, which rounds differently
    return np.take(np.asarray(x13, dtype=float), perm, axis=-1) * val


def dense_flat_product(alg, x13, x, key) -> np.ndarray:
    """mult_flat_right(x13, x) for key (1, 2), mult_flat_left(x, x13) for (2, 3)."""
    P = dense_gamma_pairing(alg, x13)
    x = np.asarray(x, dtype=float)
    if (key == (1, 2)) == (alg.kind == "rank3-special"):  # x is the factor in V
        return (x[..., None, :] @ P)[..., 0, :]
    return (P @ x[..., None])[..., 0]


def dense_clifford_bilinear(module, s1, s0) -> np.ndarray:
    return np.einsum("...k,aki,...i->...a", np.asarray(s1), module.gammas, s0)


def dense_clifford_mult_adjoint(module, v, s1) -> np.ndarray:
    return dense_mu(module, v).T @ s1


def gather_products(module) -> dict:
    """The Clifford products by the gather formula on whole tables: take s1
    or s0 through the module's (perm, val) or (inv, inv_val) tables, raveled
    and reshaped, and contract in the stacked matmul, one point as a stack
    of one.  The library's products must give these bits."""
    perm, val, inv, inv_val = module.monomial_tables

    def gather(x, index, values):
        x = np.asarray(x, dtype=float)
        return x.take(index.ravel(), axis=-1).reshape(x.shape[:-1] + index.shape) * values

    def row_times(x, M):
        return (np.asarray(x, dtype=float)[..., None, :] @ M)[..., 0, :]

    def pairing(s1):
        return gather(s1, perm, val)

    return {
        "gamma_pairing": pairing,
        "mult": lambda v, s0: row_times(v, gather(s0, inv, inv_val)),
        "bilinear": lambda s1, s0: (pairing(s1) @ np.asarray(s0, dtype=float)[..., None])[..., 0],
        "mult_adjoint": lambda v, s1: row_times(v, pairing(s1)),
        "trilinear": lambda s0, s1, v: (row_times(v, pairing(s1)) * s0).sum(-1),
    }


def exact_core_minor(coeffs, x) -> Fraction:
    """det(Rn) of the diagonal kernel's 2 x 2 core at the rank-3 diagonal
    point x, in exact rationals from the floats of coeffs and x.  The
    kernel's convention (cubics._tangent_basis): drop the axis where |g| is
    largest, project the other two axes off g in order, orthogonalize the
    second against the first (QR), restrict M = -Hess(log q) and take the
    Jacobi-scaled determinant det R / |R11 R22|.  Every normalization cancels
    in it, so it is a rational number; it does not depend on the scale of x."""
    a, b, c = map(Fraction, coeffs)
    x1, x2, x3 = map(Fraction, x)
    q = a * x1 * x2 * x3 + b * x2 * x3 * x3 + c * x3**3
    g = [a * x2 * x3, a * x1 * x3 + b * x3 * x3, a * x1 * x2 + 2 * b * x2 * x3 + 3 * c * x3 * x3]
    h12 = a * x1 + 2 * b * x3
    H = [[0, a * x3, a * x2], [a * x3, 0, h12], [a * x2, h12, 2 * b * x2 + 6 * c * x3]]
    M = [[(g[i] * g[j] - q * H[i][j]) / (q * q) for j in range(3)] for i in range(3)]
    gg = sum(t * t for t in g)
    drop = max(range(3), key=lambda k: abs(g[k]))
    c1, c2 = ([int(i == k) - g[i] * g[k] / gg for i in range(3)] for k in range(3) if k != drop)

    def dot(u, w):
        return sum(s * t for s, t in zip(u, w))

    def form(u, w):
        return dot(u, [dot(row, w) for row in M])

    c2 = [t - dot(c1, c2) / dot(c1, c1) * s for s, t in zip(c1, c2)]
    n1, n2 = dot(c1, c1), dot(c2, c2)
    r11, r22 = form(c1, c1) / n1, form(c2, c2) / n2
    det = (form(c1, c1) * form(c2, c2) - form(c1, c2) ** 2) / (n1 * n2)
    return det / abs(r11 * r22)


def dense_symmetric_3x3(X) -> np.ndarray:
    """Self-adjoint instance (all blocks one-dimensional): the ordinary
    symmetric matrix with the same entries."""
    x1, x2, x3 = X.diag
    s0 = X.offdiag[(1, 2)][0]
    s1 = X.offdiag[(1, 3)][0]
    v = X.offdiag[(2, 3)][0]
    return np.array([[x1, s0, s1], [s0, x2, v], [s1, v, x3]])


def hessian_log_from_gradient_differences(q, X, h: float = 0.5) -> np.ndarray:
    """Second exact evaluation: central differences of the closed-form
    gradient are exact for polynomials of degree <= 2 per component, and the
    gradient of a cubic is quadratic, so this carries only rounding error."""
    alg = q.cone.algebra
    x0 = X.to_vector()
    n = x0.size
    Hq = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        gp = vc.gradient(q, vc.herm_from_vector(alg, x0 + ei))
        gm = vc.gradient(q, vc.herm_from_vector(alg, x0 - ei))
        Hq[i] = (gp - gm) / (2.0 * h)
    Hq = 0.5 * (Hq + Hq.T)
    qx = vc.eval_cubic(q, X)
    g = vc.gradient(q, X)
    return (np.outer(g, g) - qx * Hq) / qx**2


def rank2_diagonal_hessian(q, x1: float, x2: float) -> np.ndarray:
    """Closed form of -Hess(log q) at diag(x1, x2) for the normalized
    rank-2 family, blocks ordered (x1, x2 | w)."""
    eps = q.eps
    dim_w = q.cone.algebra.dim((1, 2))
    F = (x1 + eps * x2) ** 2
    core = np.array(
        [
            [1.0 / F, eps / F],
            [eps / F, (2.0 * (x1 / x2) ** 2 + 4.0 * eps * (x1 / x2) + 3.0 * eps**2) / F],
        ]
    )
    out = np.zeros((2 + dim_w, 2 + dim_w))
    out[:2, :2] = core
    out[2:, 2:] = 2.0 / (x1 * x2 + eps * x2**2) * np.eye(dim_w)
    return out


def rank3_diagonal_hessian(q, x1: float, x2: float, x3: float) -> np.ndarray:
    """Closed form of -Hess(log q) at diag(x1, x2, x3) for the normalized
    rank-3 family, blocks ordered (x1, x2, x3 | s0 | s1 | v)."""
    e1, e2 = q.eps12
    alg = q.cone.algebra
    d0, d1, dv = alg.dim((1, 2)), alg.dim((1, 3)), alg.dim((2, 3))
    Q = x3 * (x1 * x2 + e1 * x2 * x3 + e2 * x3**2)
    A = x2 * x3**2 * (e1 * x2 + 2.0 * e2 * x3)
    B = x3**2 * (x1 + e1 * x3) ** 2
    C = e2 * x3**3 * (2.0 * x1 + e1 * x3)
    D = (
        x2**2 * (x1 + e1 * x3) ** 2
        + x3**2 * (e1 * x2 + e2 * x3) ** 2
        + 2.0 * e2 * x3**3 * (e1 * x2 + e2 * x3)
    )
    core = np.array(
        [[x2**2 * x3**2, -e2 * x3**4, A], [-e2 * x3**4, B, C], [A, C, D]]
    ) / Q**2
    n = 3 + d0 + d1 + dv
    out = np.zeros((n, n))
    out[:3, :3] = core
    pos = 3
    for size, val in ((d0, 2.0 * x3 / Q), (d1, 2.0 * x2 / Q), (dv, 2.0 * (x1 + e1 * x3) / Q)):
        out[pos : pos + size, pos : pos + size] = val * np.eye(size)
        pos += size
    return out


def rel_to_scale(got: np.ndarray, want: np.ndarray) -> float:
    """Max componentwise deviation relative to the oracle's matrix scale."""
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


# ---------------------------------------------------------------------------
# Reference diagonal-slice generators: the point loops that cubics._slice_points
# replaces, one np.roots per x2 row, kept as the oracle for its points and order
# ---------------------------------------------------------------------------


def reference_rank2_slice_points(q, grid):
    a, b = q.coeffs
    pts = []
    if b == 0.0:
        if a <= 0.0:
            return pts
        x2 = (1.0 / a) ** (1.0 / 3.0)
        for x1 in np.geomspace(grid.lo, grid.hi, grid.n):
            pts.append((float(x1), float(x2)))
        return pts
    hi = grid.hi
    if b > 0.0 and a > 0.0:
        # x1 > 0 bounds the slice: respace inside the feasible range
        hi = min(hi, 0.999 * a ** (-1.0 / 3.0))
    for x2 in np.geomspace(grid.lo, hi, grid.n):
        x1 = (1.0 - a * x2**3) / (b * x2**2)
        if x1 > 0.0:
            pts.append((float(x1), float(x2)))
    return pts


def reference_rank3_x3_values(q, x2: float, grid, xs: np.ndarray) -> list:
    a, b, c = q.coeffs
    vals = list(xs)
    if a > 0.0 and c > 0.0:
        # feasibility boundary in x3: largest positive root of c t^3 + b x2 t^2 = a-scaled 1
        roots = np.roots([c, b * x2, 0.0, -1.0])
        real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0]
        if real:
            t = max(real)
            vals.extend(t * (1.0 - d) for d in (1e-1, 1e-2, 1e-3, 1e-4))
        # coarse large-x3 probes (relevant when b < 0 allows feasible large x3)
        vals.extend(np.geomspace(grid.hi, PROBE_MAX, 8))
    return sorted(set(float(t) for t in vals if t <= PROBE_MAX))


def reference_rank3_slice_points(q, grid):
    a, b, c = q.coeffs
    xs = np.geomspace(grid.lo, grid.hi, grid.n)
    pts = []
    if a == 0.0:
        # q has no x1 dependence; the slice is swept by (x1, x3)
        if b == 0.0:
            if c <= 0.0:
                return pts
            x3 = (1.0 / c) ** (1.0 / 3.0)
            return [(float(x1), float(x2), float(x3)) for x1 in xs for x2 in xs]
        for x3 in xs:
            x2 = (1.0 - c * x3**3) / (b * x3**2)
            if x2 <= 0.0:
                continue
            for x1 in xs:
                pts.append((float(x1), float(x2), float(x3)))
        return pts
    for x2 in xs:
        for x3 in reference_rank3_x3_values(q, float(x2), grid, xs):
            x1 = (1.0 - b * x2 * x3**2 - c * x3**3) / (a * x2 * x3)
            if x1 > 0.0:
                pts.append((float(x1), float(x2), float(x3)))
    return pts


def reference_search_points(q, search):
    """The local search's x2 x x3 square (rank 3, a != 0)."""
    a, b, c = q.coeffs
    xs = np.geomspace(search.lo, search.hi, search.n)
    pts = []
    for x2 in xs:
        for x3 in xs:
            x1 = (1.0 - b * x2 * x3**2 - c * x3**3) / (a * x2 * x3)
            if x1 > 0.0:
                pts.append((float(x1), float(x2), float(x3)))
    return pts


def project_to_level_set(q, X):
    qx = vc.eval_cubic(q, X)
    assert qx > 0.0
    return vc.herm_from_vector(q.cone.algebra, X.to_vector() / qx ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# Reference diagonal kernel: each point's kind from the eigvalsh inertia of
# its restricted form, min_minor from the tail det(core) * cumprod(block
# signs) formed over every off-diagonal coordinate (np.repeat, then
# cumprod), and the reports built from them; the oracle for the
# inertia rule, cubics._diagonal_minors and the sweeps on top of them
# ---------------------------------------------------------------------------

EIGEN_BAND = 1e-12  # an eigenvalue within band * the largest magnitude of 0 is degenerate


def dense_inertia_kind(M):
    """The kind of the symmetric form M from the eigvalsh of its Jacobi
    scaling (a congruence), or None where an eigenvalue lies within 1e-9 of
    0 relative to the largest, where floats cannot tell its sign."""
    ev = np.linalg.eigvalsh(jacobi_scaled(M))
    if np.abs(ev).min() <= 1e-9 * np.abs(ev).max():
        return None
    return PD if np.all(ev > 0.0) else INDEFINITE


def restrict(M, u):
    """tangent_restriction's steps after -Hess(log q), at one form or a stack:
    the orthonormal basis of the complement of each unit vector u, the
    symmetrized restricted form R, the leading minors of R after the Jacobi
    rescaling, and that rescaled form's largest entry."""
    basis = cubics._tangent_basis(u)
    R = cubics._restricted(M, basis)
    Rn = cubics._jacobi_scaled(R)
    return basis, R, cubics._leading_minors(Rn), np.abs(Rn).max(axis=(-2, -1))


def kernel_core_forms(q, x):
    """-Hess(log q) on the diagonal coordinates and the unit gradient u at
    each row of x, projected onto {q = 1}, as the diagonal kernel builds them
    for restrict, and the block scalars there."""
    qx, g, H, blocks = cubics._diagonal_parts(q, x)
    if np.any(qx <= 0.0):
        raise vc.OutsideConeError("projection onto the level set requires q(X) > 0")
    off = np.abs(qx - 1.0) > cubics.LEVEL_TOL
    if np.any(off):
        x = x.copy()
        x[off] /= np.float_power(qx[off, None], 1.0 / 3.0)
        qx, g, H, blocks = cubics._diagonal_parts(q, x)
    padded = np.zeros((len(x), q.cone.dim_herm))
    padded[:, : q.cone.rank] = g
    u = g / np.sqrt((padded[:, None, :] @ padded[:, :, None])[:, 0, 0])[:, None]
    return cubics._neg_hess_log(qx, g, H), u, blocks


def reference_diagonal_kinds(q, x) -> tuple[np.ndarray, np.ndarray]:
    """Kind strings and min_minor at each row of x.  The restricted form at a
    diagonal point is the core plus, on each off-diagonal block, the block's
    scalar times its Gram matrix, the identity: its eigenvalues have the
    signs of the Jacobi-scaled core's eigvalsh and of the block scalars, one
    per block coordinate.  Every tail minor is formed."""
    M, u, blocks = kernel_core_forms(q, x)
    _, R, core, _ = restrict(M, u)
    dims = [q.cone.algebra.dim(k) for k in q.cone.algebra.offdiag_keys]
    signs = np.repeat(np.sign(blocks), dims, axis=1)
    tail = core[:, -1:] * np.cumprod(signs, axis=1)
    ev = np.concatenate([np.linalg.eigvalsh(jacobi_scaled(R)), signs], axis=1)
    degenerate = np.any(np.abs(ev) <= EIGEN_BAND * np.max(np.abs(ev), axis=1, keepdims=True), axis=1)
    kinds = np.where(degenerate, DEGENERATE, np.where(np.all(ev > 0.0, axis=1), PD, INDEFINITE)).astype(object)
    return kinds, np.min(np.concatenate([core, tail], axis=1), axis=1)


def reference_classify_slice(q, grid):
    x = cubics._slice_points(q, grid)
    kinds = np.full(len(x), "constraint", dtype=object)
    minors = np.full(len(x), math.nan)
    inside = ~cubics._constraint_violated(q, x)
    if np.any(inside):
        kinds[inside], minors[inside] = reference_diagonal_kinds(q, x[inside])
    return x, kinds, minors


def reference_admissibility_on_diagonal(q, grid) -> "cubics.DiagonalReport":
    x, kinds, minors = reference_classify_slice(q, grid)
    if not len(x):
        raise vc.OutsideConeError("empty feasible diagonal grid")
    pts = [tuple(row) for row in x.tolist()]
    ranked = np.where(np.isnan(minors), math.inf, minors)
    i = int(np.argmin(ranked))
    min_minor, min_coords = math.inf, pts[0]
    if ranked[i] < math.inf:
        min_minor, min_coords = float(minors[i]), pts[i]
    witnesses = tuple(
        cubics.DiagonalWitness(pts[j], kinds[j], float(minors[j])) for j in np.flatnonzero(kinds != PD)
    )
    return cubics.DiagonalReport(not witnesses, len(pts), witnesses, min_minor, min_coords)


def reference_find_locally_admissible_point(q, search):
    if q.coeffs[0] == 0.0:
        return None
    x, kinds, _ = reference_classify_slice(q, search)
    found = np.flatnonzero(kinds == PD)
    return vc.tangent_restriction(q, vc.HermMatrix(q.cone.algebra, x[found[0]], {})) if found.size else None


# ---------------------------------------------------------------------------
# Reference minors and scan: one determinant per leading minor, and the scan
# loop that builds the sweep's report for every cell and reads its witnesses
# ---------------------------------------------------------------------------


def jacobi_scaled(R: np.ndarray) -> np.ndarray:
    """R / (d d^T) with d = sqrt|diag R| (1 where that is 0), as
    tangent_restriction scales the restricted form before its minors."""
    d = np.sqrt(np.abs(R.diagonal(axis1=-2, axis2=-1)))
    d = np.where(d == 0.0, 1.0, d)
    return R / (d[..., :, None] * d[..., None, :])


def det_leading_minors(A: np.ndarray) -> np.ndarray:
    """The leading principal minors of each form A (last two axes), one
    np.linalg.det per minor."""
    return np.stack([np.linalg.det(A[..., : k + 1, : k + 1]) for k in range(A.shape[-1])], axis=-1)


def reference_scan_parameter_plane(cone, eps1_values, eps2_values, grid, search) -> list:
    rows = []
    for e1 in eps1_values:
        for e2 in eps2_values:
            e1, e2 = float(e1), float(e2)
            q = vc.InvariantCubic.rank3_family(cone, e1, e2)
            rep = vc.admissibility_on_diagonal(q, grid)
            breached = e2 > 0.0 or any(w.kind == "constraint" for w in rep.witnesses)
            local = None if rep.all_pd or breached else vc.find_locally_admissible_point(q, search)
            if rep.all_pd:
                kind, coords, minor = cubics.ADMISSIBLE_ON_SAMPLE, rep.min_minor_coords, rep.min_minor
            elif local is not None:
                kind, coords, minor = cubics.LOCALLY_ADMISSIBLE, local.point.diag, local.min_minor
            else:
                w = rep.witnesses[0]
                kind, coords, minor = cubics.NOT_ADMISSIBLE, w.coords, w.min_minor
            rows.append(cubics.ScanCell(e1, e2, kind, coords[1], coords[2], minor))
    return rows


def same_bits(a, b) -> bool:
    """Equal values of equal Python types, nested through tuples and
    dataclasses; NaN equals NaN and a zero equals only a zero of its sign,
    in a float array as in a float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_bits(u, v) for u, v in zip(a, b))
    if isinstance(a, vc.HermMatrix):
        return same_bits(a.to_vector(), b.to_vector())
    if hasattr(a, "__dataclass_fields__"):
        return all(same_bits(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, float):
        return math.copysign(1.0, a) == math.copysign(1.0, b) and (a == b or (a != a and b != b))
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind != "f":
            return np.array_equal(a, b)
        return np.array_equal(np.signbit(a), np.signbit(b)) and np.array_equal(a, b, equal_nan=True)
    return a == b
