"""The flat-layout kernels of the orbit and invariant path: every block
inner product of a point in one segmented sum (`NilAlgebra.block_products`),
the trilinear term in one gather (`NilAlgebra.trilinear`) and
anti-transposition as one take, each against the per-block formula it
replaces.  Algebras on metrics other than the identity or on an
indefinite signature are refused: each test on them is a negative
control."""

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli
from vinberg_cones import cone as cone_mod
from vinberg_cones.clifford import MetricSpace
from vinberg_cones.errors import DimensionMismatchError
from vinberg_cones.nilalgebra import block_norms

from _support import FULL_S, FULL_V, SCALED_V, Refused, ip, made, rank2_cone, rank3_cone, regauged_module, same_bits
from _support import spec_module

# Euclidean algebras, and refused ones: three whose block metrics are not the
# identity (non-unit weights, non-diagonal) and three on indefinite signatures
ALGEBRAS = {
    "w4": lambda: rank2_cone(4).algebra,
    "w-signs": Refused(lambda: cli.parse_spec({"rank": 2, "dim_w": 3, "signature": [1, 2]})),
    "w-scaled": Refused(lambda: vc.rank2_algebra(MetricSpace(SCALED_V))),
    "d1": lambda: rank3_cone(1).algebra,
    "d8": lambda: rank3_cone(8).algebra,
    "dual-d4": lambda: vc.dual_algebra(rank3_cone(4).algebra),
    "split-2-1": Refused(lambda: vc.rank3_special(spec_module(3, (2, 1)))),
    "split-1-3-dual": Refused(lambda: vc.dual_algebra(vc.rank3_special(spec_module(4, (1, 3))))),
    "w-non-diagonal": Refused(lambda: vc.rank2_algebra(MetricSpace(FULL_V))),
    "d3-non-diagonal": Refused(lambda: vc.rank3_special(regauged_module(FULL_V, FULL_S))),
}


def _flat_pair(alg, n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (2, n, alg.herm_dim))


@pytest.mark.parametrize("make", ALGEBRAS.values(), ids=ALGEBRAS.keys())
class TestBlockProducts:
    def test_matches_the_per_block_ip(self, make):
        if (alg := made(make)) is None:
            return
        x, y = _flat_pair(alg, 7, 1)
        got = alg.block_products(x, y)
        assert got.shape == (7, len(alg.offdiag_keys))
        for col, key in enumerate(alg.offdiag_keys):
            sl = alg.layout[key]
            want = ip(x[:, sl], y[:, sl])
            # the same terms, summed in another order: a few ulps of their size
            size = np.abs(x[:, sl] * y[:, sl]).sum(-1)
            assert np.all(np.abs(got[:, col] - want) <= 1e-15 * alg.dim(key) * size)

    def test_stack_rows_equal_single_points(self, make):
        if (alg := made(make)) is None:
            return
        for n in (1, 2, max(alg.dim(k) for k in alg.offdiag_keys)):
            x, y = _flat_pair(alg, n, 2)
            got = alg.block_products(x, y)
            want = np.array([alg.block_products(a, b) for a, b in zip(x, y)])
            np.testing.assert_array_equal(got, want)

    def test_norms_of_a_triangular_element(self, make):
        if (alg := made(make)) is None:
            return
        A = vc.random_triangular(alg, np.random.default_rng(3))
        norms = block_norms(A)
        for col, key in enumerate(alg.offdiag_keys):
            assert norms[col] == pytest.approx(ip(A.offdiag[key], A.offdiag[key]), rel=1e-14, abs=1e-15)

    def test_wrong_flat_length_rejected(self, make):
        if (alg := made(make)) is None:
            return
        x = np.ones(alg.herm_dim)
        for bad in (np.ones(1), np.ones(alg.herm_dim - 1), np.ones((2, alg.herm_dim + 1))):
            with pytest.raises(DimensionMismatchError):
                alg.block_products(x, bad)
            with pytest.raises(DimensionMismatchError):
                alg.block_products(bad, x)

    def test_anti_transpose_is_one_take(self, make):
        if (alg := made(make)) is None:
            return
        rng = np.random.default_rng(4)
        A = vc.random_triangular(alg, rng)
        X = vc.herm_from_vector(alg, rng.uniform(-1.0, 1.0, (3, alg.herm_dim)))
        for E in (A, X, vc.herm_from_vector(alg, X.to_vector()[0])):
            T = vc.anti_transpose(E)
            want = dict_anti_transpose(E)
            assert type(T) is type(E) and T.algebra is want.algebra is vc.dual_algebra(alg)
            np.testing.assert_array_equal(T.to_vector(), want.to_vector())
            back = vc.anti_transpose(T)
            assert back.algebra is alg
            np.testing.assert_array_equal(back.to_vector(), E.to_vector())


def dict_anti_transpose(X):
    """Anti-transposition block by block, as the library built it before the
    flat index: the oracle of the one-take version."""
    m = X.algebra.rank
    dual = vc.dual_algebra(X.algebra)
    off = {(i, j): X.offdiag[(m + 1 - j, m + 1 - i)] for (i, j) in dual.offdiag_keys}
    return type(X)(dual, X.diag[..., ::-1], off)


TRILINEAR_ALGEBRAS = {
    **{f"d{d}": (lambda d=d: rank3_cone(d).algebra) for d in (1, 2, 4, 8, 16)},
    **{f"dual-d{d}": (lambda d=d: vc.dual_algebra(rank3_cone(d).algebra)) for d in (1, 2, 4, 8, 16)},
    "multiplicity-2": lambda: rank3_cone(4, 2).algebra,
    "dual-multiplicity-2": lambda: vc.dual_algebra(rank3_cone(4, 2).algebra),
    "split-2-1": ALGEBRAS["split-2-1"],
    "split-1-3-dual": ALGEBRAS["split-1-3-dual"],
}


@pytest.mark.parametrize("make", TRILINEAR_ALGEBRAS.values(), ids=TRILINEAR_ALGEBRAS.keys())
def test_trilinear_matches_the_adjoint_route(make):
    if (alg := made(make)) is None:
        return
    rng = np.random.default_rng(5)
    x12, x13, x23 = (rng.uniform(-1.0, 1.0, (6, alg.dim(k))) for k in ((1, 2), (1, 3), (2, 3)))
    got = alg.trilinear(x12, x13, x23)
    want = ip(alg.mult_flat_left(x12, x13), x23)
    scale = np.linalg.norm(x12, axis=-1) * np.linalg.norm(x13, axis=-1) * np.linalg.norm(x23, axis=-1)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    singles = [alg.trilinear(*xs) for xs in zip(x12, x13, x23)]
    np.testing.assert_allclose(got, singles, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("stack", [(), (5,)], ids=["point", "stack"])
@pytest.mark.parametrize("make", TRILINEAR_ALGEBRAS.values(), ids=TRILINEAR_ALGEBRAS.keys())
def test_shared_gather_matches_the_public_products(make, stack):
    """d and the gap of d' on a special algebra, and p_1 on a dual one, take
    two products from one gather of gamma_pairing(x13): the bits of the
    public products, which gather once each."""
    if (alg := made(make)) is None:
        return
    rng = np.random.default_rng(alg.herm_dim)
    X = vc.herm_from_vector(alg, rng.uniform(-1.0, 1.0, stack + (alg.herm_dim,)))
    x1, x2, x3 = X.diag.T
    x12, x13, x23 = (X.offdiag[k] for k in alg.offdiag_keys)
    n = block_norms(X)
    det = x1 * x2 * x3 - x3 * n[0] - x2 * n[1] - x1 * n[2] + 2.0 * alg.trilinear(x12, x13, x23)
    if alg.kind == "rank3-special":
        b = alg.mult_flat_left(x12, x13)
        gap = n[0] * n[1] - ip(b, b)
        assert same_bits(cone_mod._d_prime_parts(vc.cone_from_algebra(alg), X)[:2], (det, gap))
    else:
        adj = alg.mult_flat_right(x13, x23)
        assert same_bits(cone_mod._p1_rank3(alg, X, n), x3 * det + (n[2] * n[1] - ip(adj, adj)))


@pytest.mark.parametrize("stack", [(), (5,)], ids=["point", "stack"])
@pytest.mark.parametrize("dim_v, mult", [(1, 1), (1, 2), (2, 1), (2, 2), (8, 1), (8, 2)], ids=lambda x: str(x))
@pytest.mark.parametrize("kind", ["special", "dual"])
def test_products_are_the_module_adjoints(kind, dim_v, mult, stack):
    """The algebra's flat products only pick the orientation, (s0, v) =
    (x12, x23) on the special algebra and (x23, x12) on the dual: they are
    the module's two adjoints on it, and the trilinear term is
    <mu_v^#(x13), s0>, bit for bit, with and without a shared gather."""
    mod = vc.build_clifford_module(dim_v, multiplicity=mult)
    alg = vc.rank3_special(mod)
    alg = alg if kind == "special" else vc.dual_algebra(alg)
    rng = np.random.default_rng(10 * dim_v + mult)
    x12, x13, x23 = (rng.uniform(-1.0, 1.0, stack + (alg.dim(k),)) for k in alg.offdiag_keys)
    if kind == "special":
        s0, v = x12, x23
        right, left = vc.clifford_mult_adjoint(mod, x23, x13), vc.clifford_bilinear(mod, x13, x12)
    else:
        s0, v = x23, x12
        right, left = vc.clifford_bilinear(mod, x13, x23), vc.clifford_mult_adjoint(mod, x12, x13)
    trilinear = np.add.reduce(vc.clifford_mult_adjoint(mod, v, x13) * s0, -1)
    for P in (None, mod.gamma_pairing(x13)):
        assert same_bits(alg.mult_flat_right(x13, x23, P), right)
        assert same_bits(alg.mult_flat_left(x12, x13, P), left)
        assert same_bits(alg.trilinear(x12, x13, x23, P), trilinear)


class TestCachedStructure:
    def test_offdiag_keys_and_is_euclidean_are_built_once(self):
        # the keys are built once; no algebra is anything but Euclidean, so
        # none carries a flag for it
        alg = rank3_cone(2).algebra
        assert alg.offdiag_keys == ((1, 2), (1, 3), (2, 3))
        assert alg.offdiag_keys is alg.offdiag_keys
        assert not hasattr(alg, "is_euclidean")

    def test_tables_are_built_on_first_use(self):
        alg = vc.rank3_special(vc.build_clifford_module(3))
        assert "_segments" not in vars(alg) and "anti_transpose_index" not in vars(alg)
        vc.herm_from_triangular(vc.identity_triangular(alg))
        assert "_segments" in vars(alg)

