"""The leading batch axis: every function that takes a stack of points gives,
at each point, what it gives for that point alone (to 1e-14 relative), and
keeps its Python return types on a single point."""

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cone as cone_mod
from vinberg_cones.errors import DimensionMismatchError
from vinberg_cones.nilalgebra import block_norms

from _support import rank2_cone, rank3_cone

CONES = {
    "w4": rank2_cone(4),
    "d1": rank3_cone(1),
    "d8": rank3_cone(8),
    "dual-d4": rank3_cone(4).dual,
}


def stack_sizes(cone):
    """1, 2 and a block dimension: N vectors of a block of dimension N form a
    square array, which a product or a solve could read the wrong way round."""
    return sorted({1, 2, max(cone.algebra.dim(k) for k in cone.algebra.offdiag_keys)})


CASES = [(tag, n) for tag, cone in CONES.items() for n in stack_sizes(cone)]


def stack(elements):
    alg = elements[0].algebra
    diag = np.stack([e.diag for e in elements])
    off = {k: np.stack([e.offdiag[k] for e in elements]) for k in alg.offdiag_keys}
    return type(elements[0])(alg, diag, off)


def flat(result) -> np.ndarray:
    """One array per result: the last axis runs over a tuple's entries."""
    if isinstance(result, tuple):
        return np.moveaxis(np.array(result), 0, -1)
    if isinstance(result, vc.GroupCoordinates):
        res = np.moveaxis(np.array(list(result.residuals.values())), 0, -1)
        return np.concatenate([result.element.to_vector(), res], axis=-1)
    if hasattr(result, "to_vector"):
        return result.to_vector()
    return np.asarray(result)


def assert_stack_matches(f, stacked, singles):
    got = flat(f(stacked))
    want = np.array([flat(f(x)) for x in singles])
    assert got.shape == want.shape
    if want.dtype == bool:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def draws(cone, n, seed, make=lambda A: A):
    rng = np.random.default_rng(seed)
    singles = [make(vc.random_triangular(cone.algebra, rng)) for _ in range(n)]
    return stack(singles), singles


def cubic(cone):
    if cone.rank == 2:
        return vc.InvariantCubic.rank2_family(cone, 0.5)
    return vc.InvariantCubic.rank3_family(cone, 0.5, -0.25)


@pytest.mark.parametrize("tag,n", CASES)
class TestStackMatchesPointByPoint:
    def test_orbit_maps_products_and_anti_transpose(self, tag, n):
        alg = CONES[tag].algebra
        A, As = draws(CONES[tag], n, 1)
        B, Bs = draws(CONES[tag], n, 2)
        for f in (vc.herm_from_triangular, vc.herm_from_triangular_star, vc.anti_transpose):
            assert_stack_matches(f, A, As)
        assert_stack_matches(lambda AB: vc.triangular_product(*AB), (A, B), list(zip(As, Bs)))
        X, Xs = draws(CONES[tag], n, 3, vc.herm_from_triangular)
        Y, Ys = draws(CONES[tag], n, 4, vc.herm_from_triangular_star)
        assert_stack_matches(lambda XY: vc.herm_pairing(*XY), (X, Y), list(zip(Xs, Ys)))
        assert_stack_matches(vc.anti_transpose, X, Xs)
        vectors = [x.to_vector() for x in Xs]
        assert_stack_matches(lambda v: vc.herm_from_vector(alg, v), X.to_vector(), vectors)

    def test_block_products(self, tag, n):
        alg = CONES[tag].algebra
        rng = np.random.default_rng(5)
        blocks = {k: rng.uniform(-1.0, 1.0, (n, alg.dim(k))) for k in alg.offdiag_keys}
        x, y = rng.uniform(-1.0, 1.0, (2, n, alg.herm_dim))
        assert_stack_matches(lambda xy: alg.block_products(*xy), (x, y), list(zip(x, y)))
        singles = [vc.herm_from_vector(alg, v) for v in x]
        assert_stack_matches(lambda E: tuple(block_norms(E)), vc.herm_from_vector(alg, x), singles)
        if alg.rank == 3:
            pairs = {
                alg.mult: ((1, 2), (2, 3)),
                alg.mult_flat_right: ((1, 3), (2, 3)),
                alg.mult_flat_left: ((1, 2), (1, 3)),
            }
            for f, (k1, k2) in pairs.items():
                u, v = blocks[k1], blocks[k2]
                assert_stack_matches(lambda uv: f(*uv), (u, v), list(zip(u, v)))

    def test_invariants(self, tag, n):
        cone = CONES[tag]
        special = cone.algebra.kind == "rank3-special"
        X, Xs = draws(cone, n, 6, vc.herm_from_triangular)
        Y, Ys = draws(cone, n, 7, vc.herm_from_triangular_star)
        funcs = [vc.p_polynomials, vc.g_determinant_sq, vc.characteristic_function, vc.group_coordinates]
        if special:
            funcs += [vc.det_cubic]
        for f in funcs:
            assert_stack_matches(lambda Z: f(cone, Z), X, Xs)
        if special:
            for f in (vc.d_prime, vc.d_prime_via_dual):
                assert_stack_matches(lambda Z: f(cone, Z), Y, Ys)
        if cone.rank == 2 or special:
            assert_stack_matches(lambda Z: vc.eval_cubic(cubic(cone), Z), X, Xs)

    def test_membership_inside_and_outside(self, tag, n):
        cone = CONES[tag]
        X, _ = draws(cone, n, 8, vc.herm_from_triangular)
        Y, _ = draws(cone, n, 9, vc.herm_from_triangular_star)
        # off-diagonal blocks scaled up by 0, 1, 2, ... leave the cones in turn
        factor = np.where(np.arange(X.algebra.herm_dim) < cone.rank, 1.0, 1.0 + np.arange(n)[:, None])
        for f, Z in ((vc.membership, X), (vc.dual_membership, Y)):
            W = vc.herm_from_vector(cone.algebra, Z.to_vector() * factor)
            singles = [vc.herm_from_vector(cone.algebra, w) for w in W.to_vector()]
            assert_stack_matches(lambda V: f(cone, V), W, singles)


@pytest.mark.parametrize("dim_v", [1, 8])
def test_clifford_products_take_stacks(dim_v):
    module = rank3_cone(dim_v).algebra.clifford
    rng = np.random.default_rng(10)
    v = rng.uniform(-1.0, 1.0, (dim_v, module.dim_v))
    s0, s1 = rng.uniform(-1.0, 1.0, (2, dim_v, module.dim_s))
    assert_stack_matches(lambda a: vc.clifford_mult(module, *a), (v, s0), list(zip(v, s0)))
    assert_stack_matches(lambda a: vc.clifford_bilinear(module, *a), (s1, s0), list(zip(s1, s0)))
    assert_stack_matches(lambda a: vc.clifford_mult_adjoint(module, *a), (v, s1), list(zip(v, s1)))


class TestSinglePointTypes:
    """One point keeps the Python types of the per-point API: floats for the
    polynomials, bool for the membership tests."""

    @pytest.mark.parametrize("tag", list(CONES))
    def test_types(self, tag):
        cone = CONES[tag]
        rng = np.random.default_rng(11)
        X = vc.herm_from_triangular(vc.random_triangular(cone.algebra, rng))
        Y = vc.herm_from_triangular_star(vc.random_triangular(cone.algebra, rng))
        assert type(vc.membership(cone, X)) is bool
        assert type(vc.dual_membership(cone, Y)) is bool
        values = [
            *vc.p_polynomials(cone, X),
            vc.g_determinant_sq(cone, X),
            vc.characteristic_function(cone, X),
            vc.group_coordinates(cone, X).max_residual,
            vc.herm_pairing(X, Y),
            *block_norms(X),
        ]
        if cone.algebra.kind == "rank3-special":
            values += [vc.det_cubic(cone, X), vc.d_prime(cone, Y), vc.d_prime_via_dual(cone, Y)]
        if cone.rank == 2 or cone.algebra.kind == "rank3-special":
            values.append(vc.eval_cubic(cubic(cone), X))
        for value in values:
            assert isinstance(value, float) and not isinstance(value, np.ndarray), type(value)
        assert X.diag.shape == (cone.rank,)

    def test_stack_returns_arrays(self):
        cone = CONES["d1"]
        X, _ = draws(cone, 3, 12, vc.herm_from_triangular)
        assert vc.membership(cone, X).shape == (3,)
        assert all(p.shape == (3,) for p in cone_mod.p_polynomials(cone, X))
        assert X.diag.shape == (3, cone.rank)
        assert X.offdiag[(1, 2)].shape == (3, 1)


class TestStackShapes:
    def test_entries_must_share_the_leading_shape(self):
        alg = CONES["d1"].algebra
        with pytest.raises(DimensionMismatchError):
            vc.HermMatrix(alg, np.ones((2, 3)), {(1, 2): np.ones((3, 1))})

    def test_one_leading_axis_at_most(self):
        alg = CONES["d1"].algebra
        with pytest.raises(DimensionMismatchError):
            vc.herm_from_vector(alg, np.ones((2, 2, alg.herm_dim)))
