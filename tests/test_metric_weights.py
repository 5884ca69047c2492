"""Every block metric is the identity, and a metric space is its
dimension: each product against the dense oracles of _support (dense
gammas, einsums and a matmul by the identity Gram matrix), equal entry for
entry.  A metric other than the identity, or an indefinite signature, is
refused, and each test on one is a negative control."""

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli
from vinberg_cones.clifford import CliffordModule, MetricSpace
from vinberg_cones.errors import DimensionMismatchError

from _support import (
    FULL_S,
    FULL_V,
    PRODUCT_MODULES,
    SCALED_S,
    SCALED_V,
    Refused,
    dense_clifford_bilinear,
    dense_clifford_mult_adjoint,
    dense_cubic_derivatives,
    dense_flat_product,
    dense_gamma_pairing,
    dense_ip,
    made,
    made_cone,
    random_orbit_point,
    regauged_module,
    rel_to_scale,
)

# Euclidean modules: dim_v = 4 and 16, and a multiplicity; and refused ones,
# on indefinite signatures, non-unit weights or non-diagonal Gram matrices
MODULES = {
    "identity": lambda: vc.build_clifford_module(4),
    "split-2-1": Refused(lambda: vc.build_clifford_module(3, (2, 1))),
    "split-1-3": Refused(lambda: vc.build_clifford_module(4, (1, 3))),
    "multiplicity-2": lambda: vc.build_clifford_module(4, None, 2),
    "dim-v-16": lambda: vc.build_clifford_module(16),
    "scaled": Refused(lambda: regauged_module(SCALED_V, SCALED_S)),
    "non-diagonal": Refused(lambda: regauged_module(FULL_V, FULL_S)),
}
SPACES = {
    "identity": lambda: MetricSpace.euclidean(3),
    "signs": Refused(lambda: cli.parse_spec({"rank": 2, "dim_w": 3, "signature": [1, 2]})),
    "scaled": Refused(lambda: MetricSpace(SCALED_V)),
    "non-diagonal": Refused(lambda: MetricSpace(FULL_V)),
}


def assert_identity(space, dim: int) -> None:
    """The space holds its dimension and nothing else, no array, and its
    inner product is that of the identity Gram matrix."""
    assert space == MetricSpace(dim) and vars(space) == {"dim": dim}
    x, y = np.random.default_rng(0).uniform(-1, 1, (2, 3, dim))
    np.testing.assert_array_equal(space.ip(x, y), dense_ip(space, x, y))


class TestWeightsPath:
    @pytest.mark.parametrize("case", PRODUCT_MODULES, ids=str)
    def test_built_modules_take_weights(self, case):
        if (cone := made_cone(case)) is None:
            return
        module = cone.algebra.clifford
        back = CliffordModule.from_json(module.to_json())
        for v_space in (module.v_space, back.v_space):
            assert_identity(v_space, case[0])
        for space in (module.s0_space, module.s1_space, back.s0_space, back.s1_space):
            assert_identity(space, module.dim_s)

    @pytest.mark.parametrize(
        "space",
        [
            lambda: MetricSpace.euclidean(5),
            Refused(lambda: vc.build_clifford_module(5, (2, 3))),
            Refused(lambda: vc.build_clifford_module(1, (0, 1))),
        ],
        ids=["space0", "space1", "space2"],
    )
    def test_canonical_spaces_take_weights(self, space):
        # the Euclidean space; a module on a signature with q > 0 is refused
        if (made_space := made(space)) is not None:
            assert_identity(made_space, 5)

    def test_non_diagonal_gram_takes_dense_path(self):
        # there is no dense path: a Gram matrix is no dimension, and neither
        # is its diagonal
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(FULL_V)
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(np.diagonal(FULL_V))

    def test_d18_spaces_hold_no_matrix(self):
        module = vc.build_clifford_module(18)
        for space in (module.v_space, module.s0_space, module.s1_space):
            assert vars(space) == {"dim": space.dim}


_MODULE_CASES = pytest.mark.parametrize("make", MODULES.values(), ids=MODULES.keys())
_SPACE_CASES = pytest.mark.parametrize("make", SPACES.values(), ids=SPACES.keys())


class TestAgainstDenseGrams:
    @_SPACE_CASES
    def test_ip(self, make):
        if (space := made(make)) is None:
            return
        x, y = np.random.default_rng(1).uniform(-1, 1, (2, 6, space.dim))
        np.testing.assert_array_equal(space.ip(x, y), dense_ip(space, x, y))
        np.testing.assert_array_equal(space.ip(x[0], y[0]), dense_ip(space, x[0], y[0]))
        np.testing.assert_array_equal(space.norm_sq(x), dense_ip(space, x, x))

    @_MODULE_CASES
    def test_gamma_pairing(self, make):
        if (module := made(make)) is None:
            return
        alg = vc.rank3_special(module)
        x13 = np.random.default_rng(2).uniform(-1, 1, (5, alg.dim((1, 3))))
        np.testing.assert_array_equal(alg.clifford.gamma_pairing(x13), dense_gamma_pairing(alg, x13))
        np.testing.assert_array_equal(alg.clifford.gamma_pairing(x13[0]), dense_gamma_pairing(alg, x13[0]))

    @pytest.mark.parametrize("dual", [False, True], ids=["special", "dual"])
    @_MODULE_CASES
    def test_adjoints(self, make, dual):
        if (module := made(make)) is None:
            return
        alg = vc.rank3_special(module)
        alg = vc.dual_algebra(alg) if dual else alg
        rng = np.random.default_rng(3)
        x12, x13, x23 = (rng.uniform(-1, 1, (5, alg.dim(k))) for k in ((1, 2), (1, 3), (2, 3)))
        for sl in (slice(None), 0):  # a stack and one point
            got, want = alg.mult_flat_right(x13[sl], x23[sl]), dense_flat_product(alg, x13[sl], x23[sl], (1, 2))
            np.testing.assert_array_equal(got, want)
            got, want = alg.mult_flat_left(x12[sl], x13[sl]), dense_flat_product(alg, x13[sl], x12[sl], (2, 3))
            np.testing.assert_array_equal(got, want)

    @_MODULE_CASES
    def test_clifford_bilinear(self, make):
        # the gathered oracle (the algebra's mult_flat_left), and the einsum
        # over the dense gammas to 1e-12
        if (module := made(make)) is None:
            return
        alg = vc.rank3_special(module)
        s1, s0 = np.random.default_rng(4).uniform(-1, 1, (2, 5, module.dim_s))
        for sl in (slice(None), 0):  # a stack and one point
            got = vc.clifford_bilinear(module, s1[sl], s0[sl])
            np.testing.assert_array_equal(got, dense_flat_product(alg, s1[sl], s0[sl], (2, 3)))
            assert rel_to_scale(got, dense_clifford_bilinear(module, s1[sl], s0[sl])) <= 1e-12

    @_MODULE_CASES
    def test_clifford_mult_adjoint(self, make):
        # the gathered oracle (the algebra's mult_flat_right), and mu_v^T
        # over the dense gammas to 1e-12
        if (module := made(make)) is None:
            return
        alg = vc.rank3_special(module)
        rng = np.random.default_rng(5)
        v, s1 = rng.uniform(-1, 1, (5, module.dim_v)), rng.uniform(-1, 1, (5, module.dim_s))
        np.testing.assert_array_equal(vc.clifford_mult_adjoint(module, v, s1), dense_flat_product(alg, s1, v, (1, 2)))
        for vi, s1i in zip(v, s1):
            got = vc.clifford_mult_adjoint(module, vi, s1i)
            np.testing.assert_array_equal(got, dense_flat_product(alg, s1i, vi, (1, 2)))
            assert rel_to_scale(got, dense_clifford_mult_adjoint(module, vi, s1i)) <= 1e-12

    @_MODULE_CASES
    def test_rank3_cubic_derivatives(self, make):
        if (module := made(make)) is None:
            return
        cone = vc.cone_from_algebra(vc.rank3_special(module))
        rng = np.random.default_rng(6)
        for _ in range(3):
            q = vc.InvariantCubic(cone, tuple(rng.uniform(-1, 1, 3)))
            X = random_orbit_point(cone, rng)
            g, H = dense_cubic_derivatives(q, X, tensor=False)
            np.testing.assert_array_equal(vc.gradient(q, X), g)
            np.testing.assert_array_equal(vc.cubic_hessian(q, X), H)

    @_SPACE_CASES
    def test_rank2_cubic_derivatives(self, make):
        if (space := made(make)) is None:
            return
        cone = vc.cone_from_algebra(vc.rank2_algebra(space))
        rng = np.random.default_rng(7)
        for _ in range(3):
            q = vc.InvariantCubic(cone, tuple(rng.uniform(-1, 1, 2)))
            X = random_orbit_point(cone, rng)
            g, H = dense_cubic_derivatives(q, X, tensor=False)
            np.testing.assert_array_equal(vc.gradient(q, X), g)
            np.testing.assert_array_equal(vc.cubic_hessian(q, X), H)
