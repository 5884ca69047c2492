"""Diagonal Gram matrices as weight vectors: every product with a Gram
matrix or its inverse against the dense-Gram oracle of _support, equal
entry for entry on diagonal metrics and to 1e-12 on a non-diagonal one."""

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones.clifford import CliffordModule, MetricSpace

from _support import (
    FULL_S,
    FULL_V,
    PRODUCT_MODULES,
    SCALED_S,
    SCALED_V,
    dense_clifford_bilinear,
    dense_clifford_mult_adjoint,
    dense_cubic_derivatives,
    dense_flat_product,
    dense_gamma_pairing,
    dense_ip,
    random_orbit_point,
    rank3_cone,
    regauged_module,
    rel_to_scale,
)

# modules with diagonal metrics: identity, +/-1 on V and S, a multiplicity,
# and non-unit weights
DIAGONAL_MODULES = {
    "identity": lambda: vc.build_clifford_module(4),
    "split-2-1": lambda: vc.build_clifford_module(3, (2, 1)),
    "split-1-3": lambda: vc.build_clifford_module(4, (1, 3)),
    "multiplicity-2": lambda: vc.build_clifford_module(4, None, 2),
    "dim-v-16": lambda: vc.build_clifford_module(16),
    "scaled": lambda: regauged_module(SCALED_V, SCALED_S),
}
SPACES = {
    "identity": lambda: MetricSpace.euclidean(3),
    "signs": lambda: MetricSpace.canonical(1, 2),
    "scaled": lambda: MetricSpace.with_gram(SCALED_V),
}


def _equal(got, want, dense: bool) -> None:
    """Entry for entry on diagonal metrics; to 1e-12 of the scale otherwise."""
    if dense:
        assert rel_to_scale(np.asarray(got), np.asarray(want)) <= 1e-12
    else:
        np.testing.assert_array_equal(got, want)


def _module_cases():
    cases = [pytest.param(make, False, id=name) for name, make in DIAGONAL_MODULES.items()]
    return cases + [pytest.param(lambda: regauged_module(FULL_V, FULL_S), True, id="non-diagonal")]


def _space_cases():
    cases = [pytest.param(make, False, id=name) for name, make in SPACES.items()]
    return cases + [pytest.param(lambda: MetricSpace.with_gram(FULL_V), True, id="non-diagonal")]


class TestWeightsPath:
    @pytest.mark.parametrize("case", PRODUCT_MODULES, ids=str)
    def test_built_modules_take_weights(self, case):
        module = rank3_cone(*case).algebra.clifford
        back = CliffordModule.from_json(module.to_json())
        for space in (module.v_space, module.s0_space, module.s1_space, back.v_space, back.s0_space):
            assert space.weights is not None and space.inv_weights is not None
            np.testing.assert_array_equal(np.diag(space.weights), space.gram)
            np.testing.assert_array_equal(np.diag(space.inv_weights), space.gram_inv)

    @pytest.mark.parametrize("space", [MetricSpace.euclidean(5), MetricSpace.canonical(2, 3), MetricSpace.canonical(0, 1)])
    def test_canonical_spaces_take_weights(self, space):
        assert space.weights is not None and space.inv_weights is not None

    def test_non_diagonal_gram_takes_dense_path(self):
        space = MetricSpace.with_gram(FULL_V)
        assert space.weights is None and space.inv_weights is None


class TestAgainstDenseGrams:
    @pytest.mark.parametrize("make,dense", _space_cases())
    def test_ip(self, make, dense):
        space = make()
        x, y = np.random.default_rng(1).uniform(-1, 1, (2, 6, space.dim))
        _equal(space.ip(x, y), dense_ip(space, x, y), dense)
        _equal(space.ip(x[0], y[0]), dense_ip(space, x[0], y[0]), dense)
        _equal(space.norm_sq(x), dense_ip(space, x, x), dense)

    @pytest.mark.parametrize("make,dense", _module_cases())
    def test_gamma_pairing(self, make, dense):
        alg = vc.rank3_special(make())
        x13 = np.random.default_rng(2).uniform(-1, 1, (5, alg.dim((1, 3))))
        _equal(alg.clifford.gamma_pairing(x13), dense_gamma_pairing(alg, x13), dense)
        _equal(alg.clifford.gamma_pairing(x13[0]), dense_gamma_pairing(alg, x13[0]), dense)

    @pytest.mark.parametrize("dual", [False, True], ids=["special", "dual"])
    @pytest.mark.parametrize("make,dense", _module_cases())
    def test_adjoints(self, make, dense, dual):
        alg = vc.rank3_special(make())
        alg = vc.dual_algebra(alg) if dual else alg
        rng = np.random.default_rng(3)
        x12, x13, x23 = (rng.uniform(-1, 1, (5, alg.dim(k))) for k in ((1, 2), (1, 3), (2, 3)))
        for sl in (slice(None), 0):  # a stack and one point
            _equal(alg.mult_flat_right(x13[sl], x23[sl]), dense_flat_product(alg, x13[sl], x23[sl], (1, 2)), dense)
            _equal(alg.mult_flat_left(x12[sl], x13[sl]), dense_flat_product(alg, x13[sl], x12[sl], (2, 3)), dense)

    @pytest.mark.parametrize("make,dense", _module_cases())
    def test_clifford_bilinear(self, make, dense):
        # the gathered oracle with dense Grams (the algebra's mult_flat_left),
        # and the einsum over the dense gammas at the non-diagonal bound
        module = make()
        alg = vc.rank3_special(module)
        s1, s0 = np.random.default_rng(4).uniform(-1, 1, (2, 5, module.dim_s))
        for sl in (slice(None), 0):  # a stack and one point
            got = vc.clifford_bilinear(module, s1[sl], s0[sl])
            _equal(got, dense_flat_product(alg, s1[sl], s0[sl], (2, 3)), dense)
            assert rel_to_scale(got, dense_clifford_bilinear(module, s1[sl], s0[sl])) <= 1e-12

    @pytest.mark.parametrize("make,dense", _module_cases())
    def test_clifford_mult_adjoint(self, make, dense):
        # the gathered oracle with dense Grams (the algebra's mult_flat_right),
        # and mu_v^T over the dense gammas at the non-diagonal bound
        module = make()
        alg = vc.rank3_special(module)
        rng = np.random.default_rng(5)
        v, s1 = rng.uniform(-1, 1, (5, module.dim_v)), rng.uniform(-1, 1, (5, module.dim_s))
        _equal(vc.clifford_mult_adjoint(module, v, s1), dense_flat_product(alg, s1, v, (1, 2)), dense)
        for vi, s1i in zip(v, s1):
            got = vc.clifford_mult_adjoint(module, vi, s1i)
            _equal(got, dense_flat_product(alg, s1i, vi, (1, 2)), dense)
            assert rel_to_scale(got, dense_clifford_mult_adjoint(module, vi, s1i)) <= 1e-12

    @pytest.mark.parametrize("make,dense", _module_cases())
    def test_rank3_cubic_derivatives(self, make, dense):
        cone = vc.cone_from_algebra(vc.rank3_special(make()))
        rng = np.random.default_rng(6)
        for _ in range(3):
            q = vc.InvariantCubic(cone, tuple(rng.uniform(-1, 1, 3)))
            X = random_orbit_point(cone, rng)
            g, H = dense_cubic_derivatives(q, X, tensor=False)
            _equal(vc.gradient(q, X), g, dense)
            _equal(vc.cubic_hessian(q, X), H, dense)

    @pytest.mark.parametrize("make,dense", _space_cases())
    def test_rank2_cubic_derivatives(self, make, dense):
        cone = vc.cone_from_algebra(vc.rank2_algebra(make()))
        rng = np.random.default_rng(7)
        for _ in range(3):
            q = vc.InvariantCubic(cone, tuple(rng.uniform(-1, 1, 2)))
            X = random_orbit_point(cone, rng)
            g, H = dense_cubic_derivatives(q, X, tensor=False)
            _equal(vc.gradient(q, X), g, dense)
            _equal(vc.cubic_hessian(q, X), H, dense)
