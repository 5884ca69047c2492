"""Every refusal of the library on its own: each case builds what it needs,
calls one function on input it refuses, and checks the error type and
message."""

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli, clifford
from vinberg_cones.errors import DimensionMismatchError, ModuleTooLargeError, OutsideConeError, SpecError

from _support import rank2_cone, rank3_cone


def _dual_point(diag):
    dcone = rank3_cone(2).dual
    return dcone, vc.HermMatrix(dcone.algebra, diag, {})


# a (3, 2) perm table whose rows are permutations: dim_s = 2 with dim_v = 3,
# which needs a multiple of 4
_PERMS_3X2 = (np.array([[0, 1], [1, 0], [0, 1]]), np.ones((3, 2), dtype=np.int64))

CASES = {
    "algebra-rank-4": (
        lambda: vc.NilAlgebra("rank4"), SpecError, "kind must be 'rank2', 'rank3-special' or 'rank3-dual', got 'rank4'"),
    # the spaces dict an algebra once took is no dimension of W
    "algebra-wrong-keys": (
        lambda: vc.NilAlgebra("rank2", dim_w={(1, 2): vc.MetricSpace(2)}),
        DimensionMismatchError, r"a metric space needs an integer dim >= 1, got \{"),
    "algebra-rank-2-with-module": (
        lambda: vc.NilAlgebra("rank2", vc.build_clifford_module(1), 1), SpecError, "rank-2 algebras have no product"),
    "algebra-rank-2-dim-w-bool": (
        lambda: vc.NilAlgebra("rank2", dim_w=True), DimensionMismatchError, "needs an integer dim >= 1, got True"),
    "algebra-rank-3-without-module": (
        lambda: vc.NilAlgebra("rank3-special"), SpecError, "rank-3 algebras need a Clifford module and no dim_w"),
    "algebra-rank-3-without-kind": (
        lambda: vc.NilAlgebra(clifford=vc.build_clifford_module(1)),
        TypeError, "missing 1 required positional argument: 'kind'"),
    "algebra-rank-3-module-not-a-module": (
        lambda: vc.NilAlgebra("rank3-special", vc.build_clifford_module(1).to_json()),
        SpecError, "rank-3 algebras need a Clifford module and no dim_w"),
    # a block dimension beside the module that fixes them all
    "algebra-blocks-misfit-module": (
        lambda: vc.NilAlgebra("rank3-dual", vc.build_clifford_module(3), 4),
        SpecError, "rank-3 algebras need a Clifford module and no dim_w"),
    # the rank-2 algebra of a rank-3 kind, once accepted with a "rank3-special" dual
    "algebra-rank-2-of-rank-3-kind": (
        lambda: vc.NilAlgebra("rank3-dual", dim_w=3), SpecError, "rank-3 algebras need a Clifford module and no dim_w"),
    "module-dim-s-no-multiple": (
        lambda: vc.CliffordModule(tables=_PERMS_3X2),
        DimensionMismatchError, r"dim_s = 2 is no multiple of minimal_spinor_dim\(3\)"),
    "module-multiplicity-given": (
        lambda: vc.CliffordModule(tables=vc.build_clifford_module(1).monomial_tables[:2], multiplicity=-3),
        TypeError, "unexpected keyword argument 'multiplicity'"),
    # once accepted, and written back as "multiplicity": 5 for a dim_s = 4 module
    "module-json-wrong-multiplicity": (
        lambda: vc.CliffordModule.from_json({**vc.build_clifford_module(3).to_json(), "multiplicity": 5}),
        SpecError, "bad Clifford-module JSON: multiplicity 5, but its gammas have 1"),
    "algebra-rank-2-module": (
        lambda: rank2_cone(2).algebra._module, SpecError, "rank-2 algebra has no composable product"),
    "d-prime-on-dual": (
        lambda: vc.d_prime(*_dual_point([1.0, 1.0, 1.0])), SpecError, "d' is defined on rank-3 special cones"),
    "d-prime-on-rank-2": (
        lambda: vc.d_prime(rank2_cone(2), vc.herm_identity(rank2_cone(2).algebra)),
        SpecError, "d' is defined on rank-3 special cones"),
    "d-prime-via-dual-on-dual": (
        lambda: vc.d_prime_via_dual(*_dual_point([1.0, 1.0, 1.0])), SpecError, "d' is defined on rank-3 special cones"),
    "g-determinant-on-dual-at-x3-0": (
        lambda: vc.g_determinant_sq(*_dual_point([1.0, 1.0, 0.0])),
        OutsideConeError, "squared G-determinant undefined at x3 = 0"),
    # coefficients once read by float(): a string, a bool, a list
    "cubic-string-coefficients": (
        lambda: vc.InvariantCubic(rank3_cone(1), ("1", "0.5", "-0.25")),
        SpecError, "cubic coefficients must be real numbers, got"),
    "cubic-bool-coefficient": (
        lambda: vc.InvariantCubic(rank3_cone(1), (True, 0.5, -0.25)), SpecError, "must be real numbers"),
    "cubic-list-coefficient": (
        lambda: vc.InvariantCubic(rank3_cone(1), ([1.0], 0.5, -0.25)), SpecError, "must be real numbers"),
    # coefficients that len() and float() once refused with TypeError and OverflowError
    "cubic-coefficients-a-number": (
        lambda: vc.InvariantCubic(rank3_cone(1), 5), SpecError, "^rank-3 cubic needs 3 coefficients$"),
    "cubic-coefficients-none": (
        lambda: vc.InvariantCubic(rank2_cone(1), None), SpecError, "^rank-2 cubic needs 2 coefficients$"),
    "cubic-coefficient-beyond-float-range": (
        lambda: vc.InvariantCubic(rank3_cone(1), (10**400, 0, 0)),
        SpecError, "cubic coefficients must be finite, got one beyond float range"),
    # once made, and failing on first read with AttributeError
    "cone-of-no-algebra": (
        lambda: vc.ConeDescriptor("x"), SpecError, "a cone needs a NilAlgebra, got str"),
    "cone-from-no-algebra": (
        lambda: vc.cone_from_algebra(vc.build_clifford_module(1)),
        SpecError, "a cone needs a NilAlgebra, got CliffordModule"),
    "rank2-algebra-of-no-metric-space": (
        lambda: vc.rank2_algebra(5), SpecError, "a rank-2 algebra needs a MetricSpace, got int"),
    "rank2-family-string-eps": (
        lambda: vc.InvariantCubic.rank2_family(rank2_cone(1), "0.5"), SpecError, "must be real numbers"),
    "scan-string-eps2": (
        lambda: vc.scan_parameter_plane(rank3_cone(1), [0.0], ["0.5"]), SpecError, "must be real numbers"),
    "scan-non-number-eps1": (
        lambda: vc.scan_parameter_plane(rank3_cone(1), ["x"], [0.0]), SpecError, "must be real numbers"),
    "scan-bool-eps2": (
        lambda: vc.scan_parameter_plane(rank3_cone(1), [0.0], [False]), SpecError, "must be real numbers"),
    "grid-bool-lo": (
        lambda: vc.DiagonalGrid(lo=True, hi=10.0, n=3), SpecError, "grid needs finite 0 < lo <= hi, got lo=True"),
    "grid-bool-hi": (
        lambda: vc.DiagonalGrid(lo=0.5, hi=True, n=3), SpecError, "grid needs finite 0 < lo <= hi, got lo=0.5, hi=True"),
    "search-grid-bool-lo": (
        lambda: vc.SearchGrid(lo=True), SpecError, "grid needs finite 0 < lo <= hi, got lo=True"),
    "rank2-family-on-rank-3": (
        lambda: vc.InvariantCubic.rank2_family(rank3_cone(1), 0.5), SpecError, "rank2_family needs a rank-2 cone"),
    "rank3-family-on-rank-2": (
        lambda: vc.InvariantCubic.rank3_family(rank2_cone(1), 0.5, 0.5), SpecError, "rank3_family needs a rank-3 cone"),
    "eps-on-rank-3": (
        lambda: vc.InvariantCubic(rank3_cone(1), (1.0, 0.5, 0.5)).eps,
        SpecError, "eps defined for normalizable rank-2 cubics"),
    "eps-not-normalizable": (
        lambda: vc.InvariantCubic(rank2_cone(1), (1.0, 0.0)).eps,
        SpecError, "eps defined for normalizable rank-2 cubics"),
    "eps12-on-rank-2": (
        lambda: vc.InvariantCubic(rank2_cone(1), (1.0, 1.0)).eps12,
        SpecError, "eps12 defined for normalizable rank-3 cubics"),
    "eps12-not-normalizable": (
        lambda: vc.InvariantCubic(rank3_cone(1), (0.0, 1.0, 1.0)).eps12,
        SpecError, "eps12 defined for normalizable rank-3 cubics"),
    "scan-with-search-grid": (
        lambda: vc.scan_parameter_plane(rank3_cone(1), [0.0], [0.5], vc.SearchGrid()),
        SpecError, "parameter-plane scan samples a DiagonalGrid, got SearchGrid"),
    "sweep-with-search-grid": (
        lambda: vc.admissibility_on_diagonal(vc.InvariantCubic.rank3_family(rank3_cone(1), 1.0, 0.5), vc.SearchGrid()),
        SpecError, "the diagonal sweep samples a DiagonalGrid, got SearchGrid"),
    "local-search-with-diagonal-grid": (
        lambda: vc.find_locally_admissible_point(
            vc.InvariantCubic.rank3_family(rank3_cone(1), 1.0, 0.5), vc.DiagonalGrid()),
        SpecError, "local-admissibility search samples a SearchGrid, got DiagonalGrid"),
    "local-search-on-rank-2": (
        lambda: vc.find_locally_admissible_point(vc.InvariantCubic.rank2_family(rank2_cone(1), 0.5)),
        SpecError, "local-admissibility search is for rank-3 cones"),
    "mu-wrong-length": (
        lambda: vc.build_clifford_module(3).mu(np.ones(2)), DimensionMismatchError, "v has wrong dimension"),
    "minimal-spinor-dim-0": (
        lambda: vc.minimal_spinor_dim(0), DimensionMismatchError, "dim_v must be >= 1"),
    "minimal-spinor-dim-float": (
        lambda: vc.minimal_spinor_dim(2.5), DimensionMismatchError, r"dim_v must be an integer, got 2\.5"),
    "build-dim-v-float": (
        lambda: vc.build_clifford_module(2.0), DimensionMismatchError, r"dim_v must be an integer, got 2\.0"),
    "build-dim-v-bool": (
        lambda: vc.build_clifford_module(True), DimensionMismatchError, "dim_v must be an integer, got True"),
    "build-multiplicity-float": (
        lambda: vc.build_clifford_module(2, None, 1.5),
        DimensionMismatchError, r"multiplicity must be an integer, got 1\.5"),
    "verify-isometry-samples-float": (
        lambda: vc.verify_isometry(vc.build_clifford_module(2), 2.5),
        DimensionMismatchError, r"n_samples must be an integer, got 2\.5"),
    # refused before the spinor dimension, 16**(dim_v / 8), is computed
    "build-above-bound": (
        lambda: vc.build_clifford_module(vc.MAX_GAMMA_ENTRIES + 1),
        ModuleTooLargeError, f"^dim_v = {vc.MAX_GAMMA_ENTRIES + 1} exceeds MAX_GAMMA_ENTRIES"),
    "generators-negative-k": (
        lambda: clifford._cl_neg_generators(-1), ValueError, "k must be >= 0"),
    "json-writer-unserializable": (
        lambda: cli._fmt({"x": [1.0, object()]}), TypeError, "cannot serialize <class 'object'>"),
}


@pytest.mark.parametrize("make, error, message", CASES.values(), ids=CASES.keys())
def test_refused(make, error, message):
    with pytest.raises(error, match=message) as info:
        make()
    assert type(info.value) is error


def test_json_writer_writes_none_as_null():
    assert cli._fmt({"a": None, "b": [None, 1.5]}) == '{"a": null, "b": [null, 1.5]}'
