"""Every refusal of the library on its own: each case builds what it needs,
calls one function on input it refuses, and checks the error type and
message."""

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli, clifford
from vinberg_cones.errors import DimensionMismatchError, ModuleTooLargeError, OutsideConeError, SpecError

from _support import rank2_cone, rank3_cone


def _spaces(*dims):
    return {key: vc.MetricSpace(d) for key, d in zip([(1, 2), (1, 3), (2, 3)], dims)}


def _dual_point(diag):
    dcone = rank3_cone(2).dual
    return dcone, vc.HermMatrix(dcone.algebra, diag, {})


CASES = {
    "algebra-rank-4": (
        lambda: vc.NilAlgebra(4, {}), SpecError, "only ranks 2 and 3 are supported"),
    "algebra-wrong-keys": (
        lambda: vc.NilAlgebra(2, {(1, 3): vc.MetricSpace(2)}), SpecError, r"spaces must be indexed by \[\(1, 2\)\]"),
    "algebra-rank-2-with-module": (
        lambda: vc.NilAlgebra(2, _spaces(1), vc.build_clifford_module(1)), SpecError, "rank-2 algebras have no product"),
    "algebra-rank-3-without-module": (
        lambda: vc.NilAlgebra(3, _spaces(1, 1, 1), kind="rank3-special"),
        SpecError, "rank-3 algebras need a Clifford module and a rank-3 kind"),
    "algebra-rank-3-without-kind": (
        lambda: vc.NilAlgebra(3, _spaces(1, 1, 1), vc.build_clifford_module(1)),
        SpecError, "rank-3 algebras need a Clifford module and a rank-3 kind"),
    "algebra-blocks-misfit-module": (
        lambda: vc.NilAlgebra(3, _spaces(4, 4, 3), vc.build_clifford_module(3), "rank3-dual"),
        DimensionMismatchError, r"block dimensions \(4, 4, 3\) do not fit the Clifford module"),
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
