import hashlib
import json
import re

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli, clifford
from vinberg_cones.errors import (
    AlgebraMismatchError,
    CliffordRelationError,
    DimensionMismatchError,
    IndefiniteSignatureError,
    SpecError,
)

from _support import (
    FULL_S,
    FULL_V,
    PRODUCT_MODULES,
    Refused,
    dense_mult,
    dense_mult_flat_left,
    dense_mult_flat_right,
    ip,
    made,
    made_cone,
    max_block_error,
    per_block_draws,
    rank2_cone,
    rank3_cone,
    regauged_module,
)


def alg2(dim_w=1):
    return rank2_cone(dim_w).algebra


def alg3(dim_v=1, mult=1):
    return rank3_cone(dim_v, mult).algebra


class TestAlgebraConstruction:
    def test_rank2_dims(self):
        a = alg2(1)
        assert a.dim((1, 2)) == 1
        assert a.herm_dim == 3

    def test_rank2_herm_dim_counts_all_coordinates(self):
        assert alg2(9).herm_dim == 11

    def test_rank2_indefinite_flag(self):
        # no algebra carries a signature: a rank-2 spec with q > 0 is refused
        assert not hasattr(alg2(2), "is_euclidean")
        with pytest.raises(IndefiniteSignatureError):
            cli.parse_spec({"rank": 2, "dim_w": 2, "signature": [1, 1]})

    def test_rank3_dims(self):
        a = alg3(1)
        assert a.herm_dim == 6  # 3 + 1 + 1 + 1

    def test_rank3_octonionic_dimension(self):
        # 3 + 8 + 8 + 8 = 27, the dimension of 3x3 octonionic Hermitian matrices
        assert alg3(8).herm_dim == 27

    def test_rank3_product_matches_clifford_mult(self):
        a = alg3(4)
        mod = a.clifford
        rng = np.random.default_rng(0)
        for _ in range(20):
            s0 = rng.normal(size=mod.dim_s)
            v = rng.normal(size=mod.dim_v)
            np.testing.assert_allclose(
                a.mult(s0, v), vc.clifford_mult(mod, v, s0), atol=1e-13
            )

    def test_rank3_product_isometry(self):
        a = alg3(4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            s0 = rng.uniform(-1, 1, a.dim((1, 2)))
            v = rng.uniform(-1, 1, a.dim((2, 3)))
            out = a.mult(s0, v)
            assert ip(out, out) == pytest.approx(ip(s0, s0) * ip(v, v), abs=1e-12)

    def test_rank3_requires_equal_spinor_dims(self):
        # the module has one spinor dimension, its tables' dim_s, and the
        # algebra takes S0 and S1 from it: no block dimension can be given
        mod = vc.build_clifford_module(2)
        a = vc.rank3_special(mod)
        assert a.dim((1, 2)) == a.dim((1, 3)) == mod.dim_s and a.dim((2, 3)) == mod.dim_v
        assert not hasattr(a, "spaces")
        s, v = vc.MetricSpace.euclidean(mod.dim_s), vc.MetricSpace.euclidean(mod.dim_v)
        with pytest.raises(TypeError):
            vc.NilAlgebra(3, {(1, 2): s, (1, 3): vc.MetricSpace.euclidean(3), (2, 3): v}, mod, "rank3-special")
        with pytest.raises(SpecError, match="no dim_w"):
            vc.NilAlgebra("rank3-special", mod, 3)

    @pytest.mark.parametrize("kind", ["rank3-special", "rank3-dual"])
    def test_rank2_algebra_of_a_rank3_kind_refused(self, kind):
        # once accepted as NilAlgebra(2, {(1, 2): MetricSpace(3)}, kind=...):
        # a rank-2 algebra whose dual had kind "rank3-special" and whose JSON
        # named a rank-3 kind
        with pytest.raises(TypeError):
            vc.NilAlgebra(2, {(1, 2): vc.MetricSpace(3)}, kind=kind)
        with pytest.raises(SpecError, match="rank-3 algebras need a Clifford module and no dim_w"):
            vc.NilAlgebra(kind, dim_w=3)
        for alg in (vc.NilAlgebra("rank2", dim_w=3), vc.rank2_algebra(vc.MetricSpace(3))):
            assert (alg.rank, alg.kind, alg.clifford, alg._special) == (2, "rank2", None, False)
            assert (vc.dual_algebra(alg).kind, vc.dual_algebra(alg).to_json()["kind"]) == ("rank2", "rank2")

    def test_derived_from_the_defining_input(self):
        # kind plus dim_w or the module fix the rank, the blocks and the layout
        mod = vc.build_clifford_module(3, multiplicity=2)
        for alg, rank, dims in [
            (vc.NilAlgebra("rank2", dim_w=4), 2, {(1, 2): 4}),
            (vc.NilAlgebra("rank3-special", mod), 3, {(1, 2): 8, (1, 3): 8, (2, 3): 3}),
            (vc.NilAlgebra("rank3-dual", mod), 3, {(1, 2): 3, (1, 3): 8, (2, 3): 8}),
        ]:
            assert alg.rank == rank and {k: alg.dim(k) for k in alg.offdiag_keys} == dims
            assert alg.herm_dim == rank + sum(dims.values())
            assert alg.layout["diag"] == slice(0, rank) and alg.layout[alg.offdiag_keys[-1]].stop == alg.herm_dim
        assert vc.dual_algebra(vc.NilAlgebra("rank3-special", mod)).layout == vc.NilAlgebra("rank3-dual", mod).layout


# sha256 of json.dumps of the algebra's, its dual's and its module's to_json,
# as written when an algebra held one metric space per block and a module
# its multiplicity
PINNED_JSON = {
    "w3": (
        "ae0a82481221406053c235790b69966a20176995c44071b058b0a0afe1d8946d",
        "ae0a82481221406053c235790b69966a20176995c44071b058b0a0afe1d8946d",
        None,
    ),
    "d1": (
        "28b2f97d57d74bedd3452e2729692029c279832f8852071a0ec8e4eb1b3762b2",
        "c074917ac6e5bb8458431abd9f2a1ac37a99265b47ea4d4a070e31e92cbe5bba",
        "93e2f923ab3f764e84e394c2490e9c46c3df144b8e8a25062d8b5bfb544e7a37",
    ),
    "d3x2": (
        "bb55154b0cd80772055aec2e793d9297a44d1f9acc299a9e7171158e3b64de00",
        "14c41ff5b85d2b40bbd24cffe80bc5797e6399a15e659bce4788aec232ae1e20",
        "a32aa467d7b6b5581a8e377c0b261e4207c9d6fe860ed159481fdae94d156f19",
    ),
    "d8": (
        "7ea88461c780e72df6f01362a1c3bdd8c17d4dcb1432e157982cb532292ccedc",
        "881e7723cf646089b4c0bb3010e2905efbd1315c533a7a797b3484eeef2f5eef",
        "326a9c6eb4b07f4cbe9e82f78517d2d4088ff2e8669c06dafb03a6b7c7c998bf",
    ),
}


class TestJsonBytes:
    @pytest.mark.parametrize("tag", PINNED_JSON)
    def test_to_json_keeps_its_bytes(self, tag):
        alg = alg2(3) if tag == "w3" else alg3(*map(int, tag[1:].split("x")))
        digest = lambda obj: hashlib.sha256(json.dumps(obj).encode()).hexdigest()  # noqa: E731
        got = (digest(alg.to_json()), digest(vc.dual_algebra(alg).to_json()))
        module = alg.clifford
        if module is not None:
            back = vc.CliffordModule.from_json(json.loads(json.dumps(module.to_json())))
            assert digest(back.to_json()) == digest(module.to_json())
        assert got + (module and digest(module.to_json()),) == PINNED_JSON[tag]

    def test_spaces_are_written_from_the_block_dimensions(self):
        assert json.dumps(alg2(3).to_json()) == (
            '{"rank": 2, "kind": "rank2", "spaces": {"12": {"dim": 3, "signature": [3, 0]}}}'
        )
        spaces = {"12": {"dim": 3, "signature": [3, 0]}, "13": {"dim": 8, "signature": [8, 0]},
                  "23": {"dim": 8, "signature": [8, 0]}}
        assert vc.dual_algebra(alg3(3, 2)).to_json()["spaces"] == spaces


class TestDualAlgebra:
    def test_rank2_dual_keeps_dims(self):
        a = alg2(5)
        d = vc.dual_algebra(a)
        assert d.dim((1, 2)) == 5

    @pytest.mark.parametrize("dim_v,mult", [(2, 1), (1, 2)])
    def test_rank3_dual_permutes_slots(self, dim_v, mult):
        a = alg3(dim_v, mult)
        mod = a.clifford
        d = vc.dual_algebra(a)
        assert d.dim((1, 2)) == mod.dim_v
        assert d.dim((1, 3)) == mod.dim_s
        assert d.dim((2, 3)) == mod.dim_s
        assert d.kind == "rank3-dual"

    def test_dual_is_involution_object_level(self):
        a = alg3(3)
        assert vc.dual_algebra(vc.dual_algebra(a)) is a

    def test_dual_product_reverses_order(self):
        a = alg3(4)
        d = vc.dual_algebra(a)
        rng = np.random.default_rng(2)
        v = rng.normal(size=d.dim((1, 2)))
        s0 = rng.normal(size=d.dim((2, 3)))
        np.testing.assert_allclose(d.mult(v, s0), a.mult(s0, v), atol=1e-14)


def _rel_err(got, want) -> float:
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestGathersAgainstDenseTensor:
    @pytest.mark.parametrize("dual", [False, True], ids=["special", "dual"])
    @pytest.mark.parametrize("stack", [(), (5,)], ids=["point", "stack"])
    @pytest.mark.parametrize("case", PRODUCT_MODULES, ids=str)
    def test_products(self, case, stack, dual):
        if (cone := made_cone(case)) is None:
            return
        alg = cone.algebra
        if dual:
            alg = vc.dual_algebra(alg)
        rng = np.random.default_rng(case[0])
        x12, x13, x23 = (rng.uniform(-1, 1, stack + (alg.dim(k),)) for k in ((1, 2), (1, 3), (2, 3)))
        assert _rel_err(alg.mult(x12, x23), dense_mult(alg, x12, x23)) <= 1e-12
        assert _rel_err(alg.mult_flat_right(x13, x23), dense_mult_flat_right(alg, x13, x23)) <= 1e-12
        assert _rel_err(alg.mult_flat_left(x12, x13), dense_mult_flat_left(alg, x12, x13)) <= 1e-12

    @pytest.mark.parametrize("case", [(3, 1, None), (4, 1, (1, 3)), (3, 2, None)], ids=str)
    def test_tables_rebuild_the_gammas(self, case):
        if (cone := made_cone(case)) is None:
            return
        module = cone.algebra.clifford
        perm, val, inv, inv_val = module.monomial_tables
        n, d = perm.shape
        dense = np.zeros((n, d, d))
        dense[np.arange(n)[:, None], perm, np.arange(d)] = val
        np.testing.assert_array_equal(dense, module.gammas)
        np.testing.assert_array_equal(np.take_along_axis(perm, inv, axis=1), np.tile(np.arange(d), (n, 1)))
        np.testing.assert_array_equal(dense[np.arange(n)[:, None], np.arange(d), inv], inv_val)


class TestMonomialGammas:
    """A module is its index tables, which exist only for monomial gammas
    (one nonzero per row and per column): from_json, the one dense entry
    point, reads a dense stack into them or rejects it."""

    def module_with(self, gamma_1):
        """The module of the tables that from_json reads off [I, gamma_1],
        without its relation check."""
        tables = clifford._monomial(np.stack([np.eye(2, dtype=int), gamma_1]))
        return vc.CliffordModule(tables=tables)

    @pytest.mark.parametrize(
        "gamma_1",
        [[[1, 1], [-1, 1]], [[1, 0], [1, 0]], [[0, 0], [0, 1]]],
        ids=["dense", "empty-column", "empty-row"],
    )
    def test_non_monomial_stack_rejected(self, gamma_1):
        with pytest.raises(CliffordRelationError, match="Clifford relation failed"):
            self.module_with(np.array(gamma_1))
        obj = {**vc.build_clifford_module(2).to_json(), "gammas": [np.eye(2, dtype=int).tolist(), gamma_1]}
        with pytest.raises(CliffordRelationError, match="Clifford relation failed"):
            vc.CliffordModule.from_json(obj)

    def test_scaled_entry_is_monomial(self):
        # the self-test's --corrupt-gamma module: one entry bumped to 2
        module = self.module_with(np.array([[0, 2], [-1, 0]]))
        alg = vc.rank3_special(module)
        np.testing.assert_array_equal(alg.mult([1.0, 1.0], [0.0, 1.0]), [2.0, -1.0])
        np.testing.assert_array_equal(dense_mult(alg, [1.0, 1.0], [0.0, 1.0]), [2.0, -1.0])


class TestTriangularProduct:
    @pytest.mark.parametrize("algebra", [alg2(3), alg3(2)])
    def test_identity_is_unit(self, algebra):
        rng = np.random.default_rng(3)
        A = vc.random_triangular(algebra, rng)
        I = vc.identity_triangular(algebra)
        assert max_block_error(vc.triangular_product(A, I), A) == 0.0
        assert max_block_error(vc.triangular_product(I, A), A) == 0.0

    @pytest.mark.parametrize("algebra", [alg2(4), alg3(4)])
    def test_associativity(self, algebra):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A, B, C = (vc.random_triangular(algebra, rng) for _ in range(3))
            left = vc.triangular_product(vc.triangular_product(A, B), C)
            right = vc.triangular_product(A, vc.triangular_product(B, C))
            assert max_block_error(left, right) <= 1e-12

    def test_rank2_example(self):
        a = alg2(1)
        A = vc.TriangularElement(a, [1.0, 2.0], {(1, 2): [1.0]})
        I = vc.identity_triangular(a)
        assert max_block_error(vc.triangular_product(A, I), A) == 0.0

    def test_algebra_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        A = vc.random_triangular(alg2(2), rng)
        B = vc.random_triangular(alg2(3), rng)
        with pytest.raises(AlgebraMismatchError):
            vc.triangular_product(A, B)

    def test_anti_transpose_is_antihomomorphism(self):
        a = alg3(4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = vc.random_triangular(a, rng)
            B = vc.random_triangular(a, rng)
            lhs = vc.anti_transpose(vc.triangular_product(A, B))
            rhs = vc.triangular_product(vc.anti_transpose(B), vc.anti_transpose(A))
            assert max_block_error(lhs, rhs) <= 1e-12


class TestOrbitMap:
    def test_identity_maps_to_identity(self):
        a = alg3(1)
        X = vc.herm_from_triangular(vc.identity_triangular(a))
        np.testing.assert_array_equal(X.diag, np.ones(3))
        for k in a.offdiag_keys:
            np.testing.assert_array_equal(X.offdiag[k], 0.0)

    def test_rank2_hand_example(self):
        # A = [[1, 1], [0, 2]] -> A A^* = [[2, 2], [2, 4]]
        a = alg2(1)
        A = vc.TriangularElement(a, [1.0, 2.0], {(1, 2): [1.0]})
        X = vc.herm_from_triangular(A)
        np.testing.assert_allclose(X.diag, [2.0, 4.0])
        np.testing.assert_allclose(X.offdiag[(1, 2)], [2.0])

    def test_rank3_star_orbit_matches_anti_transpose_route(self):
        # A^* A computed directly equals t'(t'(A) t'(A)^*)
        a = alg3(4)
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = vc.random_triangular(a, rng)
            direct = vc.herm_from_triangular_star(A)
            B = vc.anti_transpose(A)
            routed = vc.anti_transpose(vc.herm_from_triangular(B))
            np.testing.assert_allclose(
                direct.to_vector(), routed.to_vector(), atol=1e-12
            )

    def test_requires_positive_diagonal(self):
        a = alg2(1)
        A = vc.TriangularElement(a, [1.0, -2.0], {})
        assert not A.in_group
        with pytest.raises(SpecError):
            vc.herm_from_triangular(A)

    def test_last_diagonal_is_square(self):
        a = alg3(2)
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = vc.random_triangular(a, rng)
            X = vc.herm_from_triangular(A)
            assert X.diag[-1] == pytest.approx(A.diag[-1] ** 2)
            assert X.diag[-1] > 0


class TestAntiTranspose:
    def test_identity_fixed(self):
        a = alg3(1)
        X = vc.herm_identity(a)
        Y = vc.anti_transpose(X)
        np.testing.assert_array_equal(Y.diag, np.ones(3))

    def test_rank2_diag_swap(self):
        a = alg2(2)
        X = vc.HermMatrix(a, [1.0, 5.0], {(1, 2): [0.5, -0.5]})
        Y = vc.anti_transpose(X)
        np.testing.assert_array_equal(Y.diag, [5.0, 1.0])
        np.testing.assert_array_equal(Y.offdiag[(1, 2)], [0.5, -0.5])

    def test_involution(self):
        a = alg3(3)
        rng = np.random.default_rng(9)
        X = vc.herm_from_triangular(vc.random_triangular(a, rng))
        back = vc.anti_transpose(vc.anti_transpose(X))
        assert back.algebra is a
        np.testing.assert_array_equal(back.to_vector(), X.to_vector())

    def test_preserves_pairing(self):
        a = alg3(2)
        rng = np.random.default_rng(10)
        for _ in range(10):
            X = vc.herm_from_triangular(vc.random_triangular(a, rng))
            Y = vc.herm_from_triangular(vc.random_triangular(a, rng))
            lhs = vc.herm_pairing(X, Y)
            rhs = vc.herm_pairing(vc.anti_transpose(X), vc.anti_transpose(Y))
            assert lhs == pytest.approx(rhs, rel=1e-13)


class TestVectorAndJson:
    def test_vector_roundtrip(self):
        a = alg3(2)
        rng = np.random.default_rng(11)
        X = vc.herm_from_triangular(vc.random_triangular(a, rng))
        Y = vc.herm_from_vector(a, X.to_vector())
        np.testing.assert_array_equal(Y.to_vector(), X.to_vector())

    def test_json_roundtrip(self):
        a = alg3(1)
        X = vc.HermMatrix(a, [2.0, 2.0, 2.0], {(1, 2): [1.0], (1, 3): [1.0], (2, 3): [1.0]})
        back = vc.herm_from_json(a, X.to_json())
        np.testing.assert_array_equal(back.to_vector(), X.to_vector())

    def test_triangular_json_schema(self):
        a = alg3(1)
        rng = np.random.default_rng(12)
        obj = vc.random_triangular(a, rng).to_json()
        assert set(obj) == {"rank", "diag", "offdiag"}
        assert set(obj["offdiag"]) == {"12", "13", "23"}

    def test_algebra_json_embeds_module(self):
        a = alg3(2)
        obj = a.to_json()
        assert obj["kind"] == "rank3-special"
        assert obj["clifford"]["dim_v"] == 2
        assert obj["spaces"]["23"]["dim"] == 2

    def test_json_rank_mismatch(self):
        with pytest.raises(SpecError):
            vc.herm_from_json(alg2(1), {"rank": 3, "diag": [1, 1, 1]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"31": [1.0]}},  # misspelled block
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"12": [0.0]}, "note": 1},
            {"rank": 3, "diag": [1, float("nan"), 1]},
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"23": [float("inf")]}},
            {"rank": 3, "diag": [1, 1, 1], "offdiag": [[0.0]]},
            {"rank": 3.5, "diag": [1, 1, 1]},
            {"rank": "3", "diag": [1, 1, 1]},
            [1, 1, 1],
            {"rank": 3, "diag": None},
            {"rank": 3.0, "diag": [1, 1, 1]},
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"12": None}},
            {"rank": 3, "diag": [[1, 1, 1]]},  # a stack of one point
            {"rank": 3, "diag": [1, 2, "3"]},  # strings and booleans are not numbers
            {"rank": 3, "diag": [True, 2, 3]},
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"12": ["0.5"]}},
            {"rank": 3, "diag": [1, 1, 1], "offdiag": {"13": [True]}},
            {"rank": 3, "diag": [1, 1, 10**400]},  # beyond float range
        ],
    )
    def test_json_rejects_unknown_keys_and_non_finite(self, obj):
        with pytest.raises(SpecError):
            vc.herm_from_json(alg3(1), obj)

    def test_json_missing_block_is_zero(self):
        X = vc.herm_from_json(alg3(1), {"rank": 3, "diag": [1, 2, 3], "offdiag": {"13": [0.5]}})
        np.testing.assert_array_equal(X.to_vector(), [1, 2, 3, 0, 0.5, 0])

    def test_entries_are_immutable(self):
        X = vc.herm_identity(alg3(1))
        with pytest.raises(ValueError):
            X.diag[0] = 5.0


class TestFlatStorage:
    @pytest.mark.parametrize("algebra", [alg2(4), alg3(1), alg3(4), alg3(3, mult=2)])
    def test_layout_tiles_the_vector_in_block_order(self, algebra):
        lay = algebra.layout
        assert list(lay) == ["diag", *algebra.offdiag_keys]
        assert lay["diag"] == slice(0, algebra.rank)
        stops = [sl.stop for sl in lay.values()]
        assert [sl.start for sl in lay.values()] == [0, *stops[:-1]]
        assert stops[-1] == algebra.herm_dim
        for key in algebra.offdiag_keys:
            assert lay[key].stop - lay[key].start == algebra.dim(key)

    @pytest.mark.parametrize("make", [vc.herm_from_triangular, lambda A: A])
    def test_blocks_are_read_only_views_of_the_vector(self, make):
        a = alg3(4)
        X = make(vc.random_triangular(a, np.random.default_rng(13)))
        vec = X.to_vector()
        assert not vec.flags.writeable
        np.testing.assert_array_equal(vec[a.layout["diag"]], X.diag)
        for key in a.offdiag_keys:
            assert np.shares_memory(X.offdiag[key], vec)
            np.testing.assert_array_equal(vec[a.layout[key]], X.offdiag[key])
            with pytest.raises(ValueError):
                X.offdiag[key][0] = 1.0
        assert np.shares_memory(X.diag, vec)

    def test_from_vector_does_not_alias_its_input(self):
        a = alg3(2)
        vec = np.arange(a.herm_dim, dtype=float)
        X = vc.herm_from_vector(a, vec)
        vec[:] = -1.0
        np.testing.assert_array_equal(X.to_vector(), np.arange(a.herm_dim))
        assert vec.flags.writeable

    def test_constructor_matches_flat_vector(self):
        a = alg3(2)
        X = vc.HermMatrix(a, [1.0, 2.0, 3.0], {(2, 3): [4.0, 5.0]})
        expect = np.zeros(a.herm_dim)
        expect[:3] = [1.0, 2.0, 3.0]
        expect[a.layout[(2, 3)]] = [4.0, 5.0]
        np.testing.assert_array_equal(X.to_vector(), expect)

    @pytest.mark.parametrize("diag, off", [([1.0, 1.0], {}), ([1.0, 1.0, 1.0], {(1, 2): [1.0, 2.0]})])
    def test_wrong_block_shape_rejected(self, diag, off):
        with pytest.raises(DimensionMismatchError):
            vc.HermMatrix(alg3(1), diag, off)

    @pytest.mark.parametrize("key", [(2, 1), "12", (1, 4), "diag"])
    @pytest.mark.parametrize("container", [vc.HermMatrix, vc.TriangularElement])
    def test_misspelled_block_rejected(self, container, key):
        # a misspelled block was read as zeros, and "diag" replaced the diagonal
        with pytest.raises(DimensionMismatchError, match=re.escape(repr(key))):
            container(alg3(2), [1.0, 2.0, 3.0], {key: [5.0, 5.0] if key != "diag" else [7.0, 8.0, 9.0]})

    def test_attributes_cannot_be_rebound(self):
        X = vc.herm_identity(alg3(1))
        with pytest.raises(AttributeError):
            X.diag = np.zeros(3)

    def test_scaled_and_json_keep_the_layout(self):
        a = alg3(2)
        X = vc.herm_from_triangular(vc.random_triangular(a, np.random.default_rng(14)))
        np.testing.assert_array_equal(X.scaled(2.0).to_vector(), 2.0 * X.to_vector())
        A = vc.random_triangular(a, np.random.default_rng(15))
        assert A.to_json() == vc.HermMatrix(a, A.diag, A.offdiag).to_json()

    def test_anti_transpose_serves_both_containers(self):
        a = alg3(4)
        A = vc.random_triangular(a, np.random.default_rng(16))
        B = vc.anti_transpose(A)
        assert isinstance(B, vc.TriangularElement)
        assert B.algebra is vc.dual_algebra(a)
        np.testing.assert_array_equal(B.to_vector(), A.to_vector()[a.anti_transpose_index])
        assert not hasattr(vc, "anti_transpose_triangular")
        np.testing.assert_array_equal(B.diag, A.diag[::-1])
        np.testing.assert_array_equal(B.offdiag[(1, 2)], A.offdiag[(2, 3)])
        np.testing.assert_array_equal(B.offdiag[(1, 3)], A.offdiag[(1, 3)])
        np.testing.assert_array_equal(B.offdiag[(2, 3)], A.offdiag[(1, 2)])

    def test_pairing_checks_the_algebra(self):
        X = vc.herm_identity(alg3(1))
        Y = vc.herm_identity(alg3(2))
        with pytest.raises(AlgebraMismatchError):
            vc.herm_pairing(X, Y)

def blockwise_product(A, B):
    """A . B block by block: a_ii b_ij + a_ij b_jj, plus a_ik . b_kj for i < k < j."""
    alg = A.algebra
    off = {}
    for (i, j) in alg.offdiag_keys:
        acc = A.diag[..., i - 1, None] * B.offdiag[(i, j)] + A.offdiag[(i, j)] * B.diag[..., j - 1, None]
        for k in range(i + 1, j):
            acc = acc + alg.mult(A.offdiag[(i, k)], B.offdiag[(k, j)])
        off[(i, j)] = acc
    return vc.TriangularElement(alg, A.diag * B.diag, off)


def blockwise_orbit_point(A, star):
    """A . A^* (A^* . A when ``star``) block by block, through the constructor."""
    alg, a = A.algebra, A.diag
    sq, n = (a * a).T, vc.nilalgebra.block_norms(A)
    if alg.rank == 2:
        diag = (sq[0], sq[1] + n[0]) if star else (sq[0] + n[0], sq[1])
        return vc.HermMatrix(alg, np.array(diag).T, {(1, 2): a[..., 0 if star else 1, None] * A.offdiag[(1, 2)]})
    t0, t1, w = (A.offdiag[k] for k in alg.offdiag_keys)
    if star:
        diag = (sq[0], sq[1] + n[0], sq[2] + n[1] + n[2])
        e23 = a[..., 1:2] * w + alg.mult_flat_left(t0, t1)
        off = {(1, 2): a[..., 0:1] * t0, (1, 3): a[..., 0:1] * t1, (2, 3): e23}
    else:
        diag = (sq[0] + n[0] + n[1], sq[1] + n[2], sq[2])
        s0 = a[..., 1:2] * t0 + alg.mult_flat_right(t1, w)
        off = {(1, 2): s0, (1, 3): a[..., 2:3] * t1, (2, 3): a[..., 2:3] * w}
    return vc.HermMatrix(alg, np.array(diag).T, off)


# the two full-gram algebras, on non-diagonal Gram matrices, and the split
# one are refused: each test on them is a negative control
FLAT_WRITE_ALGEBRAS = {
    "w1": lambda: alg2(1),
    "w4": lambda: alg2(4),
    "w3-full-gram": Refused(lambda: vc.rank2_algebra(vc.MetricSpace(FULL_V))),
    "d1": lambda: alg3(1),
    "d8": lambda: alg3(8),
    "d3x2": lambda: alg3(3, mult=2),
    "dual-d4": lambda: vc.dual_algebra(alg3(4)),
    "split-d2": Refused(lambda: rank3_cone(2, 1, (1, 1)).algebra),
    "full-gram": Refused(lambda: vc.rank3_special(regauged_module(FULL_V, FULL_S))),
}


@pytest.mark.parametrize("tag", FLAT_WRITE_ALGEBRAS)
class TestFlatWrites:
    """The orbit maps and the product write one flat vector; each entry has
    the bits of the blockwise formula, for single points and for stacks."""

    def elements(self, alg, seed):
        rng = np.random.default_rng(seed)
        singles = [vc.random_triangular(alg, rng) for _ in range(4)]
        stack = vc.TriangularElement._from_flat(alg, per_block_draws(alg, rng, 5))
        return [*singles, stack]

    def test_orbit_maps(self, tag):
        if (alg := made(FLAT_WRITE_ALGEBRAS[tag])) is None:
            return
        for A in self.elements(alg, 21):
            for star, f in ((False, vc.herm_from_triangular), (True, vc.herm_from_triangular_star)):
                got = f(A)
                assert np.array_equal(got.to_vector(), blockwise_orbit_point(A, star).to_vector()), star
                assert not got.to_vector().flags.writeable

    def test_product(self, tag):
        if (alg := made(FLAT_WRITE_ALGEBRAS[tag])) is None:
            return
        As, Bs = self.elements(alg, 22), self.elements(alg, 23)
        for A, B in zip(As, Bs):
            got = vc.triangular_product(A, B)
            assert np.array_equal(got.to_vector(), blockwise_product(A, B).to_vector())
            assert not got.to_vector().flags.writeable
        # a single point times a stack broadcasts like the blockwise formula
        for A, B in ((As[0], Bs[-1]), (As[-1], Bs[0])):
            want = blockwise_product(A, B).to_vector()
            assert want.shape == (5, A.algebra.herm_dim)
            assert np.array_equal(vc.triangular_product(A, B).to_vector(), want)

    def test_random_triangular_draws_block_by_block(self, tag):
        if (alg := made(FLAT_WRITE_ALGEBRAS[tag])) is None:
            return
        got_rng, want_rng = np.random.default_rng(24), np.random.default_rng(24)
        got = np.array([vc.random_triangular(alg, got_rng).to_vector() for _ in range(3)])
        assert np.array_equal(got, per_block_draws(alg, want_rng, 3))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
