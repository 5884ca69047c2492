import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli, clifford
from vinberg_cones.clifford import CliffordModule, MetricSpace
from vinberg_cones.errors import (
    CliffordRelationError,
    DimensionMismatchError,
    ModuleTooLargeError,
    SpecError,
)

from _support import (
    PRODUCT_MODULES,
    SCALED_S,
    SCALED_V,
    corrupt_stack,
    corrupt_tables,
    dense_check_clifford_relations,
    dense_check_j_family,
    dense_cl_neg_generators,
    dense_from_tables,
    dense_metric_fields,
    dense_module_stack,
    dense_mu,
    dense_polarized_residual,
    hurwitz_radon,
    min_dim_by_radon,
    rank3_cone,
    table_check_clifford_relations,
    table_check_j_family,
)


class TestMetricSpace:
    def test_euclidean_canonical(self):
        s = MetricSpace.euclidean(3)
        assert s.signature == (3, 0)
        np.testing.assert_array_equal(s.gram, np.eye(3))
        assert s.is_euclidean

    def test_indefinite_canonical(self):
        s = MetricSpace.canonical(1, 2)
        assert s.signature == (1, 2)
        assert not s.is_euclidean
        assert s.ip([1, 0, 0], [1, 0, 0]) == 1.0
        assert s.ip([0, 1, 0], [0, 1, 0]) == -1.0

    def test_rejects_wrong_signature(self):
        with pytest.raises(SpecError):
            MetricSpace(2, (2, 0), np.diag([1.0, -1.0]))

    def test_rejects_degenerate_gram(self):
        with pytest.raises(SpecError):
            MetricSpace(2, (1, 1), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(SpecError):
            MetricSpace(2, (2, 0), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestConstruction:
    # standard period-8 table of minimal graded-module dimensions
    @pytest.mark.parametrize(
        "dim_v,expected",
        [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (7, 8), (8, 8), (9, 16)]
        + [(10, 32), (11, 64), (12, 64), (13, 128), (16, 128), (17, 256)],
    )
    def test_minimal_spinor_dims(self, dim_v, expected):
        mod = vc.build_clifford_module(dim_v)
        assert mod.dim_s == expected
        assert vc.minimal_spinor_dim(dim_v) == expected

    @pytest.mark.parametrize("dim_v", range(1, 33))
    def test_dims_match_hurwitz_radon_bound(self, dim_v):
        # independent arithmetic oracle: gamma families need dim_v - 1
        # anticommuting complex structures, so dim S is the smallest d with
        # rho(d) >= dim_v
        assert vc.minimal_spinor_dim(dim_v) == min_dim_by_radon(dim_v)
        assert vc.minimal_spinor_dim(dim_v, (dim_v - 1, 1)) == 2 * min_dim_by_radon(dim_v)

    def test_size_bound_rejects_before_building(self):
        clifford._cl_neg_generators.cache_clear()
        with pytest.raises(ModuleTooLargeError):
            vc.build_clifford_module(24)
        with pytest.raises(ModuleTooLargeError):
            vc.build_clifford_module(18, signature=(17, 1))
        assert clifford._cl_neg_generators.cache_info().currsize == 0

    def test_size_bound_counts_multiplicity(self):
        # 9 * (16 m)^2 entries: m = 60 is under the bound, m = 61 above it
        assert 9 * (vc.minimal_spinor_dim(9) * 60) ** 2 <= vc.MAX_GAMMA_ENTRIES
        with pytest.raises(ModuleTooLargeError):
            vc.build_clifford_module(9, multiplicity=61)

    def test_no_small_sign_matrix_family_below_minimum(self):
        # brute-force representation search: in dimensions 1-3 there is no
        # pair of anticommuting skew-orthogonal sign matrices, certifying
        # the jump to dim 4 at dim_v = 3
        for d in (1, 2, 3):
            valid = []
            for entries in itertools.product((-1, 0, 1), repeat=d * d):
                J = np.array(entries).reshape(d, d)
                if np.array_equal(J.T, -J) and np.array_equal(J.T @ J, np.eye(d, dtype=int)):
                    valid.append(J)
            pairs = [
                (a, b)
                for a in valid
                for b in valid
                if np.array_equal(a @ b, -(b @ a))
            ]
            assert not pairs, f"unexpected anticommuting pair in dim {d}"

    def test_batched_left_multiplication_matches_per_column(self):
        # the tables of one batched _cd_mult product, and of the period-8
        # recursion on them, against the dense generators built column by
        # column, one _cd_mult per basis vector
        for k in range(1, 16):
            perm, sign = clifford._cl_neg_generators(k)
            assert perm.shape == sign.shape == (k, vc.minimal_spinor_dim(k + 1))
            assert perm.dtype == sign.dtype == np.int64
            np.testing.assert_array_equal(dense_from_tables(perm, sign), np.stack(dense_cl_neg_generators(k)))

    def test_multiplicity_scales_dimension(self):
        mod = vc.build_clifford_module(3, multiplicity=3)
        assert mod.dim_s == 12
        assert mod.multiplicity == 3

    def test_entries_are_signs(self):
        for dim_v in (1, 2, 5, 8, 9):
            mod = vc.build_clifford_module(dim_v)
            assert set(np.unique(mod.gammas)) <= {-1, 0, 1}

    def test_deterministic_bit_identical(self):
        a = vc.build_clifford_module(6, multiplicity=2)
        b = vc.build_clifford_module(6, multiplicity=2)
        assert np.array_equal(a.gammas, b.gammas)
        np.testing.assert_array_equal(a.s0_space.gram, b.s0_space.gram)

    def test_rejects_zero_inputs(self):
        with pytest.raises(DimensionMismatchError):
            vc.build_clifford_module(0)
        with pytest.raises(DimensionMismatchError):
            vc.build_clifford_module(2, multiplicity=0)

    def test_indefinite_signature_doubles(self):
        mod = vc.build_clifford_module(2, signature=(1, 1))
        assert mod.dim_s == 2 * vc.build_clifford_module(2).dim_s
        assert not mod.is_euclidean
        assert mod.s0_space.signature == (2, 2)


class TestOperations:
    def test_scalar_module_identity_action(self):
        mod = vc.build_clifford_module(1)
        assert vc.clifford_mult(mod, [1.0], [1.0]) == pytest.approx(1.0)

    def test_scalar_module_isometry_values(self):
        mod = vc.build_clifford_module(1)
        out = vc.clifford_mult(mod, [2.0], [3.0])
        assert out @ out == pytest.approx(36.0)  # v^2 s^2 = 4 * 9

    def test_mult_is_bilinear(self):
        mod = vc.build_clifford_module(3)
        rng = np.random.default_rng(0)
        v, u = rng.normal(size=(2, 3))
        s, t = rng.normal(size=(2, mod.dim_s))
        left = vc.clifford_mult(mod, 2.0 * v + u, s - 3.0 * t)
        right = (
            2.0 * vc.clifford_mult(mod, v, s)
            - 6.0 * vc.clifford_mult(mod, v, t)
            + vc.clifford_mult(mod, u, s)
            - 3.0 * vc.clifford_mult(mod, u, t)
        )
        np.testing.assert_allclose(left, right, atol=1e-13)

    def test_mult_zero(self):
        mod = vc.build_clifford_module(4)
        out = vc.clifford_mult(mod, np.zeros(4), np.ones(mod.dim_s))
        np.testing.assert_array_equal(out, 0.0)

    def test_mult_preserves_unit_norm(self):
        mod = vc.build_clifford_module(2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            s = rng.normal(size=mod.dim_s)
            s /= np.linalg.norm(s)
            out = vc.clifford_mult(mod, v, s)
            assert out @ out == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", PRODUCT_MODULES, ids=str)
    def test_mu_scatter_matches_einsum(self, case):
        module = rank3_cone(*case).algebra.clifford
        rng = np.random.default_rng(case[0])
        for v in (rng.uniform(-1, 1, module.dim_v), np.eye(module.dim_v)[-1]):
            np.testing.assert_array_equal(module.mu(v), dense_mu(module, v))

    def test_mu_sums_gammas_that_share_an_entry(self):
        # monomial but not a Clifford module: both gammas fill entry (0, 0)
        space = MetricSpace.euclidean(2)
        module = CliffordModule(space, space, space, np.array([np.eye(2), [[3, 0], [0, -1]]], dtype=np.int64))
        np.testing.assert_array_equal(module.mu([0.5, 2.0]), [[6.5, 0.0], [0.0, -1.5]])

    def test_mult_dimension_mismatch(self):
        mod = vc.build_clifford_module(2)
        with pytest.raises(DimensionMismatchError):
            vc.clifford_mult(mod, [1.0, 0.0, 0.0], np.ones(mod.dim_s))

    def test_bilinear_scalar_case(self):
        mod = vc.build_clifford_module(1)
        assert vc.clifford_bilinear(mod, [2.0], [3.0]) == pytest.approx([6.0])

    def test_bilinear_zero(self):
        mod = vc.build_clifford_module(3)
        out = vc.clifford_bilinear(mod, np.ones(mod.dim_s), np.zeros(mod.dim_s))
        np.testing.assert_array_equal(out, 0.0)

    def test_bilinear_adjunction_identity(self):
        mod = vc.build_clifford_module(3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s1 = rng.uniform(-1, 1, mod.dim_s)
            s0 = rng.uniform(-1, 1, mod.dim_s)
            out = vc.clifford_bilinear(mod, s1, s0)
            for a in range(3):
                e = np.zeros(3)
                e[a] = 1.0
                lhs = mod.v_space.ip(out, e)
                rhs = mod.s1_space.ip(s1, vc.clifford_mult(mod, e, s0))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_mult_adjoint_identity(self):
        mod = vc.build_clifford_module(4)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(-1, 1, 4)
            s1 = rng.uniform(-1, 1, mod.dim_s)
            u = rng.uniform(-1, 1, mod.dim_s)
            adj = vc.clifford_mult_adjoint(mod, v, s1)
            lhs = mod.s0_space.ip(adj, u)
            rhs = mod.s1_space.ip(s1, vc.clifford_mult(mod, v, u))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("dim_v", range(1, 9))
    def test_isometry_euclidean(self, dim_v):
        mod = vc.build_clifford_module(dim_v)
        assert vc.verify_isometry(mod, 300, seed=5) <= 1e-12

    @pytest.mark.parametrize("signature", [(1, 1), (0, 1), (2, 1), (1, 2)])
    def test_isometry_indefinite(self, signature):
        mod = vc.build_clifford_module(sum(signature), signature=signature)
        assert vc.verify_isometry(mod, 300, seed=5) <= 1e-12

    @pytest.mark.parametrize("dim_v", [1, 3, 6, 8])
    def test_polarized_clifford_relation(self, dim_v):
        mod = vc.build_clifford_module(dim_v)
        g0, g1, gv = mod.s0_space.gram, mod.s1_space.gram, mod.v_space.gram
        gam = np.asarray(mod.gammas, dtype=float)
        for a in range(dim_v):
            for b in range(dim_v):
                lhs = gam[a].T @ g1 @ gam[b] + gam[b].T @ g1 @ gam[a]
                np.testing.assert_allclose(lhs, 2.0 * gv[a, b] * g0, atol=1e-12)

    def test_corrupted_gamma_detected(self):
        mod = vc.build_clifford_module(4)
        gam = np.array(mod.gammas)
        gam[0, 0, 0] += 1
        bad = CliffordModule(mod.v_space, mod.s0_space, mod.s1_space, gam)
        assert vc.verify_isometry(bad, 200, seed=0) > 0.1

    def test_exact_checks_survive_optimized_mode(self):
        # the integer relation checks must raise under `python -O`, which
        # strips assert statements: on a dense stack read as from_json reads
        # it, and on J and gamma tables with a flipped sign or swapped perm
        code = """
import sys
import numpy as np
from vinberg_cones import clifford
from vinberg_cones.errors import CliffordRelationError
perm, sign = (np.array(t) for t in clifford._cl_neg_generators(3))
flipped = sign.copy()
flipped[0, 0] *= -1
swapped = perm.copy()
swapped[0, [0, 1]] = swapped[0, [1, 0]]
mod = clifford.build_clifford_module(4)
gp, gv = mod.monomial_tables[:2]
gp, gs = np.array(gp), gv.astype(np.int64)
gs_flipped = gs.copy()
gs_flipped[1, 2] *= -1
gp_swapped = gp.copy()
gp_swapped[2, [0, 3]] = gp_swapped[2, [3, 0]]
gam = np.array(mod.gammas)
gam[0, 0, 0] += 1
g_v, g_s = mod.v_space.gram, np.eye(mod.dim_s)
checks = [
    lambda: clifford._check_j_family(perm, flipped),
    lambda: clifford._check_j_family(swapped, sign),
    lambda: clifford._check_clifford_relations(*clifford._monomial(gam, "Clifford relation failed"), g_v, g_s),
    lambda: clifford._check_clifford_relations(gp, gs_flipped, g_v, g_s),
    lambda: clifford._check_clifford_relations(gp_swapped, gs, g_v, g_s),
]
for check in checks:
    try:
        check()
    except CliffordRelationError as exc:
        print("raised", exc)
print("optimize", sys.flags.optimize)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[-1] == "optimize 1"
        assert lines[:-1] == ["raised J must be skew"] * 2 + ["raised Clifford relation failed"] * 3

    def test_signed_permutation_is_required(self):
        # an integral Lorentz transformation of x^2 + y^2 - z^2: the dense
        # relation holds, but the matrix is no signed permutation
        gamma = np.array([[[1, 2, 2], [2, 1, 2], [2, 2, 3]]])
        g_s = np.diag([1, 1, -1])
        dense_check_clifford_relations(gamma, np.eye(1), g_s)
        with pytest.raises(CliffordRelationError, match="Clifford relation failed"):
            table_check_clifford_relations(gamma, np.eye(1), g_s)

    def test_spinor_metric_must_be_diagonal(self):
        with pytest.raises(CliffordRelationError, match="diagonal"):
            table_check_clifford_relations(np.eye(2, dtype=np.int64)[None], np.eye(1), np.array([[2, 1], [1, 2]]))

    @pytest.mark.parametrize(
        "fam",
        [
            [2 * np.array([[0, 1], [-1, 0]])],
            [np.array([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])],
        ],
        ids=["scaled", "two-per-row"],
    )
    def test_j_family_rejects_non_permutations(self, fam):
        for check in (table_check_j_family, dense_check_j_family):
            with pytest.raises(CliffordRelationError, match="J must be orthogonal"):
                check(fam)

    def test_j_family_rejects_non_commuting_permutations(self):
        # two complex structures whose products J1 J2 and -J2 J1 carry the
        # same sign in every column but permute the basis differently
        def pairing(pairs):
            J = np.zeros((8, 8), dtype=np.int64)
            for i, k in pairs:
                J[k, i], J[i, k] = 1, -1
            return J

        fam = [
            pairing([(2, 0), (1, 5), (6, 3), (4, 7)]),
            pairing([(0, 4), (1, 7), (2, 3), (5, 6)]),
        ]
        for check in (table_check_j_family, dense_check_j_family):
            with pytest.raises(CliffordRelationError, match="anticommute"):
                check(fam)

    @pytest.mark.parametrize("dim_v, signature", [(3, None), (8, None), (3, (2, 1))])
    def test_verify_isometry_matches_per_sample_definition(self, dim_v, signature):
        # a corrupted module, so that the worst deviation is of order one:
        # one nonzero entry doubled keeps the gammas monomial
        mod = vc.build_clifford_module(dim_v, signature)
        gam = np.array(mod.gammas)
        gam[-1, np.flatnonzero(gam[-1, :, 0])[0], 0] *= 2
        bad = CliffordModule(mod.v_space, mod.s0_space, mod.s1_space, gam)
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, (50, bad.dim_v))
        s = rng.uniform(-1.0, 1.0, (50, bad.dim_s))
        want = max(
            abs(bad.s1_space.norm_sq(vc.clifford_mult(bad, vi, si)) - bad.v_space.norm_sq(vi) * bad.s0_space.norm_sq(si))
            for vi, si in zip(v, s)
        )
        assert want > 0.01
        assert vc.verify_isometry(bad, 50, seed=11) == pytest.approx(want, rel=1e-12)

    def test_verify_isometry_rejects_zero_samples(self):
        mod = vc.build_clifford_module(1)
        with pytest.raises(ValueError):
            vc.verify_isometry(mod, 0)


_CORRUPTIONS = (None, "bump", "flip-column", "swap-columns", "duplicate", "negate")
_MODULE_CASES = [(dim_v, None, 1) for dim_v in range(1, 18)] + [
    (3, (2, 1), 1),
    (4, (1, 3), 1),
    (8, (7, 1), 1),
    (5, (3, 2), 2),
    (5, None, 3),
    (2, (1, 1), 3),
]


@functools.lru_cache(maxsize=None)
def _module(dim_v, signature, mult):
    return vc.build_clifford_module(dim_v, signature, mult)


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the class is compared with the oracle's
        return type(exc)
    return None


class TestExactChecksAgainstDenseOracle:
    """The signed-permutation checks give the dense products' verdict."""

    @pytest.mark.parametrize("kind", _CORRUPTIONS)
    @pytest.mark.parametrize("case", _MODULE_CASES, ids=str)
    def test_relations(self, case, kind):
        mod = _module(*case)
        gam = np.asarray(mod.gammas)
        if kind is not None:
            gam = corrupt_stack(gam, kind, np.random.default_rng(_MODULE_CASES.index(case)))
        g_s = np.asarray(mod.s0_space.gram, dtype=np.int64)
        args = (gam, mod.v_space.gram, g_s)
        want = _outcome(dense_check_clifford_relations, *args)
        assert _outcome(table_check_clifford_relations, *args) is want
        if kind is None:
            assert want is None
        elif kind in ("bump", "duplicate") and case[0] > 1:
            assert want is CliffordRelationError

    @pytest.mark.parametrize("case", _MODULE_CASES, ids=str)
    def test_relation_residual(self, case):
        # the self-test's residual from the tables, bit for bit the dense
        # polarized loop's, on the module and on its --corrupt-gamma copy
        mod = _module(*case)
        for module in (mod, cli._corrupt_gamma(mod)):
            perm, val = module.monomial_tables[:2]
            got = clifford._relation_residual(perm, val, module.v_space.gram, module.s1_space.gram)
            want = dense_polarized_residual(module)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert (got == 0.0) is (module is mod)

    @pytest.mark.parametrize("second", ["identity", "complex-structure"])
    def test_relations_with_off_diagonal_metric(self, second):
        # g_01 = 1: Gamma_0 = Gamma_1 = I satisfies the relation; I and a
        # complex structure J do not (I J + J^T I = 0 != 2 I), although the
        # rows of M_01 and M_10 then coincide and their values cancel
        J = dense_cl_neg_generators(1)[0]
        gam = np.stack([np.eye(2, dtype=np.int64), J if second != "identity" else np.eye(2)])
        args = (gam.astype(np.int64), np.ones((2, 2)), np.eye(2, dtype=np.int64))
        want = _outcome(dense_check_clifford_relations, *args)
        assert want is (None if second == "identity" else CliffordRelationError)
        assert _outcome(table_check_clifford_relations, *args) is want

    @pytest.mark.parametrize("kind", _CORRUPTIONS)
    @pytest.mark.parametrize("k", range(17))
    def test_j_family(self, k, kind):
        fam = list(dense_cl_neg_generators(k))
        if kind is not None and fam:
            fam = list(corrupt_stack(np.stack(fam), kind, np.random.default_rng(k)))
        want = _outcome(dense_check_j_family, fam)
        assert _outcome(table_check_j_family, fam) is want
        if kind is None:
            assert want is None
        elif (kind == "bump" and k > 0) or (kind == "duplicate" and k > 1):
            assert want is CliffordRelationError


class TestSerialization:
    def test_roundtrip(self):
        mod = vc.build_clifford_module(3, multiplicity=2)
        back = CliffordModule.from_json(mod.to_json())
        assert np.array_equal(back.gammas, mod.gammas)
        assert back.multiplicity == 2
        np.testing.assert_array_equal(back.s0_space.gram, mod.s0_space.gram)

    def test_roundtrip_indefinite(self):
        mod = vc.build_clifford_module(2, signature=(1, 1))
        back = CliffordModule.from_json(mod.to_json())
        assert np.array_equal(back.gammas, mod.gammas)
        assert back.v_space.signature == (1, 1)

    def test_gammas_serialize_as_integers(self):
        obj = vc.build_clifford_module(2).to_json()
        flat = [x for g in obj["gammas"] for row in g for x in row]
        assert all(isinstance(x, int) for x in flat)

    def test_bad_json_rejected(self):
        with pytest.raises(SpecError):
            CliffordModule.from_json({"dim_v": 1})

    @pytest.mark.parametrize(
        "obj",
        [
            {"dim_v": 2, "signature": [3, 0], "multiplicity": 1, "gammas": [[[1]], [[1]]]},
            {"dim_v": 1, "signature": [1, 0], "multiplicity": 1, "gammas": [1]},
            {"dim_v": 1, "signature": [1, 0], "multiplicity": 1, "gammas": [[[2**70]]]},
        ],
        ids=["signature-vs-dim", "not-3d", "overflow"],
    )
    def test_malformed_gammas_rejected(self, obj):
        with pytest.raises(SpecError):
            CliffordModule.from_json(obj)

    @pytest.mark.parametrize("signature", [None, (2, 1)])
    @pytest.mark.parametrize("kind", ["bump", "flip-column"])
    def test_corrupted_json_rejected(self, kind, signature):
        obj = vc.build_clifford_module(3, signature, multiplicity=2).to_json()
        gam = np.array(obj["gammas"])
        if kind == "bump":
            gam[1, 0, 0] += 1
        else:
            gam[0, :, 0] *= -1
        obj["gammas"] = gam.tolist()
        with pytest.raises(CliffordRelationError):
            CliffordModule.from_json(obj)

    @pytest.mark.parametrize(
        "change",
        [
            {"dim_v": 2.7},
            {"dim_v": 2.0},
            {"dim_v": True},
            {"multiplicity": 1.9},
            {"multiplicity": 0},
            {"multiplicity": -3},
            {"signature": [2.5, 0]},
            {"signature": [3, -1]},
            {"signature": [2]},
            {"gammas": [[[1, 0], [0, 1]]]},
            {"gammas": [[[1, 0]], [[0, 1]]]},
            {"gammas": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]]},
            {"gammas": [[[True, False], [False, True]], [[False, True], [True, False]]]},
            {"signature": [1, 1], "gammas": np.eye(3, dtype=int)[None].repeat(2, 0).tolist()},
        ],
        ids=[
            "float-dim-v", "integral-float-dim-v", "bool-dim-v", "float-multiplicity", "zero-multiplicity",
            "negative-multiplicity", "float-signature", "negative-signature", "short-signature",
            "short-stack", "non-square-stack", "float-gammas", "bool-gammas", "odd-split-spinors",
        ],
    )
    def test_bad_values_rejected(self, change):
        # integers by the CLI's rule, multiplicity >= 1 and a (dim_v, dim_s,
        # dim_s) integer stack, each a SpecError
        obj = {**vc.build_clifford_module(2).to_json(), **change}
        with pytest.raises(SpecError, match="bad Clifford-module JSON"):
            CliffordModule.from_json(obj)

    def test_numpy_integers_accepted(self):
        obj = vc.build_clifford_module(3, (2, 1)).to_json()
        obj.update(dim_v=np.int64(3), signature=[np.int32(2), np.int64(1)], multiplicity=np.int16(1))
        back = CliffordModule.from_json(obj)
        assert back.v_space.signature == (2, 1) and back.multiplicity == 1


# build_clifford_module arguments (dim_v, signature, multiplicity) compared
# with the dense recursion of the oracle
_TABLE_CASES = (
    [(d, None, 1) for d in range(1, 19)]
    + [(sum(sig), sig, m) for sig in [(1, 1), (2, 1), (1, 3), (3, 2)] for m in (1, 2, 3)]
    + [(d, None, m) for d in (1, 3, 8, 9) for m in (2, 3)]
)


def _same_bits(got, want) -> None:
    if want is None:
        assert got is None
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _space_fields(space) -> dict:
    return {name: getattr(space, name) for name in ("signature", "gram", "gram_inv", "weights", "inv_weights")}


def _assert_same_space(got: dict, want: dict) -> None:
    assert got.pop("signature") == want.pop("signature")
    for name, value in want.items():
        _same_bits(got[name], value)


class TestTableBuild:
    """build_clifford_module makes its tables in the Cayley-Dickson and
    period-8 recursion; they equal, bit for bit, those read off the dense
    recursion of the oracle, and so do the materialized gammas and the
    metric spaces."""

    @pytest.mark.parametrize("case", _TABLE_CASES, ids=str)
    def test_matches_dense_oracle(self, case):
        dim_v, signature, mult = case
        gammas, s_gram = dense_module_stack(*case)
        mod = vc.build_clifford_module(*case)
        assert "gammas" not in vars(mod)
        dense = CliffordModule(mod.v_space, mod.s0_space, mod.s1_space, gammas, multiplicity=mult)
        for got, want in zip(mod.monomial_tables, dense.monomial_tables, strict=True):
            _same_bits(got, want)
        _same_bits(mod.gammas, gammas)
        p, q = signature or (dim_v, 0)
        v_gram = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
        _assert_same_space(_space_fields(mod.v_space), dense_metric_fields(dim_v, (p, q), v_gram))
        for space in (mod.s0_space, mod.s1_space):
            _assert_same_space(_space_fields(space), dense_metric_fields(None, None, s_gram))

    def test_orbit_chain_never_materializes_the_dense_stack(self):
        mod = vc.build_clifford_module(16)
        cone = vc.cone_from_algebra(vc.rank3_special(mod))
        rng = np.random.default_rng(0)
        A, B = (vc.random_triangular(cone.algebra, rng) for _ in range(2))
        X, Y = vc.herm_from_triangular(A), vc.herm_from_triangular_star(A)
        vc.group_coordinates(cone, X)
        vc.p_polynomials(cone, X)
        vc.characteristic_function(cone, X)
        vc.det_cubic(cone, X)
        vc.d_prime(cone, Y)
        vc.d_prime_via_dual(cone, Y)
        vc.dual_membership(cone, Y)
        vc.herm_pairing(X, Y)
        vc.triangular_product(A, B)
        rng = np.random.default_rng(1)
        v, s0, s1 = rng.uniform(-1, 1, (3, mod.dim_v)), *rng.uniform(-1, 1, (2, 3, mod.dim_s))
        vc.clifford_mult(mod, v, s0)
        vc.clifford_bilinear(mod, s1, s0)
        vc.clifford_mult_adjoint(mod, v, s1)
        vc.verify_isometry(mod, 10)
        assert "gammas" not in vars(mod)
        assert mod.gammas.shape == (16, 128, 128) and not mod.gammas.flags.writeable
        assert "gammas" in vars(mod)

    def test_self_test_never_materializes_the_dense_stack(self):
        mod = vc.build_clifford_module(4)
        residuals = list(cli._invariant_suite(vc.cone_from_algebra(vc.rank3_special(mod)), mod, 0))
        assert [name for name, _, _ in residuals[:3]] == [
            "clifford-isometry", "clifford-polarized-relation", "clifford-adjunction",
        ]
        assert "gammas" not in vars(mod)

    def test_dense_gammas_are_kept_as_given(self):
        # read into tables at construction and scattered back, on first read,
        # in the dtype they came in
        gam = np.array(vc.build_clifford_module(2).gammas, dtype=np.int32)
        space = MetricSpace.euclidean(2)
        mod = CliffordModule(space, space, space, gam)
        assert "gammas" not in vars(mod)
        assert mod.gammas.dtype == np.int32 and not mod.gammas.flags.writeable
        np.testing.assert_array_equal(mod.gammas, gam)
        np.testing.assert_array_equal(mod.monomial_tables[0], vc.build_clifford_module(2).monomial_tables[0])

    def test_needs_exactly_one_of_gammas_and_tables(self):
        mod = vc.build_clifford_module(2)
        space = mod.v_space
        with pytest.raises(TypeError):
            CliffordModule(space, space, space)
        with pytest.raises(TypeError):
            CliffordModule(space, space, space, mod.gammas, tables=mod.monomial_tables[:2])
        with pytest.raises(DimensionMismatchError):
            CliffordModule(MetricSpace.euclidean(3), space, space, tables=mod.monomial_tables[:2])


def _message(check, *args):
    try:
        check(*args)
    except CliffordRelationError as exc:
        return str(exc)
    return None


_TABLE_CORRUPTIONS = ("swap-perm", "flip-sign")


class TestTableNegativeControls:
    """A swapped perm entry or a flipped sign in a J family or a gamma table
    makes the table checks raise the message of the dense oracle."""

    @pytest.mark.parametrize("kind", _TABLE_CORRUPTIONS)
    @pytest.mark.parametrize("k", range(1, 17))
    def test_j_family(self, k, kind):
        perm, sign = corrupt_tables(*clifford._cl_neg_generators(k), kind, np.random.default_rng(k))
        want = _message(dense_check_j_family, list(dense_from_tables(perm, sign)))
        assert want is not None
        assert _message(clifford._check_j_family, perm, sign) == want

    @pytest.mark.parametrize("kind", _TABLE_CORRUPTIONS)
    @pytest.mark.parametrize("case", [c for c in _MODULE_CASES if c[0] > 1], ids=str)
    def test_gammas(self, case, kind):
        mod = _module(*case)
        perm, val = mod.monomial_tables[:2]
        perm, sign = corrupt_tables(perm, val.astype(np.int64), kind, np.random.default_rng(case[0]))
        g_v, g_s = mod.v_space.gram, mod.s0_space.gram
        want = _message(dense_check_clifford_relations, dense_from_tables(perm, sign), g_v, g_s)
        assert want is not None
        assert _message(clifford._check_clifford_relations, perm, sign, g_v, g_s) == want

    def test_uncorrupted_tables_pass(self):
        for k in range(17):
            clifford._check_j_family(*clifford._cl_neg_generators(k))
        mod = _module(5, (3, 2), 2)
        perm, val = mod.monomial_tables[:2]
        clifford._check_clifford_relations(perm, val.astype(np.int64), mod.v_space.gram, mod.s0_space.gram)


# diagonal Gram matrices for the diagonal branch of MetricSpace
_DIAGONAL_GRAMS = {
    "identity": np.eye(4),
    "signs": np.diag([1.0, -1.0, -1.0, 1.0]),
    "split-128": np.diag(np.tile([1.0, -1.0], 64)),
    "scaled-v": SCALED_V,
    "scaled-s": SCALED_S,
    "mixed": np.diag([3.0, -7.0, 0.1, -2.5e-3, 1e6]),
    "zero-entry": np.diag([1.0, 0.0, -1.0]),
    "near-zero": np.diag([1.0, -1e-13]),
    "all-zero": np.zeros((2, 2)),
    "wide-range": np.diag([1e-300, -1e300]),
    "infinite": np.diag([1.0, np.inf]),
}


def _metric_outcome(make):
    try:
        fields = make()
    except (SpecError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return fields


class TestMetricSpaceDiagonalBranch:
    """A diagonal Gram takes its signature from the signs and its inverse
    from reciprocals: every field and every error as the eigvalsh/inv route
    gives it."""

    @pytest.mark.parametrize("declared", ["with-gram", "true", "wrong"])
    @pytest.mark.parametrize("name", list(_DIAGONAL_GRAMS))
    def test_matches_eigvalsh_inv_route(self, name, declared):
        g = _DIAGONAL_GRAMS[name]
        n = len(g)
        if declared == "with-gram":
            got = _metric_outcome(lambda: _space_fields(MetricSpace.with_gram(g)))
            want = _metric_outcome(lambda: dense_metric_fields(None, None, g))
        else:
            d = np.diag(g)
            sig = (int(np.sum(d > 0)), int(np.sum(d < 0)))
            if declared == "wrong":
                sig = (n, 0) if sig != (n, 0) else (n - 1, 1)
            got = _metric_outcome(lambda: _space_fields(MetricSpace(n, sig, g)))
            want = _metric_outcome(lambda: dense_metric_fields(n, sig, g))
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_space(got, want)

    def test_signed_zeros_of_the_inverse(self):
        # LAPACK's solve leaves -0.0 off the diagonal in the rows of negative
        # entries; the reciprocal route keeps them
        space = MetricSpace.canonical(1, 2)
        assert np.signbit(space.gram_inv).tolist() == [[False] * 3, [True] * 3, [True] * 3]
