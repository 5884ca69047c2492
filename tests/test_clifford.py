import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones.clifford import CliffordModule, MetricSpace
from vinberg_cones.errors import DimensionMismatchError, SpecError

from _support import hurwitz_radon, min_dim_by_radon


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
        "dim_v,expected", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (7, 8), (8, 8), (9, 16)]
    )
    def test_minimal_spinor_dims(self, dim_v, expected):
        mod = vc.build_clifford_module(dim_v)
        assert mod.dim_s == expected

    @pytest.mark.parametrize("dim_v", range(1, 17))
    def test_dims_match_hurwitz_radon_bound(self, dim_v):
        # independent arithmetic oracle: gamma families need dim_v - 1
        # anticommuting complex structures, so dim S is the smallest d with
        # rho(d) >= dim_v
        assert vc.minimal_spinor_dim(dim_v) == min_dim_by_radon(dim_v)

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
        # strips assert statements
        code = """
import sys
import numpy as np
from vinberg_cones import clifford
from vinberg_cones.errors import CliffordRelationError
fam = [np.array(j) for j in clifford._cl_neg_generators(3)]
fam[0][0, 0] += 1
mod = clifford.build_clifford_module(4)
gam = np.array(mod.gammas)
gam[0, 0, 0] += 1
checks = [
    lambda: clifford._check_j_family(fam),
    lambda: clifford._check_clifford_relations(gam, mod.v_space.gram, np.eye(mod.dim_s)),
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
        assert lines[:-1] == ["raised J must be skew", "raised Clifford relation failed"]

    def test_verify_isometry_rejects_zero_samples(self):
        mod = vc.build_clifford_module(1)
        with pytest.raises(ValueError):
            vc.verify_isometry(mod, 0)


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
