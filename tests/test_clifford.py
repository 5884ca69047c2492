import functools
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli, clifford
from vinberg_cones.clifford import CliffordModule, MetricSpace
from vinberg_cones.errors import (
    CliffordRelationError,
    DimensionMismatchError,
    IndefiniteSignatureError,
    ModuleTooLargeError,
    SpecError,
)

from _support import (
    PRODUCT_MODULES,
    FULL_S,
    FULL_V,
    SCALED_S,
    SCALED_V,
    Refused,
    corrupt_stack,
    corrupt_tables,
    dense_check_clifford_relations,
    dense_check_j_family,
    dense_cl_neg_generators,
    dense_from_tables,
    dense_module_stack,
    dense_mu,
    dense_polarized_residual,
    gather_products,
    hurwitz_radon,
    j_relation_check,
    made,
    made_cone,
    min_dim_by_radon,
    refused,
    same_bits,
    table_check_clifford_relations,
    table_check_j_family,
)

# a module JSON that CliffordModule.to_json wrote before the library took
# Euclidean metrics only, for dim_v = 3: the bytes it still writes and reads
D3_MODULE_JSON = (
    '{"dim_v": 3, "signature": [3, 0], "multiplicity": 1, "gammas": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
    '[0, 0, 0, 1]], [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], [[0, 0, -1, 0], [0, 0, 0, 1], '
    '[1, 0, 0, 0], [0, -1, 0, 0]]]}'
)
# and the one it wrote for signature (1, 1), a doubled spinor space with a
# split metric: from_json refuses it
SPLIT_D2_MODULE_JSON = (
    '{"dim_v": 2, "signature": [1, 1], "multiplicity": 1, "gammas": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
    '[0, 0, 0, 1]], [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]]}'
)


class TestMetricSpace:
    def test_euclidean_canonical(self):
        # a space is its dimension, with the identity Gram matrix
        s = MetricSpace.euclidean(3)
        assert s == MetricSpace(3) and vars(s) == {"dim": 3}
        assert s.ip([1.0, 2.0, 0.0], [3.0, -1.0, 5.0]) == 1.0
        assert s.norm_sq([1.0, -2.0, 2.0]) == 9.0

    def test_indefinite_canonical(self):
        # no space carries a signature; one with q > 0 is refused where it
        # enters, here the module builder
        assert not hasattr(MetricSpace, "canonical") and not hasattr(MetricSpace, "signature")
        with pytest.raises(IndefiniteSignatureError, match=r"signature \[1, 2\] is indefinite"):
            vc.build_clifford_module(3, signature=(1, 2))

    def test_rejects_wrong_signature(self):
        # none can be declared
        with pytest.raises(TypeError):
            MetricSpace(2, (2, 0))

    def test_rejects_degenerate_gram(self):
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace([1.0, 0.0])
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_dimensions_raise_dimension_mismatch(self):
        # not numpy's "negative dimensions are not allowed", nor its TypeError
        # on a count that is no integer
        for dim in (-1, 0, 2.0, True):
            with pytest.raises(DimensionMismatchError, match="integer dim"):
                MetricSpace.euclidean(dim)

    @pytest.mark.parametrize("weights", [np.zeros(0), np.ones((1, 1)), 1.0], ids=["empty", "1x1", "scalar"])
    def test_rejects_weights_that_are_no_vector(self, weights):
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(weights)

    def test_weights_are_a_read_only_copy(self):
        # no weights are kept: a weight vector is refused, and the space is frozen
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(np.array([1.0, -1.0, 1.0]))
        space = MetricSpace(3)
        with pytest.raises(AttributeError):
            space.dim = 4
        assert not hasattr(space, "weights") and space.dim == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MetricSpace.euclidean(2896),
            Refused(lambda: cli.parse_spec({"rank": 2, "dim_w": 2896, "signature": [1448, 1448]})),
        ],
        ids=["euclidean-2896", "canonical-1448-1448"],
    )
    def test_largest_rank2_space_allocates_no_matrix(self, make):
        # dim_w = 2896 is the largest rank-2 space the CLI accepts; a dense
        # Gram matrix of it would take 67 MB.  A split signature of that
        # size is refused before anything is built
        tracemalloc.start()
        try:
            space = made(make)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space is None or space.dim == 2896
        assert peak < 2**20


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

    def test_size_bound_rejects_before_building(self):
        clifford._cl_neg_generators.cache_clear()
        with pytest.raises(ModuleTooLargeError):
            vc.build_clifford_module(24)
        with pytest.raises(IndefiniteSignatureError):
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
        assert (a.dim_v, a.dim_s) == (b.dim_v, b.dim_s) == (6, 2 * vc.minimal_spinor_dim(6))

    def test_rejects_zero_inputs(self):
        with pytest.raises(DimensionMismatchError):
            vc.build_clifford_module(0)
        with pytest.raises(DimensionMismatchError):
            vc.build_clifford_module(2, multiplicity=0)

    def test_indefinite_signature_doubles(self):
        # no doubled spinor space: a split signature is refused, and the
        # Euclidean one, named, gives the module of no signature
        with pytest.raises(IndefiniteSignatureError):
            vc.build_clifford_module(2, signature=(1, 1))
        named, default = vc.build_clifford_module(2, signature=(2, 0)), vc.build_clifford_module(2)
        assert named.dim_s == default.dim_s == vc.minimal_spinor_dim(2)
        for got, want in zip(named.monomial_tables, default.monomial_tables, strict=True):
            assert same_bits(got, want)


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
        if (cone := made_cone(case)) is None:
            return
        module = cone.algebra.clifford
        rng = np.random.default_rng(case[0])
        for v in (rng.uniform(-1, 1, module.dim_v), np.eye(module.dim_v)[-1]):
            np.testing.assert_array_equal(module.mu(v), dense_mu(module, v))

    def test_mu_sums_gammas_that_share_an_entry(self):
        # monomial but not a Clifford module: both gammas fill entry (0, 0)
        tables = (np.array([[0, 1], [0, 1]]), np.array([[1, 1], [3, -1]]))  # I and [[3, 0], [0, -1]]
        module = CliffordModule(tables=tables)
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
                lhs = out @ e
                rhs = s1 @ vc.clifford_mult(mod, e, s0)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_mult_adjoint_identity(self):
        mod = vc.build_clifford_module(4)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(-1, 1, 4)
            s1 = rng.uniform(-1, 1, mod.dim_s)
            u = rng.uniform(-1, 1, mod.dim_s)
            adj = vc.clifford_mult_adjoint(mod, v, s1)
            lhs = adj @ u
            rhs = s1 @ vc.clifford_mult(mod, v, u)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("dim_v", range(1, 9))
    def test_isometry_euclidean(self, dim_v):
        mod = vc.build_clifford_module(dim_v)
        assert vc.verify_isometry(mod, 300, seed=5) <= 1e-12

    @pytest.mark.parametrize("signature", [(1, 1), (0, 1), (2, 1), (1, 2)])
    def test_isometry_indefinite(self, signature):
        # negative controls: no module is built on an indefinite signature
        with pytest.raises(IndefiniteSignatureError, match="is indefinite"):
            vc.build_clifford_module(sum(signature), signature=signature)

    @pytest.mark.parametrize("dim_v", [1, 3, 6, 8])
    def test_polarized_clifford_relation(self, dim_v):
        mod = vc.build_clifford_module(dim_v)
        gam = np.asarray(mod.gammas, dtype=float)
        for a in range(dim_v):
            for b in range(dim_v):
                lhs = gam[a].T @ gam[b] + gam[b].T @ gam[a]
                np.testing.assert_allclose(lhs, 2.0 * (a == b) * np.eye(mod.dim_s), atol=1e-12)

    def test_corrupted_gamma_detected(self):
        mod = vc.build_clifford_module(4)
        perm, val = mod.monomial_tables[:2]
        val = val.copy()
        val[0, 0] += 1  # entry (0, 0) of Gamma_0 = I
        bad = CliffordModule(tables=(perm, val))
        assert vc.verify_isometry(bad, 200, seed=0) > 0.1

    def test_relation_breaking_stack_enters_only_through_from_json(self):
        # one row of Gamma_1 negated: still monomial, but no Clifford module
        # (an isometry residual of order one); the one dense entry point checks
        mod = vc.build_clifford_module(2)
        gam = np.array(mod.gammas)
        gam[1, 0] *= -1
        unchecked = CliffordModule(tables=clifford._monomial(gam))
        assert vc.verify_isometry(unchecked, 200, seed=0) > 0.1
        with pytest.raises(TypeError):
            CliffordModule(gam)
        with pytest.raises(CliffordRelationError, match="Clifford relation failed"):
            CliffordModule.from_json({**mod.to_json(), "gammas": gam.tolist()})

    def test_exact_checks_survive_optimized_mode(self):
        # the integer relation check must raise under `python -O`, which
        # strips assert statements: on a dense stack read as from_json reads
        # it, and on J and gamma tables with a flipped sign or swapped perm,
        # a J family as the stack [I, J_1..J_3]
        code = """
import sys
import numpy as np
from vinberg_cones import clifford
from vinberg_cones.errors import CliffordRelationError
from _support import j_relation_check
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
checks = [
    lambda: j_relation_check(perm, flipped),
    lambda: j_relation_check(swapped, sign),
    lambda: clifford._check_clifford_relations(*clifford._monomial(gam)),
    lambda: clifford._check_clifford_relations(gp, gs_flipped),
    lambda: clifford._check_clifford_relations(gp_swapped, gs),
]
for check in checks:
    try:
        check()
    except CliffordRelationError as exc:
        print("raised", exc)
print("optimize", sys.flags.optimize)
"""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[-1] == "optimize 1"
        assert lines[:-1] == ["raised Clifford relation failed"] * 5

    def test_signed_permutation_is_required(self):
        # an integer matrix with Gamma^T Gamma = I is a signed permutation:
        # on every 2 x 2 one with entries in -2..2 the table check, which
        # reads only monomial stacks, gives the dense relation's verdict, and
        # exactly the 8 signed permutations pass
        passed = 0
        for entries in itertools.product(range(-2, 3), repeat=4):
            gamma = np.array(entries).reshape(1, 2, 2)
            want = _outcome(dense_check_clifford_relations, gamma)
            assert _outcome(table_check_clifford_relations, gamma) is want
            passed += want is None
        assert passed == 8
        # an integral Lorentz transformation of x^2 + y^2 - z^2, a Clifford
        # gamma for a split metric only, fails both
        lorentz = np.array([[[1, 2, 2], [2, 1, 2], [2, 2, 3]]])
        for check in (dense_check_clifford_relations, table_check_clifford_relations):
            with pytest.raises(CliffordRelationError, match="Clifford relation failed"):
                check(lorentz)

    @pytest.mark.parametrize(
        "fam",
        [
            [2 * np.array([[0, 1], [-1, 0]])],
            [np.array([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])],
        ],
        ids=["scaled", "two-per-row"],
    )
    def test_j_family_rejects_non_permutations(self, fam):
        with pytest.raises(CliffordRelationError, match="J must be orthogonal"):
            dense_check_j_family(fam)
        with pytest.raises(CliffordRelationError):
            table_check_j_family(fam)

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
        with pytest.raises(CliffordRelationError, match="anticommute"):
            dense_check_j_family(fam)
        with pytest.raises(CliffordRelationError):
            table_check_j_family(fam)

    @pytest.mark.parametrize("dim_v, signature", [(3, None), (8, None), (3, (2, 1))])
    def test_verify_isometry_matches_per_sample_definition(self, dim_v, signature):
        # a corrupted module, so that the worst deviation is of order one:
        # one nonzero entry doubled keeps the gammas monomial; the split
        # signature is a negative control, refused
        if (mod := made(Refused(lambda: vc.build_clifford_module(dim_v, signature)) if signature else
                        lambda: vc.build_clifford_module(dim_v))) is None:
            return
        perm, val = mod.monomial_tables[:2]
        val = val.copy()
        val[-1, 0] *= 2  # the nonzero of the last gamma's first column
        bad = CliffordModule(tables=(perm, val))
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, (50, bad.dim_v))
        s = rng.uniform(-1.0, 1.0, (50, bad.dim_s))
        want = max(
            abs(np.sum(vc.clifford_mult(bad, vi, si) ** 2) - np.sum(vi**2) * np.sum(si**2))
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


def _made_module(case):
    """_module(*case); for a case with an indefinite signature, None after
    checking that building it is refused (a negative control)."""
    make = functools.partial(_module, *case)
    return made(make if case[1] is None else Refused(make))


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
        if (mod := _made_module(case)) is None:
            return
        gam = np.asarray(mod.gammas)
        if kind is not None:
            gam = corrupt_stack(gam, kind, np.random.default_rng(_MODULE_CASES.index(case)))
        want = _outcome(dense_check_clifford_relations, gam)
        assert _outcome(table_check_clifford_relations, gam) is want
        if kind is None:
            assert want is None
        elif kind in ("bump", "duplicate") and case[0] > 1:
            assert want is CliffordRelationError

    @pytest.mark.parametrize("case", _MODULE_CASES, ids=str)
    def test_relation_residual(self, case):
        # the self-test's residual from the tables, bit for bit the dense
        # polarized loop's, on the module and on its --corrupt-gamma copy
        if (mod := _made_module(case)) is None:
            return
        for module in (mod, cli._corrupt_gamma(mod)):
            got = clifford._relation_residual(*module.monomial_tables[:2])
            want = dense_polarized_residual(module)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert (got == 0.0) is (module is mod)

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
        assert (back.dim_v, back.dim_s) == (mod.dim_v, mod.dim_s) == (3, 8)

    def test_roundtrip_indefinite(self):
        # a split module's JSON, written when the library built them, is
        # refused before its gammas are read
        with pytest.raises(IndefiniteSignatureError, match=r"signature \[1, 1\] is indefinite"):
            CliffordModule.from_json(json.loads(SPLIT_D2_MODULE_JSON))

    def test_module_json_keeps_its_bytes(self):
        # a Euclidean module's JSON from before still loads, and the module
        # writes the same bytes, "signature": [dim_v, 0] included
        back = CliffordModule.from_json(json.loads(D3_MODULE_JSON))
        assert json.dumps(back.to_json()) == json.dumps(vc.build_clifford_module(3).to_json()) == D3_MODULE_JSON
        assert (back.dim_v, back.dim_s) == (3, 4)

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
        # a split signature is refused before the gammas' relation is checked
        obj = vc.build_clifford_module(3, multiplicity=2).to_json()
        gam = np.array(obj["gammas"])
        if kind == "bump":
            gam[1, 0, 0] += 1
        else:
            gam[0, :, 0] *= -1
        obj["gammas"] = gam.tolist()
        if signature is not None:
            obj["signature"] = list(signature)
        with pytest.raises(CliffordRelationError if signature is None else IndefiniteSignatureError):
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
        # dim_s) integer stack, each a SpecError; a well-formed signature
        # with q > 0 is refused as indefinite, whatever its stack
        obj = {**vc.build_clifford_module(2).to_json(), **change}
        if change.get("signature") == [1, 1]:
            with pytest.raises(IndefiniteSignatureError):
                CliffordModule.from_json(obj)
            return
        with pytest.raises(SpecError, match="bad Clifford-module JSON"):
            CliffordModule.from_json(obj)

    def test_numpy_integers_accepted(self):
        obj = vc.build_clifford_module(3).to_json()
        obj.update(dim_v=np.int64(3), signature=[np.int32(3), np.int64(0)], multiplicity=np.int16(1))
        back = CliffordModule.from_json(obj)
        assert back.dim_v == 3 and back.multiplicity == 1


# build_clifford_module arguments (dim_v, signature, multiplicity) compared
# with the dense recursion of the oracle; the split ones are refused
_TABLE_CASES = (
    [(d, None, 1) for d in range(1, 19)]
    + [(sum(sig), sig, m) for sig in [(1, 1), (2, 1), (1, 3), (3, 2)] for m in (1, 2, 3)]
    + [(d, None, m) for d in (1, 3, 8, 9) for m in (2, 3)]
)


class TestTableBuild:
    """build_clifford_module makes its tables in the Cayley-Dickson and
    period-8 recursion; they equal, bit for bit, those read off the dense
    recursion of the oracle, and so do the materialized gammas; the spaces
    are those of its dimensions."""

    @pytest.mark.parametrize("case", _TABLE_CASES, ids=str)
    def test_matches_dense_oracle(self, case):
        dim_v, signature, mult = case
        if (mod := made(Refused(lambda: vc.build_clifford_module(*case)) if signature else
                        lambda: vc.build_clifford_module(*case))) is None:
            return
        gammas = dense_module_stack(dim_v, mult)
        assert "gammas" not in vars(mod)
        # the oracle's stack read into tables as from_json reads it
        tables = clifford._monomial(gammas)
        dense = CliffordModule(tables=tables, multiplicity=mult)
        for got, want in zip(mod.monomial_tables, dense.monomial_tables, strict=True):
            assert same_bits(got, want)
        assert same_bits(mod.gammas, gammas)
        assert (mod.dim_v, mod.dim_s) == (dense.dim_v, dense.dim_s) == (dim_v, gammas.shape[-1])
        assert type(mod.dim_v) is type(mod.dim_s) is int

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
        # read into tables by from_json and scattered back, on first read,
        # in the dtype they came in
        gam = np.array(vc.build_clifford_module(2).gammas, dtype=np.int32)
        mod = CliffordModule.from_json({"dim_v": 2, "signature": [2, 0], "multiplicity": 1, "gammas": gam})
        assert "gammas" not in vars(mod)
        assert mod.gammas.dtype == np.int32 and not mod.gammas.flags.writeable
        np.testing.assert_array_equal(mod.gammas, gam)
        np.testing.assert_array_equal(mod.monomial_tables[0], vc.build_clifford_module(2).monomial_tables[0])

    def test_needs_exactly_one_of_gammas_and_tables(self):
        # tables, keyword-only, and no dense stack or spaces
        mod = vc.build_clifford_module(2)
        space = MetricSpace.euclidean(2)
        with pytest.raises(TypeError):
            CliffordModule()
        with pytest.raises(TypeError):
            CliffordModule(mod.gammas, tables=mod.monomial_tables[:2])
        with pytest.raises(TypeError):
            CliffordModule(space, space, space, tables=mod.monomial_tables[:2])
        assert not any(hasattr(mod, f"{name}_space") for name in ("v", "s0", "s1"))

    @pytest.mark.parametrize("dense", ["gammas", "tables-shaped"])
    def test_dense_stack_passed_positionally_raises(self, dense):
        # on dim_v = dim_s = 2 a dense (2, 2, 2) stack has the shapes of a
        # (perm, val) pair: only the keyword keeps it out
        mod = vc.build_clifford_module(2)
        stack = np.array(mod.gammas) if dense == "gammas" else np.stack(mod.monomial_tables[:2])
        assert stack.shape == (2, 2, 2)
        with pytest.raises(TypeError):
            CliffordModule(stack)
        with pytest.raises(TypeError):
            CliffordModule(stack, 1)

    def test_tables_shapes_are_checked(self):
        mod = vc.build_clifford_module(3)
        perm, val = mod.monomial_tables[:2]
        # tables of two shapes, not 2-D, empty, or not a pair
        cases = [(perm[:2], val), (perm, val[:, :2]), (perm[None], val[None]), (perm[0], val[0]), (perm[:0], val[:0])]
        for tables in cases + [(perm,), (perm, val, val)]:
            with pytest.raises(DimensionMismatchError, match="one non-empty 2-D shape"):
                CliffordModule(tables=tables)
        mod = CliffordModule(tables=(perm, val))
        assert (mod.dim_v, mod.dim_s) == perm.shape == (3, 4)

    @pytest.mark.parametrize(
        "perm",
        [[[0, 0]], [[1, 1]], [[0, 2]], [[-1, 0]], [[0.0, 1.0]], [[True, False]]],
        ids=["repeat-0", "repeat-1", "too-large", "negative", "float", "bool"],
    )
    def test_perm_rows_must_be_permutations(self, perm):
        # with a repeated entry, clifford_mult(m, [1], [1, 2]) and
        # mu([1]) @ [1, 2] disagree ([1, 2] against [3, 0])
        with pytest.raises(SpecError, match="permutation"):
            CliffordModule(tables=(np.array(perm), np.array([[1, 1]])))

    def test_tables_are_copied(self):
        # a module keeps read-only copies of its tables: writing the caller's
        # perm afterwards once gave clifford_mult(m, [1, 0], [1, 2]) = [1, 2]
        # against m.mu([1, 0]) @ [1, 2] = [3, 0], and the module flipped the
        # caller's perm to read-only when it completed its tables
        perm, val = np.array([[0, 1], [1, 0]]), np.array([[1, 1], [-1, 1]])
        m = CliffordModule(tables=(perm, val))
        perm[0] = [0, 0]
        val[1] = [7, 7]
        np.testing.assert_array_equal(vc.clifford_mult(m, [1, 0], [1, 2]), m.mu([1, 0]) @ [1, 2])
        np.testing.assert_array_equal(m.mu([1, 0]) @ [1, 2], [1, 2])
        assert m.monomial_tables[0].tolist() == [[0, 1], [1, 0]]
        assert perm.flags.writeable and val.flags.writeable
        assert not any(t.flags.writeable for t in m.monomial_tables)


def _message(check, *args):
    try:
        check(*args)
    except CliffordRelationError as exc:
        return str(exc)
    return None


_TABLE_CORRUPTIONS = ("swap-perm", "flip-sign")


class TestTableNegativeControls:
    """A swapped perm entry or a flipped sign in a J family makes the
    relation check on [I, J_1..J_k] raise where the dense oracle does, and
    one in a gamma table makes it raise the dense oracle's message."""

    @pytest.mark.parametrize("kind", _TABLE_CORRUPTIONS)
    @pytest.mark.parametrize("k", range(1, 17))
    def test_j_family(self, k, kind):
        perm, sign = corrupt_tables(*clifford._cl_neg_generators(k), kind, np.random.default_rng(k))
        assert _message(dense_check_j_family, list(dense_from_tables(perm, sign))) is not None
        assert _message(j_relation_check, perm, sign) is not None

    @pytest.mark.parametrize("kind", _TABLE_CORRUPTIONS)
    @pytest.mark.parametrize("case", [c for c in _MODULE_CASES if c[0] > 1], ids=str)
    def test_gammas(self, case, kind):
        if (mod := _made_module(case)) is None:
            return
        perm, val = mod.monomial_tables[:2]
        perm, sign = corrupt_tables(perm, val.astype(np.int64), kind, np.random.default_rng(case[0]))
        want = _message(dense_check_clifford_relations, dense_from_tables(perm, sign))
        assert want is not None
        assert _message(clifford._check_clifford_relations, perm, sign) == want

    def test_uncorrupted_tables_pass(self):
        for k in range(17):
            j_relation_check(*clifford._cl_neg_generators(k))
        mod = _module(5, None, 2)
        perm, val = mod.monomial_tables[:2]
        clifford._check_clifford_relations(perm, val.astype(np.int64))


# diagonal metrics as weights, the +/-1 ones a MetricSpace once held among
# them: a MetricSpace takes its dimension, and refuses each of them
_DIAGONAL_WEIGHTS = {
    "identity": np.ones(4),
    "signs": np.array([1.0, -1.0, -1.0, 1.0]),
    "split-128": np.tile([1.0, -1.0], 64),
    "scaled-v": SCALED_V,
    "scaled-s": SCALED_S,
    "mixed": np.array([3.0, -7.0, 0.1, -2.5e-3, 1e6]),
    "zero-entry": np.array([1.0, 0.0, -1.0]),
    "near-zero": np.array([1.0, -1e-13]),
    "all-zero": np.zeros(2),
    "wide-range": np.array([1e-300, -1e300]),
    "infinite": np.array([1.0, np.inf]),
    "nan": np.array([np.nan, -1.0]),
    "minus-half": np.array([1.0, -0.5]),
    "minus-infinite": np.array([-np.inf]),
}


class TestMetricSpaceDiagonalBranch:
    """Negative controls: no weight vector makes a space, as its weights
    ("true"), as its Gram matrix ("with-gram") or beside a declared
    signature ("wrong"); the identity of the weights' length is the only
    metric, with the inner product of a dense matmul by np.linalg.inv of
    its Gram matrix."""

    @pytest.mark.parametrize("declared", ["with-gram", "true", "wrong"])
    @pytest.mark.parametrize("name", list(_DIAGONAL_WEIGHTS))
    def test_matches_eigvalsh_inv_route(self, name, declared):
        w = _DIAGONAL_WEIGHTS[name]
        n = len(w)
        if declared == "with-gram":
            with pytest.raises(DimensionMismatchError, match="integer dim"):
                MetricSpace(np.diag(w))
        elif declared == "wrong":
            with pytest.raises(TypeError):
                MetricSpace(n, (n, 0), w)
        else:
            with pytest.raises(DimensionMismatchError, match="integer dim"):
                MetricSpace(w)
            x, y = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n))
            assert MetricSpace(n).ip(x, y) == pytest.approx(x @ np.linalg.inv(np.eye(n)) @ y, rel=1e-14, abs=1e-15)

    def test_signed_zeros_of_the_inverse(self):
        # no raising weight: the adjoints of zero arguments are +0.0, and the
        # gather of -0.0 takes the sign of each gamma entry alone
        mod = vc.build_clifford_module(2)
        assert not np.signbit(mod.mult_adjoint(np.zeros(2), np.ones(mod.dim_s))).any()
        assert not np.signbit(mod.bilinear(np.ones(mod.dim_s), np.zeros(mod.dim_s))).any()
        inv_val = mod.monomial_tables[3]
        assert (np.signbit(mod.gamma_images(-np.zeros(mod.dim_s))) == (inv_val > 0)).all()


class TestPseudoOrthonormalOnly:
    """Negative controls: a metric other than the identity is refused, as
    its Gram matrix and as its diagonal."""

    @pytest.mark.parametrize(
        "gram",
        [FULL_V, FULL_S, np.diag(SCALED_V), np.diag(SCALED_S), np.diag([1.0, 0.0, -1.0])],
        ids=["full-v", "full-s", "scaled-v", "scaled-s", "zero"],
    )
    def test_refused_grams(self, gram):
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(gram)
        with pytest.raises(DimensionMismatchError, match="integer dim"):
            MetricSpace(np.diagonal(gram))
        with refused():
            MetricSpace(gram)


def _with_zeros(x: np.ndarray, rng) -> np.ndarray:
    """x with about a quarter of its entries 0.0 and a quarter -0.0."""
    x = x.copy()
    u = rng.random(x.shape)
    x[u < 0.25] = 0.0
    x[(u >= 0.25) & (u < 0.5)] = -0.0
    return x


class TestFoldedTables:
    """The products gather on the gamma tables themselves, with no metric
    folded into them: they give the bits of the gather formula on whole
    tables (``gather_products``), signed zeros included, at multiplicity 1
    and 2, for one point and for stacks.  The split signatures are refused,
    negative controls."""

    @pytest.mark.parametrize(
        "dim_v, signature, multiplicity",
        [(2, (1, 1), 1), (3, (2, 1), 1), (4, (1, 3), 1), (5, (3, 2), 1), (3, None, 2), (2, (1, 1), 2)],
        ids=["1-1", "2-1", "1-3", "3-2", "euclidean-3-mult-2", "1-1-mult-2"],
    )
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["point", "stack", "stack-2d"])
    def test_products_keep_the_bits_of_the_unfolded_formula(self, dim_v, signature, multiplicity, shape):
        make = functools.partial(vc.build_clifford_module, dim_v, signature, multiplicity)
        if (mod := made(Refused(make) if signature else make)) is None:
            return
        want = gather_products(mod)
        rng = np.random.default_rng(dim_v + 10 * multiplicity + len(shape))
        v, s0, s1 = (_with_zeros(rng.uniform(-1.0, 1.0, shape + (n,)), rng) for n in (dim_v, mod.dim_s, mod.dim_s))
        zero_v, zero_s = np.zeros_like(v), -np.zeros_like(s0)  # sums of signed zeros only
        cases = {
            "mult": [(v, s0), (zero_v, s0)],
            "mult_adjoint": [(v, s1), (zero_v, s1), (v, zero_s)],
            "bilinear": [(s1, s0), (s1, zero_s), (zero_s, s0)],
            "gamma_pairing": [(s1,), (zero_s,)],
        }
        for name, calls in cases.items():
            for args in calls:
                assert same_bits(getattr(mod, name)(*args), want[name](*args))
        for alg in (vc.rank3_special(mod), vc.dual_algebra(vc.rank3_special(mod))):
            for x12, x23 in ((s0, v), (zero_s, v), (s0, zero_v)):
                if alg.kind == "rank3-dual":
                    x12, x23 = x23, x12
                s0_, v_ = (x12, x23) if alg.kind == "rank3-special" else (x23, x12)
                got = alg.trilinear(x12, s1, x23)
                assert same_bits(got, want["trilinear"](s0_, s1, v_))

    def test_indefinite_results_keep_the_raising_sign(self):
        # no raising sign is left: a zero sum stays +0.0 on every Euclidean
        # module, and the split module whose -1 weights gave -0.0 is refused
        for dim_v in (1, 2, 4, 8):
            mod = vc.build_clifford_module(dim_v)
            assert not np.signbit(mod.mult_adjoint(np.zeros(dim_v), np.ones(mod.dim_s))).any()
            assert not np.signbit(mod.bilinear(np.ones(mod.dim_s), np.zeros(mod.dim_s))).any()
        with pytest.raises(IndefiniteSignatureError):
            vc.build_clifford_module(2, (1, 1))
