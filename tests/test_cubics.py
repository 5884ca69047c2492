import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cubics
from vinberg_cones.cubics import DEGENERATE, INDEFINITE, PD
from vinberg_cones.errors import AlgebraMismatchError, IndefiniteSignatureError, OutsideConeError, SpecError

from _support import (
    FULL_S,
    FULL_V,
    PRODUCT_MODULES,
    dense_cubic_derivatives,
    det_leading_minors,
    fd_hessian_log,
    hessian_log_from_gradient_differences,
    jacobi_scaled,
    kernel_core_forms,
    project_to_level_set,
    random_orbit_point,
    rank2_diagonal_hessian,
    rank3_diagonal_hessian,
    rank2_cone,
    rank3_cone,
    reference_admissibility_on_diagonal,
    reference_classify_slice,
    reference_diagonal_verdicts,
    reference_find_locally_admissible_point,
    reference_rank2_slice_points,
    reference_rank3_slice_points,
    reference_scan_parameter_plane,
    reference_search_points,
    reference_verdicts_from_minors,
    rel_to_scale,
    same_bits,
)


class TestEval:
    def test_rank3_det_at_identity(self):
        cone = rank3_cone(1)
        q = vc.InvariantCubic(cone, (1.0, 0.0, 0.0))
        assert vc.eval_cubic(q, vc.herm_identity(cone.algebra)) == 1.0

    def test_rank2_normalized_diag(self):
        cone = rank2_cone(1)
        q = vc.InvariantCubic.rank2_family(cone, 1.0)
        X = vc.HermMatrix(cone.algebra, [2.0, 1.0], {})
        assert vc.eval_cubic(q, X) == pytest.approx(3.0)  # (2*1)*1 + 1

    def test_cubic_homogeneity(self):
        cone = rank3_cone(2)
        q = vc.InvariantCubic.rank3_family(cone, 0.3, -0.2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = random_orbit_point(cone, rng)
            assert vc.eval_cubic(q, X.scaled(2.0)) == pytest.approx(
                8.0 * vc.eval_cubic(q, X), rel=1e-12
            )

    def test_eps_normalization(self):
        cone = rank3_cone(1)
        q = vc.InvariantCubic(cone, (2.0, 1.0, -0.5))
        assert q.eps12 == (0.5, -0.25)
        assert q.normalizable
        assert not vc.InvariantCubic(cone, (0.0, 1.0, 0.0)).normalizable

    def test_wrong_coefficient_count(self):
        with pytest.raises(SpecError):
            vc.InvariantCubic(rank2_cone(1), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rank,slot", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_non_finite_coefficient_rejected(self, rank, slot, bad):
        # such coefficients used to reach the sampler and come back as an
        # empty feasible grid
        coeffs = [1.0] * rank
        coeffs[slot] = bad
        with pytest.raises(SpecError, match="finite"):
            vc.InvariantCubic(rank2_cone(1) if rank == 2 else rank3_cone(1), coeffs)

    @pytest.mark.parametrize("eps", [(np.nan, 0.0), (0.0, np.inf)])
    def test_scan_rejects_non_finite_cell(self, eps):
        with pytest.raises(SpecError, match="finite"):
            vc.scan_parameter_plane(rank3_cone(1), [eps[0]], [eps[1]])


CONFIGS = [
    (rank2_cone(1), vc.InvariantCubic.rank2_family(rank2_cone(1), -1.0)),
    (rank2_cone(4), vc.InvariantCubic.rank2_family(rank2_cone(4), 0.7)),
    (rank3_cone(1), vc.InvariantCubic.rank3_family(rank3_cone(1), 0.0, 0.0)),
    (rank3_cone(4), vc.InvariantCubic.rank3_family(rank3_cone(4), 0.5, -0.25)),
    (rank3_cone(8), vc.InvariantCubic.rank3_family(rank3_cone(8), -0.3, 0.1)),
]


class TestDerivatives:
    @pytest.mark.parametrize("cone,q", CONFIGS)
    def test_gradient_matches_finite_differences(self, cone, q):
        rng = np.random.default_rng(1)
        h = 1e-6
        alg = cone.algebra
        for _ in range(5):
            X = random_orbit_point(cone, rng)
            x0 = X.to_vector()
            g = vc.gradient(q, X)
            fd = np.zeros_like(g)
            for i in range(x0.size):
                e = np.zeros_like(x0)
                e[i] = h
                fp = vc.eval_cubic(q, vc.herm_from_vector(alg, x0 + e))
                fm = vc.eval_cubic(q, vc.herm_from_vector(alg, x0 - e))
                fd[i] = (fp - fm) / (2.0 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6 * max(1.0, np.max(np.abs(g))))

    @pytest.mark.parametrize("cone,q", CONFIGS)
    def test_hessian_log_symmetric(self, cone, q):
        rng = np.random.default_rng(2)
        X = random_orbit_point(cone, rng)
        while abs(vc.eval_cubic(q, X)) <= 1e-6:
            X = random_orbit_point(cone, rng)
        M = vc.hessian_log(q, X)
        assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))

    @pytest.mark.parametrize("cone,q", CONFIGS)
    def test_hessian_log_vs_finite_differences(self, cone, q):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 5:
            X = random_orbit_point(cone, rng)
            if vc.eval_cubic(q, X) <= 1e-6:
                continue
            X = project_to_level_set(q, X)
            M = vc.hessian_log(q, X)
            assert rel_to_scale(M, fd_hessian_log(q, X)) <= 1e-5
            checked += 1

    @pytest.mark.parametrize("cone,q", CONFIGS)
    def test_hessian_log_vs_gradient_differences(self, cone, q):
        # second exact route: differencing the closed-form gradient is exact
        # for a cubic up to rounding
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 5:
            X = random_orbit_point(cone, rng)
            if vc.eval_cubic(q, X) <= 1e-6:
                continue
            X = project_to_level_set(q, X)
            M = vc.hessian_log(q, X)
            assert rel_to_scale(M, hessian_log_from_gradient_differences(q, X)) <= 1e-10
            checked += 1

    @pytest.mark.parametrize("case", PRODUCT_MODULES, ids=str)
    def test_gathers_match_dense_tensor(self, case):
        cone = rank3_cone(*case)
        rng = np.random.default_rng(case[0])
        q = vc.InvariantCubic(cone, tuple(rng.uniform(-1, 1, 3)))
        X = random_orbit_point(cone, rng)
        g, H = dense_cubic_derivatives(q, X)
        assert rel_to_scale(vc.gradient(q, X), g) <= 1e-12
        assert rel_to_scale(vc.cubic_hessian(q, X), H) <= 1e-12

    def test_scaling_covariance(self):
        cone = rank3_cone(2)
        q = vc.InvariantCubic.rank3_family(cone, 0.4, -0.1)
        rng = np.random.default_rng(5)
        X = random_orbit_point(cone, rng)
        lam = 3.0
        M1 = vc.hessian_log(q, X)
        M2 = vc.hessian_log(q, X.scaled(lam))
        np.testing.assert_allclose(M2, M1 / lam**2, rtol=1e-11)

    def test_hessian_log_rejects_level_zero(self):
        cone = rank2_cone(1)
        q = vc.InvariantCubic.rank2_family(cone, 0.0)
        X = vc.HermMatrix(cone.algebra, [1.0, 0.0], {})
        with pytest.raises(OutsideConeError):
            vc.hessian_log(q, X)


class TestDiagonalClosedForms:
    @pytest.mark.parametrize("dim_w", [1, 4, 9])
    @pytest.mark.parametrize("eps", [-1.0, -0.1, 0.0, 0.5, 2.0])
    def test_rank2_matches(self, dim_w, eps):
        cone = rank2_cone(dim_w)
        q = vc.InvariantCubic.rank2_family(cone, eps)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x2 = float(rng.uniform(0.2, 3.0))
            x1 = (1.0 - eps * x2**3) / x2**2
            if x1 <= 0:
                continue
            X = vc.HermMatrix(cone.algebra, [x1, x2], {})
            M = vc.hessian_log(q, X)
            assert rel_to_scale(M, rank2_diagonal_hessian(q, x1, x2)) <= 1e-10

    def test_rank2_second_minor_identity(self):
        # det of the leading 2x2 block is 2 / (x2(x1 + eps x2))^2
        rng = np.random.default_rng(7)
        for eps in (-0.5, 0.0, 1.5):
            cone = rank2_cone(3)
            q = vc.InvariantCubic.rank2_family(cone, eps)
            for _ in range(10):
                x2 = float(rng.uniform(0.2, 3.0))
                x1 = (1.0 - eps * x2**3) / x2**2
                if x1 <= 0:
                    continue
                M = vc.hessian_log(q, vc.HermMatrix(cone.algebra, [x1, x2], {}))
                got = float(np.linalg.det(M[:2, :2]))
                want = 2.0 / (x2 * (x1 + eps * x2)) ** 2
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("dim_v", [1, 4, 8])
    @pytest.mark.parametrize("eps", [(0.0, 0.0), (1.0, 0.1), (0.5, -0.25), (-0.5, 0.0)])
    def test_rank3_matches(self, dim_v, eps):
        cone = rank3_cone(dim_v)
        q = vc.InvariantCubic.rank3_family(cone, *eps)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x1, x2, x3 = rng.uniform(0.3, 2.5, 3)
            X = vc.HermMatrix(cone.algebra, [x1, x2, x3], {})
            M = vc.hessian_log(q, X)
            assert rel_to_scale(M, rank3_diagonal_hessian(q, x1, x2, x3)) <= 1e-10


class TestTangentRestriction:
    def test_rank2_identity_point(self):
        # at eps = 0 and X = I the full matrix is diag(1, 2, 2 I_w)
        cone = rank2_cone(3)
        q = vc.InvariantCubic.rank2_family(cone, 0.0)
        X = vc.herm_identity(cone.algebra)
        M = vc.hessian_log(q, X)
        np.testing.assert_allclose(M, np.diag([1.0, 2.0, 2.0, 2.0, 2.0]), atol=1e-13)
        rep = vc.tangent_restriction(q, X)
        assert rep.verdict == PD

    def test_rank3_det_cubic_identity_point(self):
        cone = rank3_cone(2)
        q = vc.InvariantCubic.rank3_family(cone, 0.0, 0.0)
        rep = vc.tangent_restriction(q, vc.herm_identity(cone.algebra))
        assert rep.verdict == PD
        assert np.all(rep.leading_minors > 0)

    def test_projection_onto_level_set(self):
        cone = rank3_cone(1)
        q = vc.InvariantCubic.rank3_family(cone, 0.0, 0.0)
        X = vc.herm_identity(cone.algebra).scaled(3.0)
        rep = vc.tangent_restriction(q, X)
        assert vc.eval_cubic(q, rep.point) == pytest.approx(1.0, abs=1e-12)

    def test_tangent_basis_annihilates_gradient(self):
        cone = rank3_cone(4)
        q = vc.InvariantCubic.rank3_family(cone, 0.2, -0.1)
        rng = np.random.default_rng(9)
        X = random_orbit_point(cone, rng)
        rep = vc.tangent_restriction(q, X)
        g = vc.gradient(q, rep.point)
        gn = np.linalg.norm(g)
        assert np.max(np.abs(rep.tangent_basis.T @ g)) <= 1e-10 * gn
        BtB = rep.tangent_basis.T @ rep.tangent_basis
        np.testing.assert_allclose(BtB, np.eye(cone.dim_herm - 1), atol=1e-12)

    def test_verdict_invariant_under_basis_rotation(self):
        cone = rank3_cone(2)
        rng = np.random.default_rng(10)
        for eps in ((0.0, 0.0), (1.0, 0.5), (0.3, -0.4)):
            q = vc.InvariantCubic.rank3_family(cone, *eps)
            pts = [(2.0, 1.0, 0.5), (0.4, 1.3, 2.0)]
            for x2, x3, _ in pts:
                x1 = (1.0 - eps[0] * x2 * x3**2 - eps[1] * x3**3) / (x2 * x3)
                if x1 <= 0:
                    continue
                X = vc.HermMatrix(cone.algebra, [x1, x2, x3], {})
                rep = vc.tangent_restriction(q, X)
                # rotate the tangent basis and recompute the verdict
                k = rep.tangent_basis.shape[1]
                Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
                R2 = (rep.tangent_basis @ Q).T @ rep.hessian @ (rep.tangent_basis @ Q)
                ev_orig = np.linalg.eigvalsh(rep.restricted)
                ev_rot = np.linalg.eigvalsh(0.5 * (R2 + R2.T))
                np.testing.assert_allclose(ev_rot, ev_orig, rtol=1e-8, atol=1e-12)

    def test_rejects_nonpositive_level(self):
        cone = rank2_cone(1)
        q = vc.InvariantCubic.rank2_family(cone, 0.0)
        X = vc.HermMatrix(cone.algebra, [-1.0, 1.0], {})
        assert vc.eval_cubic(q, X) < 0
        with pytest.raises(OutsideConeError):
            vc.tangent_restriction(q, X)

    def test_refuses_indefinite_cone(self):
        alg = vc.rank2_algebra(vc.MetricSpace.canonical(1, 1))
        cone = vc.cone_from_algebra(alg)
        q = vc.InvariantCubic.rank2_family(cone, 0.0)
        with pytest.raises(IndefiniteSignatureError):
            vc.tangent_restriction(q, vc.herm_identity(alg))

    def test_refuses_indefinite_rank3_cone(self):
        module = vc.build_clifford_module(2, signature=(1, 1))
        cone = vc.cone_from_algebra(vc.rank3_special(module))
        q = vc.InvariantCubic.rank3_family(cone, 0.0, 0.0)
        with pytest.raises(IndefiniteSignatureError):
            vc.tangent_restriction(q, vc.herm_identity(cone.algebra))
        with pytest.raises(IndefiniteSignatureError):
            vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=5))


def random_forms(r: int, n: int, seed: int):
    """n symmetric r x r forms of mixed scale and n unit vectors, one of
    them along an axis and one with two equally aligned axes."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, r, r)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
    u = rng.normal(size=(n, r))
    u[0] = np.eye(r)[r - 1]
    u[1, :2] = 1.0
    return A + A.transpose(0, 2, 1), u / np.linalg.norm(u, axis=1, keepdims=True)


class TestSharedSteps:
    """The restriction and -Hess(log q) that the dense path and the diagonal
    kernel share."""

    @pytest.mark.parametrize("r", [2, 3, 27])
    def test_stack_rows_equal_single_calls(self, r):
        M, u = random_forms(r, 40, r)
        stacked = cubics._restrict(M, u)
        for i in range(len(M)):
            for got, want in zip(stacked, cubics._restrict(M[i], u[i])):
                assert np.array_equal(got[i], want), i

    @pytest.mark.parametrize("r", [2, 3, 27])
    def test_basis_orthonormal_and_orthogonal_to_u(self, r):
        M, u = random_forms(r, 40, 100 + r)
        basis, R, minors, scale = cubics._restrict(M, u)
        assert basis.shape == (40, r, r - 1) and R.shape == (40, r - 1, r - 1) and minors.shape == (40, r - 1)
        assert np.max(np.abs(u[:, None, :] @ basis)) <= 1e-14
        np.testing.assert_allclose(basis.transpose(0, 2, 1) @ basis, np.broadcast_to(np.eye(r - 1), R.shape), atol=1e-14)
        np.testing.assert_array_equal(R, R.transpose(0, 2, 1))
        # the Jacobi scaling puts +/-1 on the diagonal; the first minor is that entry
        np.testing.assert_allclose(np.abs(minors[:, 0]), 1.0, rtol=1e-15)
        assert np.all(scale >= np.abs(minors[:, 0]))

    @pytest.mark.parametrize(
        "cone,coeffs",
        [
            (rank2_cone(4), (0.5, 1.0)),
            (rank3_cone(1), (1.0, 0.5, -0.25)),
            (rank3_cone(8), (1.0, -1.5, -0.5)),
            (rank3_cone(8), (0.0, 1.0, 0.5)),
        ],
    )
    def test_report_hessian_is_hessian_log(self, cone, coeffs):
        q = vc.InvariantCubic(cone, coeffs)
        rng = np.random.default_rng(31)
        for _ in range(4):
            X = random_orbit_point(cone, rng)
            if vc.eval_cubic(q, X) <= 0.0:
                continue
            rep = vc.tangent_restriction(q, X)
            assert np.array_equal(rep.hessian, vc.hessian_log(q, rep.point))

    def test_one_evaluation_per_dense_call(self, monkeypatch):
        cone = rank3_cone(4)
        q = vc.InvariantCubic.rank3_family(cone, 0.5, -0.25)
        X = vc.tangent_restriction(q, random_orbit_point(cone, np.random.default_rng(32))).point
        calls = {"eval_cubic": 0, "gradient": 0, "cubic_hessian": 0}
        for name in calls:
            real = getattr(cubics, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(cubics, name, counted)
        cubics.tangent_restriction(q, X)
        assert calls == {"eval_cubic": 1, "gradient": 1, "cubic_hessian": 1}
        # off the level set, q is evaluated again at the projected point only
        cubics.tangent_restriction(q, X.scaled(2.0))
        assert calls == {"eval_cubic": 3, "gradient": 2, "cubic_hessian": 2}


def zero_block_points() -> np.ndarray:
    """Points with x1 = x3: a x1 + b x3 = 0 there when a = -b, so the last
    block's sign is 0 after two positive blocks."""
    t, s = (m.ravel() for m in np.meshgrid(np.geomspace(0.1, 10.0, 9), np.geomspace(0.1, 10.0, 7)))
    return np.stack([t, s, t], axis=1)


# cubics whose restricted forms have an exactly zero leading minor: a = 0
# zeroes the first two rank-3 blocks (all three when b = 0 too), b = 0 the
# rank-2 block, and a = -b at x1 = x3 the last rank-3 block
ZERO_PIVOT_CUBICS = [
    (rank3_cone(4), (0.0, 1.0, 0.0)),
    (rank3_cone(4), (0.0, 1.0, 0.5)),
    (rank3_cone(1), (0.0, 1.0, -0.5)),
    (rank3_cone(3), (0.0, 0.0, 1.0)),
    (rank2_cone(4), (1.0, 0.0)),
    (rank2_cone(3), (1.0, 0.0)),
    (rank3_cone(1), (1.0, -1.0, 0.5)),
    (rank3_cone(3), (1.0, -1.0, 0.5)),
]


def zero_pivot_points(q) -> np.ndarray:
    if q.coeffs[0] == -q.coeffs[1]:
        return zero_block_points()
    return cubics._slice_points(q, vc.DiagonalGrid(n=8))


def assert_minors_match_oracle(minors, R, rel: float) -> float:
    """The minors of _restrict against one det per minor of the Jacobi-scaled
    R: bit for bit in every form with an exactly zero minor (those take the
    det route), within rel of each minor elsewhere; returns the worst
    relative deviation."""
    want = det_leading_minors(jacobi_scaled(R))
    zero = np.any(want == 0.0, axis=-1)
    assert np.array_equal(minors[zero], want[zero])
    got, want = minors[~zero], want[~zero]
    dev = np.abs(got - want) / np.abs(want)
    assert np.all(dev <= rel), float(np.max(dev))
    return float(np.max(dev, initial=0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLeadingMinorsOracle:
    """The pivot-product minors against one determinant per minor.  The
    class runs with RuntimeWarnings as errors, and once more under
    ``python -O`` (TestLeadingMinorsOptimized)."""

    @pytest.mark.parametrize("r", [2, 3, 27])
    def test_random_forms(self, r):
        # worst deviation seen: 0 (r = 2), 4.0e-16 (r = 3), 1.6e-11 (r = 27)
        M, u = random_forms(r, 40, 200 + r)
        _, R, minors, _ = cubics._restrict(M, u)
        assert_minors_match_oracle(minors, R, 1e-9)

    def test_swap_form(self):
        # the first pivot is 0: the det route, alone and inside a stack
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(cubics._leading_minors(A), det_leading_minors(A))
        stack = np.stack([np.eye(2), A, 2.0 * np.eye(2)])
        assert np.array_equal(cubics._leading_minors(stack), [[1.0, 1.0], [0.0, -1.0], [2.0, 4.0]])

    def test_zero_row_later(self):
        A = np.diag([1.0, -2.0, 0.0, 3.0])
        A[0, 3] = A[3, 0] = 0.5
        assert np.array_equal(cubics._leading_minors(A), det_leading_minors(A))

    @pytest.mark.parametrize("cone,coeffs", ZERO_PIVOT_CUBICS)
    def test_zero_pivot_cubics_kernel_cores(self, cone, coeffs):
        q = vc.InvariantCubic(cone, coeffs)
        M, u, _ = kernel_core_forms(q, zero_pivot_points(q))
        _, R, minors, _ = cubics._restrict(M, u)
        assert np.any(det_leading_minors(jacobi_scaled(R)) == 0.0)
        assert_minors_match_oracle(minors, R, 1e-9)

    @pytest.mark.parametrize("cone,coeffs", ZERO_PIVOT_CUBICS)
    def test_zero_pivot_cubics_dense(self, cone, coeffs):
        q = vc.InvariantCubic(cone, coeffs)
        for row in zero_pivot_points(q)[:10]:
            rep = vc.tangent_restriction(q, vc.HermMatrix(cone.algebra, row, {}))
            want = det_leading_minors(jacobi_scaled(rep.restricted))
            assert np.any(want == 0.0)
            assert np.array_equal(rep.leading_minors, want), row

    def test_ill_conditioned_cells_dense(self):
        # min_minor ~ 2e-6 from cancellation in the core (see TestDiagonalKernel)
        for eps in [(-1.5, -1.0), (-0.5, -0.25)]:
            q = vc.InvariantCubic.rank3_family(rank3_cone(8), *eps)
            for row in diagonal_points(q)[::40]:
                rep = vc.tangent_restriction(q, vc.HermMatrix(q.cone.algebra, row, {}))
                # worst deviation seen: 1.7e-15
                assert_minors_match_oracle(rep.leading_minors[None], rep.restricted[None], 1e-9)


class TestLeadingMinorsOptimized:
    def test_oracle_under_optimize_and_warnings_as_errors(self):
        # the oracle class again in a fresh `python -O -W error::RuntimeWarning`:
        # nothing the minors rely on is an assert, and no warning escapes
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        cmd = [sys.executable, "-O", "-W", "error::RuntimeWarning", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        out = subprocess.run(
            cmd + [f"{Path(__file__).resolve()}::TestLeadingMinorsOracle"],
            cwd=tests.parent, env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert " passed" in out.stdout and "failed" not in out.stdout


class TestDegenerateCubics:
    def test_rank2_pure_x2_cube(self):
        cone = rank2_cone(3)
        q = vc.InvariantCubic(cone, (1.0, 0.0))
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=25))
        assert not rep.all_pd
        assert all(w.kind == DEGENERATE for w in rep.witnesses)
        assert len(rep.witnesses) == rep.checked

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0), (0.0, 1.0, 0.5), (0.0, 1.0, -0.5)])
    def test_rank3_missing_det_never_pd(self, coeffs):
        cone = rank3_cone(2)
        q = vc.InvariantCubic(cone, coeffs)
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=8))
        assert not rep.all_pd
        assert all(w.kind in (DEGENERATE, INDEFINITE) for w in rep.witnesses)
        assert len(rep.witnesses) == rep.checked

    def test_rank3_missing_det_off_diagonal_points(self):
        cone = rank3_cone(2)
        q = vc.InvariantCubic(cone, (0.0, 1.0, 0.0))
        rng = np.random.default_rng(11)
        found = 0
        while found < 10:
            X = random_orbit_point(cone, rng)
            if vc.eval_cubic(q, X) <= 1e-6:
                continue
            rep = vc.tangent_restriction(q, X)
            assert rep.verdict != PD
            found += 1


class TestDiagonalSweeps:
    @pytest.mark.parametrize("eps", [-1.0, 0.0, 0.5, 2.0])
    def test_rank2_all_pd(self, eps):
        cone = rank2_cone(4)
        q = vc.InvariantCubic.rank2_family(cone, eps)
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=100))
        assert rep.all_pd
        assert rep.checked == 100

    @pytest.mark.parametrize("eps1", [-2.0, 0.0, 2.0])
    def test_rank3_eps2_zero_all_pd(self, eps1):
        cone = rank3_cone(2)
        q = vc.InvariantCubic.rank3_family(cone, eps1, 0.0)
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=20))
        assert rep.all_pd

    def test_rank3_positive_eps2_fails_with_witness(self):
        cone = rank3_cone(1)
        q = vc.InvariantCubic.rank3_family(cone, 1.0, 0.1)
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=20))
        assert not rep.all_pd
        assert rep.witnesses
        # the failure shows up near the largest feasible x3
        assert all(w.coords[2] <= 1e3 for w in rep.witnesses)

    def test_rank3_negative_eps1_positive_eps2_constraint_witness(self):
        cone = rank3_cone(1)
        q = vc.InvariantCubic.rank3_family(cone, -1.0, 0.5)
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=20))
        kinds = {w.kind for w in rep.witnesses}
        assert "constraint" in kinds

    @pytest.mark.parametrize("Grid", [vc.DiagonalGrid, vc.SearchGrid])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": -1.0},
            {"hi": np.inf},
            {"lo": 0.0},
            {"n": -1},
            {"n": 0},
            {"n": True},
            {"n": 2.5},
            {"lo": np.nan},
            {"lo": 2.0, "hi": 1.0},
        ],
        ids=["lo-negative", "hi-inf", "lo-zero", "n-negative", "n-zero", "n-bool", "n-float", "lo-nan", "lo-above-hi"],
    )
    def test_bad_grid_rejected_when_made(self, Grid, kwargs):
        # on dim_v = 1, q = d + 0.5 p2 p3 - 0.25 p3^3 used to sweep such grids:
        # lo = -1 gave a witness outside the cone, hi = inf numpy warnings and
        # all_pd on one point, lo = 0 and n = -1 numpy's ValueError, n = 0 an
        # OutsideConeError
        with pytest.raises(SpecError, match="grid needs"):
            Grid(**kwargs)

    def test_good_grid_edges_accepted(self):
        q = vc.InvariantCubic.rank3_family(rank3_cone(1), 0.5, -0.25)
        rep = vc.admissibility_on_diagonal(q, vc.DiagonalGrid(lo=1, hi=1, n=np.int64(1)))
        assert rep.checked >= 1
        assert vc.SearchGrid(lo=0.5, hi=0.5, n=1).n == 1

    def test_empty_grid_rejected(self):
        cone = rank2_cone(1)
        q = vc.InvariantCubic(cone, (-1.0, 0.0))  # negative multiple of x2^3
        with pytest.raises(OutsideConeError):
            vc.admissibility_on_diagonal(q, vc.DiagonalGrid(n=10))


def diagonal_points(q, n: int = 12) -> np.ndarray:
    """The sweep's slice points and, for rank-3 cubics with a determinant
    term, the local search's grid points, less the slope-constraint ones."""
    x = cubics._slice_points(q, vc.DiagonalGrid(n=n))
    if q.cone.rank == 3 and q.coeffs[0] != 0.0:
        x = np.vstack([x, cubics._slice_points(q, vc.SearchGrid(n=n))])
    return x[~cubics._constraint_violated(q, x)]


def _grid_id(grid) -> str:
    return f"{grid.lo:g}-{grid.hi:g}-n{grid.n}"


class TestSlicePoints:
    """The vectorized sampler against the point loops it replaced: the same
    points, bit for bit, in the same order."""

    # b = 0; b < 0; a, b > 0 (respaced inside x1 > 0); a <= 0 < b
    RANK2 = [(0.0, 0.0), (1.0, 0.0), (0.5, -1.0), (-2.0, -0.5), (0.3, 1.0), (2.0, 0.5), (-0.7, 1.0)]
    # a = b = 0; a = 0 != b; a, c > 0 (boundary probes); c <= 0 or a < 0
    RANK3 = [
        (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0),
        (0.0, 1.0, 0.5),
        (0.0, -1.0, -0.5),
        (1.0, 0.5, 0.25),
        (1.0, -1.5, 0.75),
        (2.0, 1.0, 1e-3),
        (1.0, 0.5, 0.0),
        (1.0, -1.0, -0.5),
        (-1.0, 0.5, 0.5),
        (1.0, 0.0, 0.0),
    ]
    # the last grid reaches past PROBE_MAX, where the sweep stops
    GRIDS = [vc.DiagonalGrid(n=n) for n in (1, 5, 12, 100)] + [vc.DiagonalGrid(0.5, 5e3, 30)]

    @pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
    @pytest.mark.parametrize("coeffs", RANK2)
    def test_rank2_sweep(self, coeffs, grid):
        q = vc.InvariantCubic(rank2_cone(1), coeffs)
        want = np.array(reference_rank2_slice_points(q, grid)).reshape(-1, 2)
        assert np.array_equal(cubics._slice_points(q, grid), want)

    @pytest.mark.parametrize("grid", GRIDS, ids=_grid_id)
    @pytest.mark.parametrize("coeffs", RANK3)
    def test_rank3_sweep(self, coeffs, grid):
        q = vc.InvariantCubic(rank3_cone(1), coeffs)
        want = np.array(reference_rank3_slice_points(q, grid)).reshape(-1, 3)
        assert np.array_equal(cubics._slice_points(q, grid), want)

    SEARCHES = [vc.SearchGrid(), vc.SearchGrid(n=1), vc.SearchGrid(n=12), vc.SearchGrid(1.0, 10.0)]

    @pytest.mark.parametrize("search", SEARCHES, ids=_grid_id)
    @pytest.mark.parametrize("coeffs", [c for c in RANK3 if c[0] != 0.0])
    def test_local_search_square(self, coeffs, search):
        q = vc.InvariantCubic(rank3_cone(1), coeffs)
        want = np.array(reference_search_points(q, search)).reshape(-1, 3)
        assert np.array_equal(cubics._slice_points(q, search), want)


def assert_kernel_matches_dense(q, x):
    codes, minors = cubics._diagonal_verdicts(q, x)
    verdicts = [cubics._KINDS[k] for k in codes]
    for row, verdict, mm in zip(x, verdicts, minors):
        rep = vc.tangent_restriction(q, vc.HermMatrix(q.cone.algebra, row, {}))
        assert verdict == rep.verdict, row
        want = rep.min_minor
        assert mm == want or abs(mm - want) <= 1e-9 * max(abs(mm), abs(want)), row
    return verdicts


class TestDiagonalKernel:
    """The batched diagonal kernel against the dense tangent_restriction,
    point by point: same verdict, min_minor to 1e-9."""

    @pytest.mark.parametrize("dim_v", [1, 4, 8])
    @pytest.mark.parametrize("eps", [(0.0, 0.0), (0.5, -0.25), (1.0, 0.1), (-1.0, -0.5)])
    def test_rank3(self, dim_v, eps):
        q = vc.InvariantCubic.rank3_family(rank3_cone(dim_v), *eps)
        assert_kernel_matches_dense(q, diagonal_points(q))

    @pytest.mark.parametrize("dim_w", [1, 4])
    @pytest.mark.parametrize("eps", [-1.0, 0.0, 0.5, 2.0])
    def test_rank2(self, dim_w, eps):
        q = vc.InvariantCubic.rank2_family(rank2_cone(dim_w), eps)
        assert_kernel_matches_dense(q, diagonal_points(q, 40))

    @pytest.mark.parametrize(
        "cone,coeffs",
        [
            (rank3_cone(4), (0.0, 1.0, 0.0)),
            (rank3_cone(4), (0.0, 1.0, 0.5)),
            (rank3_cone(1), (0.0, 1.0, -0.5)),
            (rank2_cone(4), (1.0, 0.0)),
        ],
    )
    def test_degenerate_cubics(self, cone, coeffs):
        q = vc.InvariantCubic(cone, coeffs)
        verdicts = assert_kernel_matches_dense(q, diagonal_points(q, 8))
        assert PD not in set(verdicts)

    @pytest.mark.parametrize(
        "eps", [(-1.5, -1.0), (-1.5, -0.75), (-1.5, -0.5), (-1.5, -0.25), (-0.5, -0.25)]
    )
    def test_ill_conditioned_cells(self, eps):
        # min_minor ~ 2e-6 from cancellation at x1 ~ 100-700: a last-bit
        # change in the core grows about 1e5-fold here
        q = vc.InvariantCubic.rank3_family(rank3_cone(8), *eps)
        assert_kernel_matches_dense(q, diagonal_points(q))

    def test_non_orthonormal_block_gram(self):
        gram = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]])
        cone = vc.cone_from_algebra(vc.rank2_algebra(vc.MetricSpace(3, (3, 0), gram)))
        q = vc.InvariantCubic.rank2_family(cone, 0.5)
        assert_kernel_matches_dense(q, diagonal_points(q, 20))

    @pytest.mark.parametrize("eps", [(0.0, 0.0), (0.5, -0.25), (-1.0, 0.5)])
    def test_rank3_block_scalars_match_closed_form(self, eps):
        cone = rank3_cone(4)
        q = vc.InvariantCubic.rank3_family(cone, *eps)
        x = np.random.default_rng(13).uniform(0.3, 2.5, (10, 3))
        blocks = cubics._diagonal_parts(q, x)[3]
        starts = np.cumsum([3] + [cone.algebra.dim(k) for k in cone.algebra.offdiag_keys])[:-1]
        for row, got in zip(x, blocks):
            M = rank3_diagonal_hessian(q, *row)
            np.testing.assert_allclose(got, M[starts, starts], rtol=1e-12)

    @pytest.mark.parametrize("eps", [-1.0, 0.5])
    def test_rank2_block_scalars_match_closed_form(self, eps):
        q = vc.InvariantCubic.rank2_family(rank2_cone(4), eps)
        for x2 in (0.3, 1.0, 1.7):
            x1 = (1.0 - eps * x2**3) / x2**2
            blocks = cubics._diagonal_parts(q, np.array([[x1, x2]]))[3]
            np.testing.assert_allclose(blocks[0], rank2_diagonal_hessian(q, x1, x2)[2, 2], rtol=1e-12)

    def test_rejects_nonpositive_level(self):
        q = vc.InvariantCubic.rank2_family(rank2_cone(1), 0.0)
        with pytest.raises(OutsideConeError):
            cubics._diagonal_verdicts(q, np.array([[-1.0, 1.0]]))


# the ROADMAP epsilon plane, as the CLI's -2:2:0.5 and -1:1:0.25 ranges space it
PLANE = [(-2.0 + 0.5 * i, -1.0 + 0.25 * j) for i in range(9) for j in range(9)]


def assert_kernel_matches_oracle(q, x):
    """The kernel's verdicts and min_minor equal those of the tail formed
    entry by entry, bit for bit; returns how many points it compared."""
    codes, minors = cubics._diagonal_verdicts(q, x)
    want_kinds, want_minors = reference_diagonal_verdicts(q, x)
    assert np.array_equal(np.array(cubics._KINDS, dtype=object)[codes], want_kinds)
    assert np.array_equal(minors, want_minors, equal_nan=True)
    return len(x)


def assert_sweeps_match_oracle(q, grid, search=None):
    """The kernel at every point of the sweep (and of the search grid), and
    the reports built on it, against the oracle's."""
    x = cubics._slice_points(q, grid)
    if search is not None:
        x = np.vstack([x, cubics._slice_points(q, search)])
    x = x[~cubics._constraint_violated(q, x)]
    n = assert_kernel_matches_oracle(q, x) if len(x) else 0
    assert same_bits(vc.admissibility_on_diagonal(q, grid), reference_admissibility_on_diagonal(q, grid))
    return n


def signed_diagonal_points(q, n: int, seed: int) -> np.ndarray:
    """Random diagonal points with q > 0, slope constraint or not, so that
    each block scalar takes both signs."""
    x = 10.0 ** np.random.default_rng(seed).uniform(-1.5, 1.5, (n, q.cone.rank))
    qx = cubics._diagonal_parts(q, x)[0]
    return x[qx > 0.0]


class TestDiagonalKernelOracle:
    """The kernel's tail, read off each block's sign and parity and the
    cone's pivot extremes, against the tail formed over every off-diagonal
    coordinate: verdicts and min_minor array_equal at every point."""

    @pytest.mark.parametrize("dim_v", [1, 8, 16])
    def test_roadmap_plane(self, dim_v):
        cone = rank3_cone(dim_v)
        grid, search = vc.DiagonalGrid(n=12), vc.SearchGrid(n=12)
        checked = 0
        for eps in PLANE:
            q = vc.InvariantCubic.rank3_family(cone, *eps)
            checked += assert_sweeps_match_oracle(q, grid, search)
            if dim_v <= 8:  # the dense restriction at dim_v = 16 takes about 0.2 s
                got = vc.find_locally_admissible_point(q, search)
                assert same_bits(got, reference_find_locally_admissible_point(q, search)), eps
        assert checked > 10_000

    @pytest.mark.parametrize("dim_w", [1, 4])
    @pytest.mark.parametrize("eps", [-2.0, -0.25, 0.0, 0.5, 2.0])
    def test_rank2_families(self, dim_w, eps):
        q = vc.InvariantCubic.rank2_family(rank2_cone(dim_w), eps)
        for n in (12, 100):
            assert assert_sweeps_match_oracle(q, vc.DiagonalGrid(n=n)) > 0

    @pytest.mark.parametrize("gram", [FULL_V, FULL_S], ids=["dim3", "dim4"])
    @pytest.mark.parametrize("coeffs", [(0.5, 1.0), (1.0, -1.0), (-0.3, 1.0)])
    def test_non_orthonormal_block_gram(self, gram, coeffs):
        # pivots other than 1; b < 0 makes the block sign -1, so the tail
        # alternates in sign along the running pivot products
        cone = vc.cone_from_algebra(vc.rank2_algebra(vc.MetricSpace.with_gram(gram)))
        assert np.ptp(cone.algebra.gram_pivots) > 0.1
        q = vc.InvariantCubic(cone, coeffs)
        assert assert_sweeps_match_oracle(q, vc.DiagonalGrid(n=40)) > 0
        assert_kernel_matches_oracle(q, signed_diagonal_points(q, 200, 7))

    @pytest.mark.parametrize("cone,coeffs", ZERO_PIVOT_CUBICS[:6])
    def test_degenerate_cubics(self, cone, coeffs):
        # zero block signs: a = 0 zeroes the first two rank-3 blocks (all
        # three when b = 0 too), b = 0 the rank-2 block
        q = vc.InvariantCubic(cone, coeffs)
        x = cubics._slice_points(q, vc.DiagonalGrid(n=8))
        assert np.any(cubics._diagonal_parts(q, x)[3] == 0.0)
        assert assert_kernel_matches_oracle(q, x) > 0
        codes, _ = cubics._diagonal_verdicts(q, x)
        assert cubics._PD not in set(codes.tolist())

    @pytest.mark.parametrize("dim_v", [1, 3])
    def test_zero_last_block_sign(self, dim_v):
        # a x1 + b x3 = 0 at x1 = x3 when a = -b: the last block's sign is 0
        # after two positive blocks
        q = vc.InvariantCubic(rank3_cone(dim_v), (1.0, -1.0, 0.5))
        x = zero_block_points()
        assert np.all(cubics._diagonal_parts(q, x)[3][:, 2] == 0.0)
        assert assert_kernel_matches_oracle(q, x) == len(x)

    @pytest.mark.parametrize("cone", [rank3_cone(3), rank3_cone(1, 2)], ids=["4-4-3", "2-2-1"])
    @pytest.mark.parametrize(
        "coeffs", [(1.0, 0.5, -0.25), (1.0, -1.5, 0.75), (-1.0, 2.0, 0.5), (-1.0, -0.5, 1.0), (2.0, 1.0, 1e-3)]
    )
    def test_odd_and_even_block_dimensions(self, cone, coeffs):
        q = vc.InvariantCubic(cone, coeffs)
        search = vc.SearchGrid(n=12)
        assert_sweeps_match_oracle(q, vc.DiagonalGrid(n=20), search)
        x = signed_diagonal_points(q, 400, 11)
        signs = np.sign(cubics._diagonal_parts(q, x)[3])
        assert np.any(signs < 0.0) == (min(coeffs[:2]) < 0.0)
        assert assert_kernel_matches_oracle(q, x) == len(x)
        want = reference_find_locally_admissible_point(q, search)
        assert same_bits(vc.find_locally_admissible_point(q, search), want)

    @pytest.mark.parametrize(
        "alg",
        [
            rank3_cone(3).algebra,
            rank3_cone(1, 2).algebra,
            vc.rank2_algebra(vc.MetricSpace.with_gram(FULL_V)),
            vc.rank2_algebra(vc.MetricSpace.with_gram(FULL_S)),
        ],
        ids=["4-4-3", "2-2-1", "gram3", "gram4"],
    )
    def test_tail_stands_for_every_sign_pattern(self, alg):
        # every pattern of block signs in {-1, 0, 1} against every kind of
        # det(core): the kept entries have the whole tail's minimum and give
        # the verdict rule the whole tail's outcome
        nblocks = len(alg.offdiag_keys)
        signs = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * nblocks)).reshape(nblocks, -1).T
        dets = np.array([1.0, -1.0, 0.0, 3e-13, -3e-13, 0.7, np.nan])
        signs, det_core = np.repeat(signs, len(dets), axis=0), np.tile(dets, len(signs))
        dims = [alg.dim(k) for k in alg.offdiag_keys]
        tail = det_core[:, None] * np.cumprod(np.repeat(signs, dims, axis=1) * alg.gram_pivots, axis=1)
        kept = cubics._tail_minors(alg, det_core, signs)
        assert np.array_equal(np.min(kept, axis=1), np.min(tail, axis=1), equal_nan=True)
        scale = np.full(len(signs), 1.0)
        want = reference_verdicts_from_minors(tail, scale)
        assert np.array_equal(np.array(cubics._KINDS, dtype=object)[cubics._verdict_from_minors(kept, scale)], want)

    def test_tail_entries(self):
        # a dimension-4 block with unequal pivots: P at offsets 0 and 2
        # (sign to the power 1, column 1 of [1 | s | s^2]) and 1 and 3
        # (power 2, column 2) are all extremes of their parity
        alg = vc.rank2_algebra(vc.MetricSpace.with_gram(FULL_S))
        columns, values = alg._tail_entries
        P = np.cumprod(alg.gram_pivots)
        assert columns.tolist() == [[1], [2], [1], [2]]
        assert values.tolist() == P.tolist()
        # orthonormal blocks of dimensions 4, 4, 3: P is all 1, one entry per
        # block and parity; the powers of the earlier blocks follow their
        # parities, later blocks contribute 1 (column b of the first third)
        columns, values = rank3_cone(3).algebra._tail_entries
        assert values.tolist() == [1.0] * 6
        assert columns.tolist() == [[3, 1, 2], [6, 1, 2], [6, 4, 2], [6, 7, 2], [6, 7, 5], [6, 7, 8]]


class TestLocalSearch:
    @pytest.mark.parametrize("eps2", [-0.25, -1.0])
    def test_witness_for_negative_eps2(self, eps2):
        cone = rank3_cone(1)
        q = vc.InvariantCubic.rank3_family(cone, abs(eps2), eps2)
        rep = vc.find_locally_admissible_point(q)
        assert rep is not None
        assert rep.verdict == PD
        assert np.all(rep.leading_minors > 0)

    def test_eps2_zero_any_point_works(self):
        cone = rank3_cone(1)
        q = vc.InvariantCubic.rank3_family(cone, 0.7, 0.0)
        rep = vc.find_locally_admissible_point(q, vc.SearchGrid(n=3))
        assert rep is not None

    def test_exploratory_region_may_return_none(self):
        # far outside the covered family; record the outcome, no assertion
        # on existence either way
        cone = rank3_cone(1)
        q = vc.InvariantCubic.rank3_family(cone, -10.0, -1.0)
        rep = vc.find_locally_admissible_point(q, vc.SearchGrid(n=6))
        assert rep is None or rep.verdict == PD

    @pytest.mark.parametrize(
        "search", [vc.SearchGrid(), vc.SearchGrid(n=1), vc.SearchGrid(lo=1.0, hi=1.0, n=3)], ids=_grid_id
    )
    def test_no_point_without_the_det_term(self, search):
        # a = 0: the inertia rule needs a > 0, so it calls no slice point
        # positive-definite, whatever the signs of b and c, and the search
        # finds nothing with or without its a = 0 return
        cone = rank3_cone(1)
        for b in (-1.0, 0.0, 1.0):
            for c in (-1.0, 0.0, 1.0):
                q = vc.InvariantCubic(cone, (0.0, b, c))
                assert not cubics._classify_slice(q, search)[2].any(), (b, c)
                assert vc.find_locally_admissible_point(q, search) is None, (b, c)

    def test_no_point_without_the_det_term_at_extreme_c(self):
        # q = p2 p3 - 1e20 p3^3 at x2 = 1e20, x3 = 1: the sampled q cancels
        # to exactly 0, so the sweep of the slice raises; the search's a = 0
        # return gives None before it samples
        q = vc.InvariantCubic(rank3_cone(1), (0.0, 1.0, -1e20))
        search = vc.SearchGrid(lo=1.0, hi=1.0, n=3)
        with pytest.raises(OutsideConeError, match="requires q"):
            cubics._classify_slice(q, search)
        assert vc.find_locally_admissible_point(q, search) is None


class TestScan:
    def test_classifications(self):
        cone = rank3_cone(1)
        rows = vc.scan_parameter_plane(
            cone,
            [-0.5, 0.0, 0.5],
            [-0.25, 0.0, 0.25],
            vc.DiagonalGrid(n=10),
            vc.SearchGrid(n=8),
        )
        assert len(rows) == 9
        by_cell = {(r.eps1, r.eps2): r.classification for r in rows}
        for e1 in (-0.5, 0.0, 0.5):
            assert by_cell[(e1, 0.0)] == "admissible-on-sample"
            assert by_cell[(e1, 0.25)] == "not-admissible"
            assert by_cell[(e1, -0.25)] == "admissible-on-sample"

    def test_csv_deterministic(self, tmp_path):
        cone = rank3_cone(1)
        rows = vc.scan_parameter_plane(
            cone, [0.0, 1.0], [-0.5, 0.5], vc.DiagonalGrid(n=6), vc.SearchGrid(n=6)
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        vc.scan_to_csv(rows, p1)
        vc.scan_to_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "eps1,eps2,classification,witness_x2,witness_x3,min_minor"

    def test_rank2_rejected(self):
        with pytest.raises(SpecError):
            vc.scan_parameter_plane(rank2_cone(1), [0.0], [0.0])


def assert_scan_matches_oracle(cone, e1, e2, grid, search) -> list:
    """scan_parameter_plane against the scan loop built on the sweep's
    reports: classification and witness bit for bit, min_minor to 1e-10
    relative; returns the rows."""
    got = vc.scan_parameter_plane(cone, e1, e2, grid, search)
    want = reference_scan_parameter_plane(cone, e1, e2, grid, search)
    assert len(got) == len(want) == len(e1) * len(e2)
    for a, b in zip(got, want):
        assert same_bits(
            (a.eps1, a.eps2, a.classification, a.witness_x2, a.witness_x3),
            (b.eps1, b.eps2, b.classification, b.witness_x2, b.witness_x3),
        ), (b.eps1, b.eps2)
        x, y = a.min_minor, b.min_minor
        assert x == y or abs(x - y) <= 1e-10 * max(abs(x), abs(y)) or (np.isnan(x) and np.isnan(y)), (b.eps1, b.eps2)
    return got


class TestScanOracle:
    """The scan reads the sweep's point codes; the oracle builds each cell's
    DiagonalReport and reads its witnesses."""

    @pytest.mark.parametrize("dim_v,n", [(1, 12), (8, 12), (8, 30)])
    def test_roadmap_plane(self, dim_v, n):
        e1, e2 = sorted({e for e, _ in PLANE}), sorted({e for _, e in PLANE})
        rows = assert_scan_matches_oracle(rank3_cone(dim_v), e1, e2, vc.DiagonalGrid(n=n), vc.SearchGrid(n=n))
        kinds = {(r.eps2 > 0.0, r.classification) for r in rows}
        assert {(False, cubics.ADMISSIBLE_ON_SAMPLE), (True, cubics.NOT_ADMISSIBLE)} <= kinds

    @pytest.mark.parametrize("n", [1, 8, 12])
    def test_wide_plane_never_needs_the_local_search(self, n):
        # the oracle still falls back to the local search where a cell with
        # eps2 <= 0 has a point that is not positive-definite; the inertia
        # rule leaves no such point, so the scan, which has no fallback,
        # gives the oracle's rows bit for bit and none is locally-admissible
        e1 = np.linspace(-2.0, 2.0, 9).tolist()
        e2 = [-100.0, -30.0, -5.0, -1.0, -0.25, -1e-300, -0.0, 0.0, 1e-300, 0.25, 1.0, 5.0, 30.0, 100.0]
        cone, grid, search = rank3_cone(1), vc.DiagonalGrid(n=n), vc.SearchGrid(n=max(8, n))
        got = vc.scan_parameter_plane(cone, e1, e2, grid, search)
        assert same_bits(tuple(got), tuple(reference_scan_parameter_plane(cone, e1, e2, grid, search)))
        assert cubics.LOCALLY_ADMISSIBLE not in {r.classification for r in got}
        assert {r.classification for r in got if r.eps2 <= 0.0} == {cubics.ADMISSIBLE_ON_SAMPLE}

    @pytest.mark.parametrize("dim_v", [1, 8])
    def test_local_search_cells(self, dim_v, monkeypatch):
        # eps2 = -100 and -61.8 leave points at large x3 whose kernel minors
        # read indefinite (ROADMAP item 1), which once sent four of these
        # cells to the local search; the inertia rule calls every point
        # positive-definite, so each cell is admissible on the sample, on any
        # search grid, and the search is never tried
        cone, grid = rank3_cone(dim_v), vc.DiagonalGrid(n=12)
        e1, e2 = [-2.0, -0.3529411764705883, 2.0], [-100.0, -61.77538417823236]
        flagged = [
            (a, b)
            for a in e1
            for b in e2
            if set(reference_classify_slice(vc.InvariantCubic.rank3_family(cone, a, b), grid)[1]) != {PD}
        ]
        assert len(flagged) == 4

        def no_search(q, search=None):
            raise AssertionError("local search tried")

        monkeypatch.setattr(cubics, "find_locally_admissible_point", no_search)
        for search in (vc.SearchGrid(n=12), vc.SearchGrid(lo=100.0, hi=100.0, n=1)):
            rows = assert_scan_matches_oracle(cone, e1, e2, grid, search)
            assert {r.classification for r in rows} == {cubics.ADMISSIBLE_ON_SAMPLE}

    def test_constraint_point_skips_the_local_search(self, monkeypatch):
        # x1 + eps1 x3 = (1 - eps2 x3^3) / (x2 x3) > 0 on the slice when
        # eps2 <= 0, so only rounding could put a slope-constraint point on
        # such a cell; planted last on the sweep's slice of an otherwise
        # admissible cell, it is the cell's first witness, without a minor,
        # and the local search is not tried
        classify = cubics._classify_slice

        def with_constraint_point(q, grid):
            x, inside, pd = classify(q, grid)
            if isinstance(grid, vc.DiagonalGrid):
                inside[-1] = pd[-1] = False
            return x, inside, pd

        def no_search(q, search=None):
            raise AssertionError("local search tried")

        monkeypatch.setattr(cubics, "_classify_slice", with_constraint_point)
        monkeypatch.setattr(cubics, "find_locally_admissible_point", no_search)
        cone, grid, search = rank3_cone(1), vc.DiagonalGrid(n=12), vc.SearchGrid(n=12)
        (row,) = assert_scan_matches_oracle(cone, [2.0], [-100.0], grid, search)
        last = cubics._slice_points(vc.InvariantCubic.rank3_family(cone, 2.0, -100.0), grid)[-1]
        assert row.classification == cubics.NOT_ADMISSIBLE
        assert (row.witness_x2, row.witness_x3) == tuple(last[1:].tolist()) and np.isnan(row.min_minor)

    def test_empty_grid_still_raises(self):
        # eps1 = 1e12 leaves no slice point with x1 > 0 on the grid
        cone = rank3_cone(1)
        for scan in (vc.scan_parameter_plane, reference_scan_parameter_plane):
            with pytest.raises(OutsideConeError, match="empty feasible diagonal grid"):
                scan(cone, [1e12], [0.0], vc.DiagonalGrid(n=12), vc.SearchGrid(n=12))


class TestInertiaRule:
    """The sweeps' positive-definite / not decision: g(q) is positive
    definite at X exactly when Hess q (X) has inertia (1, n-1)."""

    @pytest.mark.parametrize(
        "cone", [rank3_cone(1), rank3_cone(2), rank2_cone(1), rank2_cone(2)], ids=["d1", "d2", "w1", "w2"]
    )
    def test_rule_is_the_inertia_of_the_hessian(self, cone):
        # mixed-sign coefficients at in-cone diagonal points with q > 0,
        # slope constraint or not; points where Hess q is near singular say
        # nothing about the band and are skipped
        rng = np.random.default_rng(23)
        outcomes = []
        while len(outcomes) < 300:
            q = vc.InvariantCubic(cone, rng.uniform(-2.0, 2.0, cone.rank))
            x = 10.0 ** rng.uniform(-1.0, 1.0, (8, cone.rank))
            qx = cubics._diagonal_q(q, x)
            x, qx = x[qx > 0.0], qx[qx > 0.0]
            for row, pd in zip(x, cubics._inertia_pd(q, x, qx)):
                ev = np.linalg.eigvalsh(vc.cubic_hessian(q, vc.HermMatrix(cone.algebra, row, {})))
                if np.abs(ev).min() < 1e-9 * np.abs(ev).max():
                    continue
                assert pd == (np.count_nonzero(ev > 0.0) == 1), (q.coeffs, row)
                outcomes.append(bool(pd))
        assert 30 < sum(outcomes) < 270

    def test_zero_margin_is_not_positive_definite(self):
        # the (-1, 0.25) local-search probe at x3 = 1: 4c x3^3 = q exactly
        q = vc.InvariantCubic.rank3_family(rank3_cone(1), -1.0, 0.25)
        x = np.array([[1.75, 1.0, 1.0]])
        qx = cubics._diagonal_q(q, x)
        assert qx[0] == 4.0 * 0.25
        assert not cubics._inertia_pd(q, x, qx)[0]

    def test_far_point_is_positive_definite(self):
        # eps = (-0.001, -1000) at x = (1e9 + 1.1, 0.01, 100): the margin
        # 1 - 4c x3^3 / q is 4e9, while the kernel's minors read indefinite
        # there (ROADMAP item 1)
        q = vc.InvariantCubic.rank3_family(rank3_cone(1), -0.001, -1000.0)
        grid = vc.DiagonalGrid(lo=0.01, hi=100.0, n=2)
        x, inside, pd = cubics._classify_slice(q, grid)
        (k,) = np.flatnonzero((x[:, 1] == 0.01) & (x[:, 2] == 100.0))
        assert x[k, 0] == pytest.approx(1e9 + 1.1, rel=1e-15)
        assert inside[k] and pd[k]
        assert cubics._diagonal_verdicts(q, x[k : k + 1])[0].tolist() == [cubics._INDEFINITE]
        assert vc.admissibility_on_diagonal(q, grid).all_pd

    @pytest.mark.parametrize("dim_v", [1, 8])
    def test_extended_plane_is_admissible_on_sample(self, dim_v):
        # eps2 <= 0 throughout, so every cell is admissible; the kernel's
        # minors alone flag 14 of the 216 cells
        cone, grid = rank3_cone(dim_v), vc.DiagonalGrid(n=12)
        e1, e2 = np.linspace(-2.0, 2.0, 18), -np.geomspace(0.5, 100.0, 12)
        rows = vc.scan_parameter_plane(cone, e1, e2, grid, vc.SearchGrid(n=12))
        assert len(rows) == 216
        assert {r.classification for r in rows} == {cubics.ADMISSIBLE_ON_SAMPLE}
        flagged = sum(
            set(reference_classify_slice(vc.InvariantCubic.rank3_family(cone, a, b), grid)[1]) != {PD}
            for a in e1
            for b in e2
        )
        assert flagged == 14


class TestArgminCandidates:
    """The kernel runs only at the positive-definite points whose closed-form
    core minor lies within ARGMIN_DELTA of the smallest; their smallest
    min_minor is the slice's."""

    @pytest.mark.parametrize("n", [8, 12, 30])
    @pytest.mark.parametrize("dim_v", [1, 8, 16])
    def test_candidate_minimum_is_the_full_kernels(self, dim_v, n):
        cone, grid = rank3_cone(dim_v), vc.DiagonalGrid(n=n)
        for eps in PLANE:
            q = vc.InvariantCubic.rank3_family(cone, *eps)
            x, _, pd = cubics._classify_slice(q, grid)
            x = x[pd]
            if not len(x):
                continue
            want = cubics._first_smallest(cubics._diagonal_verdicts(q, x)[1])
            got = cubics._first_smallest(cubics._candidate_minors(q, x))
            assert same_bits((tuple(x[got[0]].tolist()), got[1]), (tuple(x[want[0]].tolist()), want[1])), eps

    def test_closed_form_core_minor_tracks_the_kernels(self):
        # the closed form and the kernel round differently; the largest gap
        # on the plane is 3.2e-4 relative, 30 times inside ARGMIN_DELTA
        cone, grid = rank3_cone(8), vc.DiagonalGrid(n=12)
        for eps in PLANE:
            q = vc.InvariantCubic.rank3_family(cone, *eps)
            x, _, pd = cubics._classify_slice(q, grid)
            x = x[pd]
            if len(x):
                core = cubics._core_minors(x, *cubics._diagonal_derivatives(q, x))
                want = cubics._diagonal_verdicts(q, x)[1]
                assert np.max(np.abs(core - want) / np.abs(want)) < cubics.ARGMIN_DELTA / 30, eps

    def test_kernel_sees_few_points_per_cell(self, monkeypatch):
        # one kernel call per cell of the d8 plane at grid 12, at the first
        # witness or at the argmin candidates; eps = (0, 0), where q = d and
        # every point ties, takes the whole slice
        seen = []
        kernel = cubics._diagonal_verdicts

        def counting(q, x):
            seen.append(len(x))
            return kernel(q, x)

        monkeypatch.setattr(cubics, "_diagonal_verdicts", counting)
        cone, grid, search = rank3_cone(8), vc.DiagonalGrid(n=12), vc.SearchGrid(n=12)
        for eps in PLANE:
            seen.clear()
            vc.scan_parameter_plane(cone, [eps[0]], [eps[1]], grid, search)
            assert len(seen) == 1, eps
            if eps != (0.0, 0.0):
                assert seen[0] <= 8, eps


class TestUnimodularCubicCheck:
    def test_rank2_none_exists(self):
        rep = vc.no_g0_cubic_check(rank2_cone(5))
        assert not rep.cubic_exists
        assert rep.pi_sq_degree == 2

    def test_rank3_unique(self):
        rep = vc.no_g0_cubic_check(rank3_cone(2))
        assert rep.cubic_exists
        assert rep.pi_sq_degree == 3

    def test_rank3_det_invariance_spot_check(self):
        # unit-determinant slice: d((AB)(AB)^*) = d(B B^*) for unit-diagonal A
        cone = rank3_cone(4)
        alg = cone.algebra
        rng = np.random.default_rng(12)
        for _ in range(20):
            U = vc.random_triangular(alg, rng)
            U = vc.TriangularElement(alg, np.ones(3), U.offdiag)
            B = vc.random_triangular(alg, rng)
            X = vc.herm_from_triangular(vc.triangular_product(U, B))
            Y = vc.herm_from_triangular(B)
            assert vc.det_cubic(cone, X) == pytest.approx(vc.det_cubic(cone, Y), rel=1e-9)


class TestOneFormulaPerInvariant:
    @pytest.mark.parametrize("dim_v", [1, 4])
    def test_eval_cubic_is_built_on_d_and_the_p_polynomials(self, dim_v):
        cone = rank3_cone(dim_v)
        rng = np.random.default_rng(41)
        for coeffs in ((1.0, 0.5, -0.25), (2.0, -1.0, 0.5), (0.0, 1.0, 1.0)):
            q = vc.InvariantCubic(cone, coeffs)
            a, b, c = coeffs
            for _ in range(10):
                X = random_orbit_point(cone, rng)
                _, p2, p3 = vc.p_polynomials(cone, X)
                assert vc.eval_cubic(q, X) == a * vc.det_cubic(cone, X) + b * (p2 * p3) + c * p3**3

    def test_rank2_eval_cubic_is_built_on_p1(self):
        cone = rank2_cone(3)
        q = vc.InvariantCubic(cone, (0.5, 2.0))
        for _ in range(10):
            X = random_orbit_point(cone, np.random.default_rng(42))
            p1, x2 = vc.p_polynomials(cone, X)
            assert vc.eval_cubic(q, X) == 0.5 * x2**3 + 2.0 * x2 * p1

    @pytest.mark.parametrize("rank", [2, 3])
    def test_kernel_q_groups_like_eval_cubic(self, rank):
        # bit-identical q, gradient and Hessian, cube terms included
        cone = rank2_cone(4) if rank == 2 else rank3_cone(8)
        if rank == 2:
            coeffs_list = [(0.0, 1.0), (0.0, -2.0), (0.3, 1.0), (-0.7, 1.0), (1.0, 0.0)]
        else:
            coeffs_list = [
                (1.0, 0.5, 0.0),
                (2.0, -1.5, 0.0),
                (1.0, 0.5, -0.25),
                (1.0, -1.5, 0.75),
                (0.0, 1.0, 0.5),
            ]
        x = np.random.default_rng(43).uniform(0.01, 100.0, (200, rank))
        for coeffs in coeffs_list:
            q = vc.InvariantCubic(cone, coeffs)
            qx, g, H, _ = cubics._diagonal_parts(q, x)
            points = [vc.HermMatrix(cone.algebra, row, {}) for row in x]
            assert qx.tolist() == [vc.eval_cubic(q, X) for X in points]
            assert g.tolist() == [vc.gradient(q, X)[:rank].tolist() for X in points]
            assert H.tolist() == [vc.cubic_hessian(q, X)[:rank, :rank].tolist() for X in points]

    def test_det_cubic_needs_the_special_algebra(self):
        dcone = vc.dual_cone(rank3_cone(1))
        q = vc.InvariantCubic(dcone, (1.0, 0.0, 0.0))
        with pytest.raises(SpecError):
            vc.eval_cubic(q, vc.herm_identity(dcone.algebra))

    @pytest.mark.parametrize("op", [vc.eval_cubic, vc.gradient, vc.cubic_hessian])
    def test_point_over_another_algebra_rejected(self, op):
        q = vc.InvariantCubic.rank3_family(rank3_cone(1), 0.5, 0.0)
        with pytest.raises(AlgebraMismatchError):
            op(q, vc.herm_identity(rank3_cone(2).algebra))

    def test_finite_difference_oracle_is_the_library_copy(self):
        assert fd_hessian_log is cubics.fd_hessian_log
