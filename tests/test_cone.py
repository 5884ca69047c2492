import math
from fractions import Fraction

import numpy as np
import pytest

import vinberg_cones as vc
from vinberg_cones import cli
from vinberg_cones.cone import characteristic_degree, characteristic_exponents
from vinberg_cones.errors import IndefiniteSignatureError, OutsideConeError, SpecError

from _support import (
    dense_symmetric_3x3,
    max_block_error,
    random_dual_point,
    random_orbit_point,
    rank2_cone,
    rank3_cone,
    triangular_scale,
)


class TestDescriptor:
    def test_rank2_exponents(self):
        cone = rank2_cone(9)
        assert cone.dim_herm == 11
        assert cone.exponents == (Fraction(11, 2), Fraction(11, 2))

    def test_rank3_scalar_exponents(self):
        cone = rank3_cone(1)
        assert cone.dim_herm == 6
        assert cone.exponents == (Fraction(2), Fraction(2), Fraction(2))

    def test_rank3_octonionic_exponents(self):
        cone = rank3_cone(8)
        assert cone.dim_herm == 27
        assert cone.exponents == (Fraction(9), Fraction(9), Fraction(9))

    def test_exponent_sum_is_ambient_dimension(self):
        for cone in (rank2_cone(4), rank3_cone(2), rank3_cone(4, mult=2)):
            assert sum(cone.exponents) == cone.dim_herm


class TestPPolynomials:
    def test_rank2_identity(self):
        cone = rank2_cone(1)
        assert vc.p_polynomials(cone, vc.herm_identity(cone.algebra)) == (1.0, 1.0)

    def test_rank2_hand_example(self):
        cone = rank2_cone(1)
        X = vc.HermMatrix(cone.algebra, [2.0, 4.0], {(1, 2): [2.0]})
        p1, p2 = vc.p_polynomials(cone, X)
        assert p2 == 4.0
        assert p1 == 2.0 * 4.0 - 4.0

    def test_rank3_hand_example(self):
        cone = rank3_cone(1)
        X = vc.HermMatrix(
            cone.algebra, [2.0, 2.0, 2.0], {(1, 2): [1.0], (1, 3): [1.0], (2, 3): [1.0]}
        )
        p1, p2, p3 = vc.p_polynomials(cone, X)
        assert p3 == 2.0
        assert p2 == 2.0 * 2.0 - 1.0
        assert vc.det_cubic(cone, X) == pytest.approx(4.0)  # 8 - 2 - 2 - 2 + 2
        assert p1 == pytest.approx(2.0 * 4.0)

    @pytest.mark.parametrize("cone", [rank2_cone(3), rank3_cone(2)])
    def test_homogeneity_degrees(self, cone):
        rng = np.random.default_rng(0)
        m = cone.rank
        lam = 1.7
        for _ in range(10):
            X = random_orbit_point(cone, rng)
            ps = vc.p_polynomials(cone, X)
            qs = vc.p_polynomials(cone, X.scaled(lam))
            for i, (p, q) in enumerate(zip(ps, qs)):
                assert q == pytest.approx(lam ** (2 ** (m - i - 1)) * p, rel=1e-12)


class TestDeterminant:
    def test_identity(self):
        cone = rank3_cone(1)
        assert vc.det_cubic(cone, vc.herm_identity(cone.algebra)) == 1.0

    def test_matches_dense_determinant_in_self_adjoint_case(self):
        # all blocks one-dimensional: the cone is the ordinary cone of
        # positive definite symmetric 3x3 matrices
        cone = rank3_cone(1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            X = random_orbit_point(cone, rng)
            assert vc.det_cubic(cone, X) == pytest.approx(
                float(np.linalg.det(dense_symmetric_3x3(X))), rel=1e-10
            )

    @pytest.mark.parametrize("dim_v", [1, 2, 4, 8])
    def test_factorizes_over_orbit(self, dim_v):
        cone = rank3_cone(dim_v)
        rng = np.random.default_rng(2)
        for _ in range(50):
            A = vc.random_triangular(cone.algebra, rng)
            expect = float(np.prod(A.diag)) ** 2
            got = vc.det_cubic(cone, vc.herm_from_triangular(A))
            assert got == pytest.approx(expect, rel=1e-10)

    def test_rank2_rejected(self):
        cone = rank2_cone(1)
        with pytest.raises(SpecError):
            vc.det_cubic(cone, vc.herm_identity(cone.algebra))

    def test_g_determinant_sq_rank2(self):
        cone = rank2_cone(2)
        X = vc.HermMatrix(cone.algebra, [2.0, 3.0], {})
        assert vc.g_determinant_sq(cone, X) == 6.0

    def test_cubic_homogeneity(self):
        cone = rank3_cone(2)
        rng = np.random.default_rng(3)
        X = random_orbit_point(cone, rng)
        assert vc.det_cubic(cone, X.scaled(2.0)) == pytest.approx(
            8.0 * vc.det_cubic(cone, X), rel=1e-12
        )


def overflow_point(tag):
    """A point of the cone where p_1 is inf - inf = nan (x1 x2 - |w|^2 at
    rank 2, x3 d on d1), as a single point and in a stack after the
    identity."""
    cone, diag, offdiag = {
        "w1": (rank2_cone(1), [1e200, 1e200], {(1, 2): [5e199]}),
        "d1": (rank3_cone(1), [1e120] * 3, {(1, 2): [5e119]}),
    }[tag]
    X = vc.HermMatrix(cone.algebra, diag, offdiag)
    stack = vc.herm_from_vector(cone.algebra, [vc.herm_identity(cone.algebra).to_vector(), X.to_vector()])
    return cone, X, stack


class TestMembership:
    @pytest.mark.parametrize("tag", ["w1", "d1"])
    def test_nan_p_raises(self, tag):
        # membership read False here, although the decomposition finds a
        # positive diagonal
        cone, X, stack = overflow_point(tag)
        with np.errstate(all="ignore"):
            assert np.isnan(vc.p_polynomials(cone, X)[0])
            assert vc.group_coordinates(cone, X).element.in_group
            for Y in (X, stack):
                with pytest.raises(OutsideConeError, match="nan"):
                    vc.membership(cone, Y)

    def test_identity_inside(self):
        for cone in (rank2_cone(3), rank3_cone(2)):
            assert vc.membership(cone, vc.herm_identity(cone.algebra))

    def test_rank2_outside_example(self):
        cone = rank2_cone(1)
        X = vc.HermMatrix(cone.algebra, [1.0, 1.0], {(1, 2): [2.0]})
        assert not vc.membership(cone, X)  # p1 = -3

    @pytest.mark.parametrize("cone", [rank2_cone(4), rank3_cone(4)])
    def test_orbit_points_inside(self, cone):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert vc.membership(cone, random_orbit_point(cone, rng))

    def test_cone_property_under_scaling(self):
        cone = rank3_cone(2)
        rng = np.random.default_rng(5)
        X = random_orbit_point(cone, rng)
        for lam in (0.01, 0.5, 3.0, 250.0):
            assert vc.membership(cone, X.scaled(lam))

    def test_indefinite_refused(self):
        # a split cone is refused where its spec is read, so membership never sees one
        with pytest.raises(IndefiniteSignatureError):
            cli.parse_spec({"rank": 2, "dim_w": 2, "signature": [1, 1]})


class TestGroupCoordinates:
    def test_identity(self):
        cone = rank3_cone(1)
        gc = vc.group_coordinates(cone, vc.herm_identity(cone.algebra))
        np.testing.assert_allclose(gc.element.diag, 1.0)
        assert gc.max_residual <= 1e-15

    def test_rank2_hand_example(self):
        cone = rank2_cone(1)
        X = vc.HermMatrix(cone.algebra, [2.0, 4.0], {(1, 2): [2.0]})
        A = vc.group_coordinates(cone, X).element
        np.testing.assert_allclose(A.diag, [1.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(A.offdiag[(1, 2)], [1.0], rtol=1e-14)

    @pytest.mark.parametrize(
        "cone",
        [rank2_cone(1), rank2_cone(4), rank2_cone(9), rank3_cone(1), rank3_cone(4), rank3_cone(8)],
    )
    def test_roundtrip(self, cone):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = vc.random_triangular(cone.algebra, rng)
            got = vc.group_coordinates(cone, vc.herm_from_triangular(A)).element
            assert max_block_error(got, A) / triangular_scale(A) <= 1e-9

    @pytest.mark.parametrize(
        "cone",
        [rank2_cone(3), rank3_cone(4), vc.dual_cone(rank3_cone(4)), vc.dual_cone(rank3_cone(1, mult=2))],
    )
    def test_squared_diagonal_ratio_identity(self, cone):
        # a_ii^2 = p_i / prod_{s>i} p_s (also on dual algebras, where p_1 is
        # the cleared quartic of the rational squared G-determinant)
        rng = np.random.default_rng(7)
        m = cone.rank
        for _ in range(50):
            A = vc.random_triangular(cone.algebra, rng)
            X = vc.herm_from_triangular(A)
            ps = vc.p_polynomials(cone, X)
            for i in range(m):
                denom = float(np.prod(ps[i + 1 :])) if i + 1 < m else 1.0
                assert A.diag[i] ** 2 * denom == pytest.approx(ps[i], rel=1e-10)

    @pytest.mark.parametrize(
        "cone", [rank2_cone(1), rank2_cone(4), rank3_cone(1), rank3_cone(8), vc.dual_cone(rank3_cone(4))]
    )
    def test_residuals_are_the_max_per_layout_slice(self, cone):
        # reference: one max per slice of the layout, relative to the point's scale
        alg = cone.algebra
        rng = np.random.default_rng(8)
        X = vc.herm_from_vector(alg, [random_orbit_point(cone, rng).to_vector() for _ in range(30)])
        gc = vc.group_coordinates(cone, X)
        err = np.abs(vc.herm_from_triangular(gc.element).to_vector() - X.to_vector())
        scale = np.maximum(1.0, np.abs(X.to_vector()).max(-1))
        names = {key: key if key == "diag" else f"{key[0]}{key[1]}" for key in alg.layout}
        assert list(gc.residuals) == list(names.values())
        assert any(np.any(r > 0.0) for r in gc.residuals.values())
        for key, sl in alg.layout.items():
            assert np.array_equal(gc.residuals[names[key]], err[:, sl].max(-1) / scale), key
        for i in range(3):
            single = vc.group_coordinates(cone, vc.herm_from_vector(alg, X.to_vector()[i])).residuals
            assert all(np.array_equal(single[k], gc.residuals[k][i]) for k in single)

    @pytest.mark.parametrize(
        "cone",
        [rank2_cone(1), rank2_cone(4), rank3_cone(1), rank3_cone(8), rank3_cone(3, 2), vc.dual_cone(rank3_cone(4))],
    )
    def test_element_is_the_blockwise_back_substitution(self, cone):
        # the element is written as one flat vector; each entry keeps the bits
        # of solving X = A . A^* block by block, back to front
        alg = cone.algebra
        rng = np.random.default_rng(9)
        X = vc.herm_from_vector(alg, [random_orbit_point(cone, rng).to_vector() for _ in range(6)])
        for Z in (X, *(vc.herm_from_vector(alg, x) for x in X.to_vector()[:3])):
            x = Z.diag.T
            last = np.sqrt(x[-1])[..., None]
            y = Z.to_vector() / last
            if cone.rank == 2:
                a12 = y[..., alg.layout[(1, 2)]]
                diag = (x[0] - alg.norm_sq((1, 2), a12), x[1])
                off = {(1, 2): a12}
            else:
                t1, w = y[..., alg.layout[(1, 3)]], y[..., alg.layout[(2, 3)]]
                _, n13, n23 = alg.block_products(y, y).T
                t0 = (Z.offdiag[(1, 2)] - alg.mult_flat_right(t1, w)) / np.sqrt(x[1] - n23)[..., None]
                diag = (x[0] - alg.norm_sq((1, 2), t0) - n13, x[1] - n23, x[2])
                off = {(1, 2): t0, (1, 3): t1, (2, 3): w}
            want = vc.TriangularElement(alg, np.sqrt(np.array(diag).T), off)
            got = vc.group_coordinates(cone, Z).element
            assert np.array_equal(got.to_vector(), want.to_vector())
            assert not got.to_vector().flags.writeable

    def test_outside_cone_raises(self):
        cone = rank2_cone(1)
        X = vc.HermMatrix(cone.algebra, [1.0, 1.0], {(1, 2): [2.0]})
        with pytest.raises(OutsideConeError):
            vc.group_coordinates(cone, X)

    def test_near_boundary_raises(self):
        cone = rank2_cone(1)
        X = vc.HermMatrix(cone.algebra, [1.0, 1e-16], {})
        with pytest.raises(OutsideConeError):
            vc.group_coordinates(cone, X)

    @pytest.mark.parametrize("scale", [1e-15, 1e15])
    @pytest.mark.parametrize("cone", [rank2_cone(1), rank2_cone(4), rank3_cone(1), rank3_cone(4)])
    def test_decomposes_at_every_scale(self, cone, scale):
        # the radicand floor is relative to the point, like the radicands
        X = vc.herm_identity(cone.algebra).scaled(scale)
        assert vc.membership(cone, X)
        gc = vc.group_coordinates(cone, X)
        np.testing.assert_allclose(gc.element.diag, math.sqrt(scale), rtol=1e-15)
        assert gc.max_residual <= 1e-15

    @pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
    def test_near_boundary_raises_at_every_scale(self, scale):
        cone = rank3_cone(2)
        X = vc.HermMatrix(cone.algebra, [scale, scale, 1e-16 * scale], {})
        with pytest.raises(OutsideConeError, match="x33"):
            vc.group_coordinates(cone, X)

    def test_decomposes_dual_algebra_points(self):
        # the same code runs in the dual algebra (used by the duality oracle)
        cone = rank3_cone(4)
        dcone = vc.dual_cone(cone)
        rng = np.random.default_rng(8)
        for _ in range(20):
            B = vc.random_triangular(dcone.algebra, rng)
            got = vc.group_coordinates(dcone, vc.herm_from_triangular(B)).element
            assert max_block_error(got, B) / triangular_scale(B) <= 1e-9


class TestLargerCones:
    def test_multiplicity_two_octonionic(self):
        # reducible module: dim S = 16, ambient dimension 3 + 16 + 16 + 8
        cone = rank3_cone(8, mult=2)
        assert cone.dim_herm == 43
        rng = np.random.default_rng(18)
        for _ in range(20):
            A = vc.random_triangular(cone.algebra, rng)
            X = vc.herm_from_triangular(A)
            got = vc.group_coordinates(cone, X).element
            assert max_block_error(got, A) / triangular_scale(A) <= 1e-9
            expect = float(np.prod(A.diag)) ** 2
            assert vc.det_cubic(cone, X) == pytest.approx(expect, rel=1e-10)
            Y = vc.herm_from_triangular_star(A)
            assert vc.d_prime(cone, Y) == pytest.approx(expect, rel=1e-10)
            assert vc.d_prime_via_dual(cone, Y) == pytest.approx(expect, rel=1e-10)

    def test_indefinite_algebra_polynomial_identities(self):
        # no split algebra is built, so none reaches the decomposition or the
        # determinant: its orbit is no convex cone
        with pytest.raises(IndefiniteSignatureError):
            vc.build_clifford_module(3, signature=(2, 1))


class TestCharacteristicFunction:
    def test_identity_value(self):
        for cone in (rank2_cone(2), rank3_cone(2)):
            assert vc.characteristic_function(cone, vc.herm_identity(cone.algebra)) == 1.0

    def test_exponent_bookkeeping(self):
        cone = rank3_cone(1)
        n1, n2, n3 = cone.exponents
        assert characteristic_exponents(cone) == (n1, n2 - n1, n3 - n2 - n1)

    def test_exponents_computed_once_per_cone(self):
        cone = vc.cone_from_algebra(rank3_cone(4).algebra)
        first = characteristic_exponents(cone)
        assert all(isinstance(e, Fraction) for e in first)
        assert characteristic_exponents(cone) is first

    @pytest.mark.parametrize(
        "cone",
        [rank2_cone(3), rank2_cone(4), rank3_cone(1), rank3_cone(4), vc.dual_cone(rank3_cone(1, mult=2))],
    )
    def test_homogeneity_matches_descriptor(self, cone):
        rng = np.random.default_rng(9)
        X = random_orbit_point(cone, rng)
        lam = 2.0
        measured = math.log(vc.characteristic_function(cone, X.scaled(lam))) - math.log(
            vc.characteristic_function(cone, X)
        )
        assert measured == pytest.approx(float(characteristic_degree(cone)) * math.log(lam), rel=1e-9)
        assert characteristic_degree(cone) == sum(cone.exponents)

    @pytest.mark.parametrize("cone", [rank2_cone(4), rank3_cone(4)])
    def test_unipotent_invariance(self, cone):
        rng = np.random.default_rng(10)
        alg = cone.algebra
        for _ in range(30):
            U = vc.random_triangular(alg, rng)
            U = vc.TriangularElement(alg, np.ones(alg.rank), U.offdiag)
            B = vc.random_triangular(alg, rng)
            X = vc.herm_from_triangular(vc.triangular_product(U, B))
            Y = vc.herm_from_triangular(B)
            cx = vc.characteristic_function(cone, X)
            cy = vc.characteristic_function(cone, Y)
            assert cx == pytest.approx(cy, rel=1e-9)
            for px, py in zip(vc.p_polynomials(cone, X), vc.p_polynomials(cone, Y)):
                assert px == pytest.approx(py, rel=1e-9)

    def test_outside_cone_rejected(self):
        cone = rank2_cone(1)
        X = vc.HermMatrix(cone.algebra, [1.0, 1.0], {(1, 2): [2.0]})
        with pytest.raises(OutsideConeError):
            vc.characteristic_function(cone, X)

    @pytest.mark.parametrize("cone", [rank2_cone(4), rank3_cone(2)])
    def test_defined_at_every_scale(self, cone):
        # chi takes any positive radicand, not the decomposition's floor
        X = vc.herm_identity(cone.algebra).scaled(1e-15)
        expect = 1e-15 ** float(characteristic_degree(cone))
        assert vc.characteristic_function(cone, X) == pytest.approx(expect, rel=1e-12)


def _with_x1(cone, X, x1):
    v = X.to_vector().copy()
    v[..., 0] = x1
    return vc.herm_from_vector(cone.algebra, v)


def _p1_root(cone, X) -> float:
    """The x1 at which p_1 vanishes, the rest of X fixed (p_1 is affine in
    x1, with slope p_2 p_3 > 0 on the cone)."""
    at0, at1 = (vc.p_polynomials(cone, _with_x1(cone, X, t))[0] for t in (0.0, 1.0))
    return -at0 / (at1 - at0)


CHI_DOMAIN_CONES = {"w4": rank2_cone(4), "d1": rank3_cone(1), "d8": rank3_cone(8), "dual-d4": vc.dual_cone(rank3_cone(4))}


class TestCharacteristicDomain:
    """chi takes its domain from the back-substitution radicands; since
    a_ii^2 = p_i / prod_{s>i} p_s they are all positive exactly where every
    p_i is, so chi must raise exactly where membership is False."""

    @pytest.mark.parametrize(
        "cone,diag,x12,signs",
        [
            (rank2_cone(1), [1.0, 1.0], 2.0, (-1, 1)),
            (rank2_cone(1), [1.0, 1.0], 1.0, (0, 1)),
            (rank2_cone(1), [-1.0, -1.0], 0.0, (1, -1)),
            (rank2_cone(1), [1.0, 0.0], 0.0, (0, 0)),
            (rank3_cone(1), [-1.0, 1.0, 1.0], 0.0, (-1, 1, 1)),
            (rank3_cone(1), [0.0, 1.0, 1.0], 0.0, (0, 1, 1)),
            (rank3_cone(1), [-1.0, -1.0, 1.0], 0.0, (1, -1, 1)),
            (rank3_cone(1), [1.0, 0.0, 1.0], 0.0, (0, 0, 1)),
            (rank3_cone(1), [-1.0, -1.0, -1.0], 0.0, (1, 1, -1)),
            (rank3_cone(1), [1.0, 1.0, 0.0], 0.0, (0, 0, 0)),
        ],
    )
    def test_each_p_i_at_or_below_zero_raises(self, cone, diag, x12, signs):
        X = vc.HermMatrix(cone.algebra, diag, {(1, 2): [x12]})
        assert tuple(np.sign(vc.p_polynomials(cone, X))) == signs
        assert not vc.membership(cone, X)
        with pytest.raises(OutsideConeError):
            vc.characteristic_function(cone, X)
        inside = vc.herm_identity(cone.algebra)
        stack = vc.herm_from_vector(cone.algebra, np.stack([inside.to_vector(), X.to_vector()]))
        with pytest.raises(OutsideConeError):  # one point outside fails the stack
            vc.characteristic_function(cone, stack)

    @pytest.mark.parametrize(
        "cone",
        [lambda: rank3_cone(2, signature=(1, 1)), lambda: cli.parse_spec({"rank": 2, "dim_w": 2, "signature": [1, 1]})],
        ids=["cone0", "cone1"],
    )
    def test_split_signature_raises(self, cone):
        # a split cone is refused where it is built, so chi never sees one
        with pytest.raises(IndefiniteSignatureError):
            cone()

    @pytest.mark.parametrize("tag", list(CHI_DOMAIN_CONES))
    def test_raises_exactly_where_membership_fails(self, tag):
        # x1 straddles the root of p_1 at every seeded point.  Within about
        # 300 ulps of x1 the two tests can disagree (the radicand and p_1
        # round differently); 1e-12 of the point's scale is far outside that.
        cone = CHI_DOMAIN_CONES[tag]
        rng = np.random.default_rng(17)
        for _ in range(20):
            X = random_orbit_point(cone, rng)
            root, scale = _p1_root(cone, X), np.abs(X.to_vector()).max()
            for offset in (-1e-6, -1e-9, -1e-11, 1e-11, 1e-9, 1e-6):
                Y = _with_x1(cone, X, root + offset * scale)
                member = vc.membership(cone, Y)
                assert member == (offset > 0)
                if member:
                    assert vc.characteristic_function(cone, Y) > 0.0
                else:
                    with pytest.raises(OutsideConeError):
                        vc.characteristic_function(cone, Y)


class TestDuality:
    def test_d_prime_identity(self):
        cone = rank3_cone(2)
        assert vc.d_prime(cone, vc.herm_identity(cone.algebra)) == pytest.approx(1.0)

    def test_d_prime_equals_d_for_scalar_blocks(self):
        # one-dimensional V, S0, S1: the self-adjoint case, correction vanishes
        cone = rank3_cone(1)
        rng = np.random.default_rng(11)
        for _ in range(100):
            X = random_orbit_point(cone, rng)
            assert abs(vc.d_prime(cone, X) - vc.det_cubic(cone, X)) <= 1e-12

    @pytest.mark.parametrize("dim_v", [2, 4, 8])
    def test_two_routes_agree(self, dim_v):
        cone = rank3_cone(dim_v)
        rng = np.random.default_rng(12)
        for _ in range(50):
            Y = random_dual_point(cone, rng)
            direct = vc.d_prime(cone, Y)
            routed = vc.d_prime_via_dual(cone, Y)
            assert direct == pytest.approx(routed, rel=1e-10)

    def test_dual_cone_built_once(self):
        cone = vc.cone_from_algebra(rank3_cone(4).algebra)
        dual = vc.dual_cone(cone)
        assert vc.dual_cone(cone) is dual
        assert dual.algebra is vc.dual_algebra(cone.algebra)
        fresh = vc.cone_from_algebra(vc.dual_algebra(cone.algebra))
        assert dual.exponents == fresh.exponents and dual.dim_herm == fresh.dim_herm
        Y = vc.herm_from_triangular_star(vc.random_triangular(cone.algebra, np.random.default_rng(14)))
        Ys = vc.herm_from_vector(cone.algebra, np.stack([Y.to_vector(), 2.0 * Y.to_vector()]))
        for point in (Y, Ys):
            want = vc.g_determinant_sq(fresh, vc.anti_transpose(point))
            np.testing.assert_array_equal(vc.d_prime_via_dual(cone, point), want)

    @pytest.mark.parametrize("dim_v", [2, 4])
    def test_dual_orbit_value(self, dim_v):
        # d'(A^* A) = (prod diag)^2, cross-checked by decomposing the
        # anti-transposed point in the dual algebra
        cone = rank3_cone(dim_v)
        dcone = vc.dual_cone(cone)
        rng = np.random.default_rng(13)
        for _ in range(50):
            A = vc.random_triangular(cone.algebra, rng)
            Y = vc.herm_from_triangular_star(A)
            expect = float(np.prod(A.diag)) ** 2
            assert vc.d_prime(cone, Y) == pytest.approx(expect, rel=1e-10)
            B = vc.group_coordinates(dcone, vc.anti_transpose(Y)).element
            np.testing.assert_allclose(B.diag, A.diag[::-1], rtol=1e-9)

    def test_d_prime_degree_three_homogeneous(self):
        cone = rank3_cone(4)
        rng = np.random.default_rng(14)
        Y = random_dual_point(cone, rng)
        assert vc.d_prime(cone, Y.scaled(2.0)) == pytest.approx(
            8.0 * vc.d_prime(cone, Y), rel=1e-11
        )

    def test_d_prime_rejects_zero_corner(self):
        cone = rank3_cone(2)
        X = vc.HermMatrix(cone.algebra, [0.0, 1.0, 1.0], {})
        with pytest.raises(OutsideConeError):
            vc.d_prime(cone, X)

    def test_correction_is_cauchy_schwarz_gap(self):
        # for dim_v = 1 the correction is (|s0|^2 |s1|^2 - <s0, s1>^2) / x1;
        # this point is A^* A for A = I + t0 at (1,2) + t1 at (1,3), so
        # d' = 1 while the determinant cubic itself vanishes
        cone = rank3_cone(1, mult=2)
        alg = cone.algebra
        X = vc.HermMatrix(
            alg, [1.0, 2.0, 2.0], {(1, 2): [1.0, 0.0], (1, 3): [0.0, 1.0], (2, 3): [0.0]}
        )
        assert vc.det_cubic(cone, X) == pytest.approx(0.0, abs=1e-15)
        assert vc.d_prime(cone, X) == pytest.approx(1.0)


class TestDualMembership:
    @pytest.mark.parametrize("tag", ["w1", "d1"])
    def test_nan_invariant_raises(self, tag):
        # dual_membership read False here
        cone, X, stack = overflow_point(tag)
        with np.errstate(all="ignore"):
            for Y in (X, stack):
                with pytest.raises(OutsideConeError, match="nan"):
                    vc.dual_membership(cone, Y)

    def test_identity(self):
        for cone in (rank2_cone(2), rank3_cone(2)):
            assert vc.dual_membership(cone, vc.herm_identity(cone.algebra))

    @pytest.mark.parametrize("cone", [rank2_cone(3), rank3_cone(2), rank3_cone(4)])
    def test_star_orbit_inside(self, cone):
        rng = np.random.default_rng(15)
        for _ in range(50):
            assert vc.dual_membership(cone, random_dual_point(cone, rng))

    @pytest.mark.parametrize("cone", [rank2_cone(3), rank3_cone(4)])
    def test_matches_anti_transpose_route(self, cone):
        dcone = vc.dual_cone(cone)
        rng = np.random.default_rng(16)
        for _ in range(50):
            X = random_dual_point(cone, rng)
            assert vc.dual_membership(cone, X) == vc.membership(dcone, vc.anti_transpose(X))
            Z = random_orbit_point(cone, rng)  # primal points, maybe not dual
            assert vc.dual_membership(cone, Z) == vc.membership(dcone, vc.anti_transpose(Z))

    @pytest.mark.parametrize("cone", [rank2_cone(4), rank3_cone(2)])
    def test_pairing_positive(self, cone):
        rng = np.random.default_rng(17)
        for _ in range(200):
            X = random_orbit_point(cone, rng)
            Y = random_dual_point(cone, rng)
            assert vc.herm_pairing(X, Y) > 0.0
