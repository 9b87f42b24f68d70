import numpy as np
import pytest

from sipmink.errors import ConstantSignError, DomainError, UnsupportedError
from sipmink.norms import NormSpec
from sipmink.numerics import Seed
from sipmink.siip import (
    SiipSpace,
    cauchy_schwarz_witness,
    normsquare_check,
    polarization_neutral_check,
    siip,
    siip_axiom_report,
    siip_rows,
)

CP3 = SiipSpace.cross_polytope(3)
WP = SiipSpace.weighted_plane()
DIAG21 = SiipSpace.diagonal((1, 1, -1))


class TestCrossPolytope:
    def test_vertex_square(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert siip(CP3, e1, e1) == 1.0

    def test_edge_midpoint_square(self):
        cp2 = SiipSpace.cross_polytope(2)
        v = np.array([0.5, 0.5])
        assert siip(cp2, v, v) == -1.0

    def test_square_alternates_with_support(self, rng):
        for _ in range(100):
            v = rng.uniform(-2, 2, 3)
            mask = rng.uniform(size=3) < 0.7
            v = np.where(mask, v, 0.0)
            if not np.any(v):
                continue
            support = int(np.sum(np.abs(v) > 1e-9 * np.max(np.abs(v))))
            expected = (-1.0) ** (support - 1) * np.sum(np.abs(v)) ** 2
            assert siip(CP3, v, v) == pytest.approx(expected, abs=1e-12)

    def test_homogeneity_in_second_argument_negative_scale(self, rng):
        for _ in range(50):
            u, v = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            lam = float(rng.uniform(-3, -0.1))
            assert siip(CP3, u, lam * v) == pytest.approx(lam * siip(CP3, u, v), abs=1e-12)

    def test_axioms(self):
        report = siip_axiom_report(CP3, Seed(5), 500)
        for name in ("additivity_first", "homogeneity_first", "homogeneity_second", "square_real", "nondegeneracy"):
            assert report.residual(name) <= 1e-12


class TestWeightedPlane:
    def test_counterexample_value(self):
        assert siip(WP, [1.0, 2.0], [1.0, 1.0]) == pytest.approx(10.0 / 3.0, abs=1e-15)

    def test_squares(self):
        assert siip(WP, [1.0, 2.0], [1.0, 2.0]) == pytest.approx(5.0, abs=1e-15)
        assert siip(WP, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)

    def test_square_is_euclidean_norm(self, rng):
        for _ in range(100):
            v = rng.uniform(-3, 3, 2)
            assert siip(WP, v, v) == pytest.approx(float(v @ v), abs=1e-12)

    def test_linear_first_homogeneous_second(self, rng):
        for _ in range(50):
            u, w, v = (rng.uniform(-2, 2, 2) for _ in range(3))
            lam = float(rng.uniform(-3, 3))
            assert siip(WP, u + w, v) == pytest.approx(siip(WP, u, v) + siip(WP, w, v), abs=1e-12)
            assert siip(WP, lam * u, v) == pytest.approx(lam * siip(WP, u, v), abs=1e-12)
            if np.any(v) and lam != 0.0:
                assert siip(WP, u, lam * v) == pytest.approx(lam * siip(WP, u, v), abs=1e-10)

    def test_axiom_report_flags_cs_violation(self):
        report = siip_axiom_report(WP, Seed(2), 500)
        assert report.residual("additivity_first") <= 1e-12
        assert report.residual("homogeneity_first") <= 1e-12
        assert report.residual("homogeneity_second") <= 1e-10
        assert report.residual("cauchy_schwarz_definite") > 0.1


class TestDiagonal:
    def test_signature_value(self):
        v = np.array([0.0, 0.0, 1.0])
        assert siip(DIAG21, v, v) == -1.0

    def test_axioms(self):
        report = siip_axiom_report(DIAG21, Seed(4), 300)
        for c in report.checks:
            assert c.residual <= 1e-12, c

    def test_bad_signature_rejected(self):
        with pytest.raises(DomainError):
            SiipSpace.diagonal((1, 0))


class TestSignFunction:
    def test_euclidean_with_trivial_sign_matches_dot(self, rng):
        space = SiipSpace.sign_function(NormSpec.euclidean(3), lambda v: 1.0)
        for _ in range(30):
            u, v = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            if np.linalg.norm(v) < 0.2:
                continue
            assert siip(space, u, v) == pytest.approx(float(u @ v), abs=1e-5)

    def test_negative_sign_region(self):
        space = SiipSpace.sign_function(NormSpec.euclidean(2), lambda v: -1.0 if v[1] > 0.9 else 1.0)
        v = np.array([0.0, 2.0])
        assert siip(space, v, v) == pytest.approx(-4.0, abs=1e-5)

    def test_rejects_polyhedral_norm(self):
        with pytest.raises(UnsupportedError):
            SiipSpace.sign_function(NormSpec.max_norm(2), lambda v: 1.0)

    def test_zero_v_rejected(self):
        space = SiipSpace.sign_function(NormSpec.euclidean(2), lambda v: 1.0)
        with pytest.raises(DomainError):
            siip(space, [1.0, 0.0], [0.0, 0.0])


class TestFiniteDifferenceRows:
    """The sign-function and norm-square Hessian variants, a block at a time."""

    def test_one_zero_v_row_raises_before_any_call(self):
        calls = []
        counted = lambda x: calls.append(x) or 1.0
        spaces = [SiipSpace.sign_function(NormSpec.euclidean(3), counted), SiipSpace.normsquare_hessian(counted, 3)]
        V = np.ones((5, 3))
        V[3] = 0.0
        for space in spaces:
            with pytest.raises(DomainError, match="^this variant is undefined at v = 0$"):
                siip_rows(space, np.ones((5, 3)), V)
        assert calls == []

    @pytest.mark.parametrize("value", [0.5, 0.0, float("nan")])
    def test_a_sign_other_than_plus_or_minus_one_raises(self, value):
        space = SiipSpace.sign_function(NormSpec.pnorm(3.0, 2), lambda u: value if u[0] > 0 else 1.0)
        V = np.array([[-1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(DomainError, match=r"sign function must return \+/-1"):
            siip_rows(space, V, V)

    def test_a_g_with_a_row_kernel_is_called_only_through_it(self):
        blocks = []

        def gfun(x):
            raise AssertionError("the scalar G was called")

        gfun.rows = lambda X: blocks.append(X.shape) or np.einsum("ij,ij->i", X, X)
        U, V = np.random.default_rng(4).uniform(-2.0, 2.0, (2, 7, 3))
        got = siip_rows(SiipSpace.normsquare_hessian(gfun, 3), U, V)
        assert blocks == [(7, 3)] * 24  # four calls for each of the six entry pairs
        assert got == pytest.approx(np.einsum("ij,ij->i", U, V), abs=1e-6)

    def test_a_sign_function_with_a_row_kernel_is_called_only_through_it(self):
        blocks = []

        def sign(u):
            raise AssertionError("the scalar sign function was called")

        sign.rows = lambda X: blocks.append(X.shape) or np.where(X[:, 1] >= 0.0, 1.0, -1.0)
        U, V = np.random.default_rng(4).uniform(-2.0, 2.0, (2, 7, 2))
        got = siip_rows(SiipSpace.sign_function(NormSpec.euclidean(2), sign), U, V)
        assert blocks == [(7, 2)]
        assert got == pytest.approx(np.where(V[:, 1] >= 0.0, 1.0, -1.0) * np.einsum("ij,ij->i", U, V), abs=1e-6)


class TestNormsquareHessian:
    def test_reproduces_diagonal_form(self, rng):
        g = lambda x: float(x[0] ** 2 + x[1] ** 2 - x[2] ** 2)
        space = SiipSpace.normsquare_hessian(g, 3)
        for _ in range(20):
            u, v = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            if np.linalg.norm(v) < 0.2:
                continue
            expected = siip(DIAG21, u, v)
            assert siip(space, u, v) == pytest.approx(expected, abs=1e-6)

    def test_quartic_normsquare_recovers_square(self, rng):
        spec = NormSpec.pnorm(4.0, 2)
        from sipmink.norms import norm as norm_of

        g = lambda x: float(norm_of(spec, x) ** 2)
        space = SiipSpace.normsquare_hessian(g, 2)
        for _ in range(10):
            v = rng.uniform(-2, 2, 2)
            if np.linalg.norm(v) < 0.3:
                continue
            assert siip(space, v, v) == pytest.approx(g(v), abs=1e-5 * max(1.0, g(v)))

    # the Hessian is a finite difference, so [x, lam v] and lam [x, v] differ
    # by its rounding, about 1e-8, which the report holds to fd_tol
    @pytest.mark.parametrize("g", [lambda x: float(x @ x), lambda x: float(x[0] ** 2 + x[1] ** 2 - x[2] ** 2)],
                             ids=["square", "signature21"])
    def test_axiom_report_passes_a_quadratic_normsquare(self, g):
        report = siip_axiom_report(SiipSpace.normsquare_hessian(g, 3), Seed(1), 100)
        assert [c.passed for c in report.checks] == [True] * 6
        assert 1e-9 < report.residual("homogeneity_second") < 1e-7

    def test_axiom_report_fails_a_normsquare_of_degree_three(self):
        report = siip_axiom_report(SiipSpace.normsquare_hessian(lambda x: float(x @ x) ** 1.5, 3), Seed(1), 100)
        assert not report.check("homogeneity_second").passed
        assert report.residual("homogeneity_second") == pytest.approx(52.8, abs=0.05)


class TestCauchySchwarzWitness:
    def test_euclidean_has_none(self):
        dot = lambda u, v: float(np.dot(u, v))
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert cauchy_schwarz_witness(dot, basis, Seed(1), 500) is None

    def test_weighted_plane_witness(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        found = cauchy_schwarz_witness(WP, basis, Seed(3), 2000)
        assert found is not None
        u, v, margin = found
        assert margin >= 10.0 / 9.0
        assert siip(WP, u, v) ** 2 - siip(WP, u, u) * siip(WP, v, v) == pytest.approx(margin)

    def test_indefinite_subspace_rejected(self):
        basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        product = lambda u, v: siip(DIAG21, u, v)
        with pytest.raises(ConstantSignError):
            cauchy_schwarz_witness(product, basis, Seed(1), 200)


class TestNormsquareCheck:
    def test_euclidean_square(self):
        report = normsquare_check(lambda x: float(x @ x), Seed(1), 200)
        assert report.worst.residual <= 1e-12

    def test_indefinite_quadratic_is_homogeneous(self):
        report = normsquare_check(lambda x: float(x[0] ** 2 - x[1] ** 2), Seed(2), 200)
        assert report.residual("homogeneity_degree2") <= 1e-12

    def test_p4_square(self):
        spec = NormSpec.pnorm(4.0, 2)
        from sipmink.norms import norm as norm_of

        report = normsquare_check(lambda x: float(norm_of(spec, x) ** 2), Seed(3), 200)
        assert report.all_pass


class TestPolarizationNeutralCheck:
    def test_null_line_is_neutral(self):
        diag = SiipSpace.diagonal((1, -1))
        assert polarization_neutral_check(diag, [np.array([1.0, 1.0])], Seed(1))

    def test_axis_is_not_neutral(self):
        diag = SiipSpace.diagonal((1, -1))
        assert not polarization_neutral_check(diag, [np.array([1.0, 0.0])], Seed(1))

    def test_mixed_basis_three_dims(self):
        assert polarization_neutral_check(DIAG21, [np.array([1.0, 0.0, 1.0])], Seed(1))
        assert not polarization_neutral_check(
            DIAG21, [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])], Seed(1)
        )

    def test_requires_symmetric_variant(self):
        with pytest.raises(UnsupportedError):
            polarization_neutral_check(WP, [np.array([1.0, 0.0])], Seed(1))
