import numpy as np
import pytest

from sipmink.errors import DomainError, SingularMapError, UnsupportedError
from sipmink.hyperboloid import lift
from sipmink.isometry import (
    distance_preservation_check,
    isometry_report,
    lorentz_boost,
    require_invertible,
    sip_preservation_residual,
    strict_convexity_witness,
)
from sipmink.minkowski import (
    GeneralizedMinkowskiSpace,
    classify,
    j_matrix,
    max_norm_spacetime,
)
from sipmink.norms import NormSpec, norm, sip
from sipmink.numerics import Seed

PSEUDO11 = GeneralizedMinkowskiSpace.pseudo_euclidean(1)
PSEUDO21 = GeneralizedMinkowskiSpace.pseudo_euclidean(2)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


class TestIsometryReport:
    def test_identity(self):
        rep = isometry_report(PSEUDO21, np.eye(3), Seed(1), 100)
        assert rep.product_residual == 0.0
        assert rep.adjoint_residual == 0.0
        assert rep.pole_in_upper_sheet and rep.pole_square_residual == 0.0

    def test_1plus1_boost(self):
        B = lorentz_boost(PSEUDO11, 0, 0.5)
        rep = isometry_report(PSEUDO11, B, Seed(2), 200)
        assert rep.product_residual <= 1e-12
        assert rep.adjoint_residual <= 1e-12
        assert rep.pole_image == pytest.approx([np.sinh(0.5), np.cosh(0.5)])
        assert rep.pole_in_upper_sheet

    def test_reflection_fails_only_the_sheet_condition(self):
        R = np.diag([1.0, 1.0, -1.0])
        rep = isometry_report(PSEUDO21, R, Seed(3), 200)
        assert rep.product_residual <= 1e-12
        assert rep.adjoint_residual <= 1e-12
        assert not rep.pole_in_upper_sheet
        assert not rep.passes(1e-9)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        # zero trials would report residuals of exactly 0 for any map
        with pytest.raises(DomainError):
            isometry_report(PSEUDO21, 2.0 * np.eye(3), Seed(1), trials)

    def test_one_report_whatever_the_layout_of_the_map(self):
        # a column-major F is multiplied as its C-ordered copy, so every row rounds as F @ v
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(3)
        F = lorentz_boost(space, 0, 1.2)
        c_order, f_order = (isometry_report(space, G, Seed(42), 200) for G in (F, np.asfortranarray(F)))
        assert (f_order.product_residual, f_order.adjoint_residual) == (c_order.product_residual, c_order.adjoint_residual)

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMapError):
            isometry_report(PSEUDO21, np.zeros((3, 3)), Seed(1), 10)
        with pytest.raises(SingularMapError):
            require_invertible(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestLorentzBoost:
    def test_zero_rapidity(self):
        assert lorentz_boost(PSEUDO21, 0, 0.0) == pytest.approx(np.eye(3))

    def test_composition_adds_rapidity(self):
        B1 = lorentz_boost(PSEUDO21, 0, 0.7)
        B2 = lorentz_boost(PSEUDO21, 0, 0.5)
        assert B1 @ B2 == pytest.approx(lorentz_boost(PSEUDO21, 0, 1.2), abs=1e-12)

    def test_full_report(self):
        rep = isometry_report(PSEUDO21, lorentz_boost(PSEUDO21, 1, 1.2), Seed(4), 300)
        assert rep.product_residual <= 1e-10
        assert rep.adjoint_residual <= 1e-10
        assert rep.pole_in_upper_sheet

    def test_adjoint_matrix_identity(self):
        F = lorentz_boost(PSEUDO21, 0, 1.2)
        J = j_matrix(PSEUDO21)
        assert np.max(np.abs(J @ F.T @ J @ F - np.eye(3))) <= 1e-8

    def test_classification_preserved(self, rng):
        F = lorentz_boost(PSEUDO21, 0, 0.8)
        for _ in range(200):
            v = rng.uniform(-2, 2, 3)
            assert classify(PSEUDO21, F @ v) is classify(PSEUDO21, v)

    def test_non_euclidean_space_rejected(self):
        with pytest.raises(UnsupportedError):
            lorentz_boost(max_norm_spacetime(), 0, 0.5)


class TestDistancePreservation:
    def test_identity_map(self):
        rep = distance_preservation_check(PSEUDO21, np.eye(3), Seed(5), 2, m=8)
        assert rep.max_deviation == 0.0

    def test_boost_preserves_distances(self):
        F = lorentz_boost(PSEUDO21, 0, 0.6)
        rep = distance_preservation_check(PSEUDO21, F, Seed(6), 3, m=16)
        assert rep.max_deviation <= 5e-3

    def test_non_isometry_rejected(self):
        with pytest.raises(DomainError):
            distance_preservation_check(PSEUDO21, 2.0 * np.eye(3), Seed(1), 2, m=8)


class TestSipPreservation:
    def test_rotation_preserves_euclidean_sip(self):
        res_sip, res_norm = sip_preservation_residual(NormSpec.euclidean(2), rotation(0.7), Seed(7), 200)
        assert res_sip <= 1e-12 and res_norm <= 1e-12

    def test_rotation_breaks_pnorm_sip(self):
        res_sip, res_norm = sip_preservation_residual(NormSpec.pnorm(3.0, 2), rotation(0.7), Seed(7), 200)
        assert res_sip > 1e-3 and res_norm > 1e-3

    def test_axis_permutation_preserves_pnorm(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        res_sip, res_norm = sip_preservation_residual(NormSpec.pnorm(3.0, 2), P, Seed(7), 200)
        assert res_sip <= 1e-12 and res_norm <= 1e-12

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        with pytest.raises(DomainError):
            sip_preservation_residual(NormSpec.euclidean(2), rotation(0.7), Seed(7), trials)


class TestStrictConvexityWitness:
    def test_euclidean_none(self):
        assert strict_convexity_witness(NormSpec.euclidean(2), Seed(8), 2000) is None

    def test_max_norm_witness(self):
        found = strict_convexity_witness(NormSpec.max_norm(2), Seed(8), 2000)
        assert found is not None
        x, y = found
        space = NormSpec.max_norm(2)
        assert sip(space, x, y) == pytest.approx(norm(space, x) * norm(space, y), abs=1e-9)
        # the witness pair is genuinely non-parallel
        assert np.max(np.abs(x / norm(space, x) - y / norm(space, y))) > 1e-3

    def test_pnorm_none(self):
        assert strict_convexity_witness(NormSpec.pnorm(3.0, 2), Seed(8), 2000) is None
