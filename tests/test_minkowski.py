import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sipmink.errors import DimensionError, DomainError, UnsupportedError
from sipmink.minkowski import (
    ConePart,
    GeneralizedMinkowskiSpace,
    VectorClass,
    classify,
    cone_convexity_check,
    cone_part,
    j_operator,
    max_norm_spacetime,
    product_minus,
    product_plus,
    split,
)
from sipmink.norms import product_axiom_report
from sipmink.numerics import Seed

PSEUDO21 = GeneralizedMinkowskiSpace.pseudo_euclidean(2)
PSEUDO31 = GeneralizedMinkowskiSpace.pseudo_euclidean(3)
REMARK = max_norm_spacetime()

coords = st.floats(-5.0, 5.0)


class TestSplit:
    def test_blocks(self):
        s, t = split(PSEUDO21, [1.0, 2.0, 3.0])
        assert list(s) == [1.0, 2.0] and list(t) == [3.0]

    def test_zero(self):
        s, t = split(PSEUDO21, np.zeros(3))
        assert not np.any(s) and not np.any(t)

    def test_recombine(self, rng):
        v = rng.uniform(-2, 2, 3)
        s, t = split(PSEUDO21, v)
        assert np.concatenate([s, t]) == pytest.approx(v)

    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            split(PSEUDO21, [1.0, 2.0])


class TestProducts:
    def test_minus_is_dot_for_pseudo_euclidean(self, rng):
        for _ in range(30):
            u, v = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
            assert product_minus(PSEUDO31, u, v) == pytest.approx(float(u @ v), abs=1e-12)

    def test_unit_time_vector(self):
        e4 = np.array([0.0, 0.0, 0.0, 1.0])
        assert product_minus(PSEUDO31, e4, e4) == 1.0
        assert product_plus(PSEUDO31, e4, e4) == -1.0

    def test_plus_cross_term_vanishes(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 0.0, 1.0])
        assert product_plus(PSEUDO31, u, v) == 0.0

    def test_max_space_squares(self, rng):
        for _ in range(50):
            v = rng.uniform(-2, 2, 3)
            m = max(abs(v[0]), abs(v[1]))
            assert product_minus(REMARK, v, v) == pytest.approx(m * m + v[2] ** 2, abs=1e-12)
            assert product_plus(REMARK, v, v) == pytest.approx(m * m - v[2] ** 2, abs=1e-12)

    def test_remark_space_reference_points(self):
        assert product_plus(REMARK, [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]) == 1.0
        assert product_plus(REMARK, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]) == -1.0

    def test_minus_product_is_sip(self):
        # the auxiliary product satisfies the s.i.p. axioms on both test spaces
        for space in (PSEUDO31, REMARK):
            pm = lambda u, v: product_minus(space, u, v)
            report = product_axiom_report(pm, space.n, Seed(11), 300)
            assert report.worst.residual <= 1e-9, report.worst

    def test_pythagorean_split_of_blocks(self, rng):
        # [s - t, s - t]+ = [s, s]+ + [t, t]+ for s in S, t in T
        for space in (PSEUDO21, REMARK):
            for _ in range(30):
                s = np.concatenate([rng.uniform(-2, 2, space.k), [0.0]])
                t = np.concatenate([np.zeros(space.k), rng.uniform(-2, 2, 1)])
                lhs = product_plus(space, s - t, s - t)
                rhs = product_plus(space, s, s) + product_plus(space, t, t)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestJOperator:
    def test_negates_tail(self):
        assert list(j_operator(PSEUDO21, [1.0, 2.0, 3.0])) == [1.0, 2.0, -3.0]

    def test_involution(self, rng):
        v = rng.uniform(-2, 2, 3)
        assert j_operator(PSEUDO21, j_operator(PSEUDO21, v)) == pytest.approx(v)

    def test_intertwines_products(self, rng):
        for space in (PSEUDO21, REMARK):
            for _ in range(30):
                u, v = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
                assert product_plus(space, u, v) == pytest.approx(
                    product_minus(space, u, j_operator(space, v)), abs=1e-12
                )
                assert product_minus(space, u, v) == pytest.approx(
                    product_plus(space, u, j_operator(space, v)), abs=1e-12
                )


class TestClassify:
    def test_canonical_vectors(self):
        assert classify(PSEUDO21, [1.0, 0.0, 0.0]) is VectorClass.SPACE_LIKE
        assert classify(PSEUDO21, [1.0, 0.0, 1.0]) is VectorClass.LIGHT_LIKE
        assert classify(PSEUDO21, [0.0, 0.0, 1.0]) is VectorClass.TIME_LIKE

    @given(lam=st.floats(0.01, 100.0), x=coords, y=coords, t=coords)
    def test_scale_invariance(self, lam, x, y, t):
        v = np.array([x, y, t])
        if not np.any(v):
            return
        for factor in (lam, -lam):
            assert classify(PSEUDO21, factor * v) is classify(PSEUDO21, v)

    def test_cone_part(self):
        diag11 = GeneralizedMinkowskiSpace.pseudo_euclidean(1)
        assert cone_part(diag11, [0.0, 1.0]) is ConePart.T_PLUS
        assert cone_part(diag11, [0.0, -1.0]) is ConePart.T_MINUS
        assert cone_part(diag11, [1.0, 0.0]) is ConePart.NOT_TIME_LIKE

    def test_cone_part_needs_spacetime(self):
        wide = GeneralizedMinkowskiSpace.pseudo_euclidean(2, t_dim=2)
        with pytest.raises(UnsupportedError):
            cone_part(wide, np.zeros(4))

    def test_light_like_is_boundary(self, rng):
        # both classes occur in every neighborhood of a light-like vector
        v = np.array([1.0, 0.0, 1.0])
        seen = set()
        for _ in range(200):
            w = v + rng.uniform(-1e-3, 1e-3, 3)
            seen.add(classify(PSEUDO21, w))
        assert VectorClass.SPACE_LIKE in seen and VectorClass.TIME_LIKE in seen


class TestConeConvexity:
    def test_lorentz_cone(self):
        report = cone_convexity_check(PSEUDO21, Seed(8), 500)
        assert report.passed and report.trials == 500

    def test_max_norm_cone(self):
        report = cone_convexity_check(REMARK, Seed(8), 500)
        assert report.passed

    def test_scaling_exact(self):
        v = np.array([0.3, -0.2, 1.4])
        assert classify(PSEUDO21, 2.0 * v) is classify(PSEUDO21, v)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_needs_a_trial(self, trials):
        with pytest.raises(DomainError):
            cone_convexity_check(PSEUDO21, Seed(8), trials)


class TestSpaceConstruction:
    def test_spacetime_flag(self):
        assert PSEUDO21.is_spacetime_model
        assert not GeneralizedMinkowskiSpace.pseudo_euclidean(2, t_dim=2).is_spacetime_model

    def test_remark_space_shape(self):
        assert REMARK.k == 2 and REMARK.t_dim == 1 and REMARK.n == 3
        assert REMARK.s_space.kind == "max"
        assert not REMARK.is_pseudo_euclidean
