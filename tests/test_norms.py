import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sipmink.errors import DimensionError, DomainError
from sipmink.norms import (
    NormSpec,
    derivative_identity_residual,
    nath_product,
    norm,
    norm_batch,
    norm_first_derivative,
    norm_rows,
    norm_second_derivative,
    product_axiom_report,
    sip,
    sip_axiom_report,
    sip_derivative_rows,
    sip_rows,
    sip_second_arg_derivative,
)
from sipmink.numerics import Seed, central_diff, dot_rows, first_diff_step, pow_rows, reduce_last

E2 = NormSpec.euclidean(2)
MAX2 = NormSpec.max_norm(2)
P3 = NormSpec.pnorm(3.0, 2)
P4 = NormSpec.pnorm(4.0, 2)

coords = st.floats(-3.0, 3.0)


class TestNorm:
    def test_euclidean(self):
        assert norm(E2, [3.0, 4.0]) == 5.0

    def test_max(self):
        assert norm(MAX2, [-2.0, 1.0]) == 2.0

    def test_pnorm(self):
        assert norm(P3, [1.0, 1.0]) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            norm(E2, [1.0, 2.0, 3.0])

    def test_pnorm_requires_p_above_one(self):
        with pytest.raises(DomainError):
            NormSpec.pnorm(1.0, 2)

    def test_batch_matches_scalar(self, rng):
        X = rng.uniform(-2, 2, (20, 2))
        for space in (E2, MAX2, P3):
            batch = norm_batch(space, X)
            assert batch == pytest.approx([norm(space, row) for row in X], abs=1e-14)

    def test_custom_gauge_registration(self):
        spec = NormSpec.custom_gauge(lambda x: float(np.sum(x * x)) ** 0.5, 2)
        assert norm(spec, [3.0, 4.0]) == pytest.approx(5.0)
        with pytest.raises(DomainError):
            NormSpec.custom_gauge(lambda x: float(x[0]) + 1.0, 2)  # not homogeneous


class TestSip:
    def test_euclidean_dot(self):
        assert sip(E2, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_max_closed_form_and_derivative_oracle(self):
        # dominant coordinate of y picks the term; cross-check via |y| d/dt |y+tx|
        x, y = np.array([3.0, 5.0]), np.array([2.0, 1.0])
        assert sip(MAX2, x, y) == 6.0
        fd = norm(MAX2, y) * central_diff(lambda t: norm(MAX2, y + t * x), 0.0, 1e-6)
        assert sip(MAX2, x, y) == pytest.approx(fd, abs=1e-8)

    def test_max_tie_uses_smallest_index(self):
        assert sip(MAX2, [3.0, 5.0], [2.0, -2.0]) == 6.0

    def test_pnorm_value_and_derivative_oracle(self):
        x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        val = sip(P4, x, y)
        assert val == pytest.approx(2.0 ** -0.5, abs=1e-9)
        fd = norm(P4, y) * central_diff(lambda t: norm(P4, y + t * x), 0.0, first_diff_step(1.0))
        assert val == pytest.approx(fd, abs=1e-9)

    def test_zero_second_argument(self):
        assert sip(P3, [1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_modes_agree_for_smooth_norms(self, rng):
        for space in (E2, P3, P4):
            for _ in range(50):
                x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
                if norm(space, y) < 0.1:
                    continue
                assert sip(space, x, y) == pytest.approx(sip_derivative_rows(space, x[None], y[None])[0], abs=1e-5)

    @given(lam=st.floats(-4, 4), mu=st.floats(-4, 4), x0=coords, x1=coords, y0=coords, y1=coords)
    def test_homogeneity_both_arguments(self, lam, mu, x0, x1, y0, y1):
        x, y = np.array([x0, x1]), np.array([y0, y1])
        for space in (E2, MAX2, P3):
            expected = lam * mu * sip(space, x, y)
            assert sip(space, lam * x, mu * y) == pytest.approx(expected, abs=1e-9 * max(1, abs(expected)))

    @given(x0=coords, x1=coords, y0=coords, y1=coords)
    def test_cauchy_schwarz(self, x0, x1, y0, y1):
        x, y = np.array([x0, x1]), np.array([y0, y1])
        for space in (E2, MAX2, P3, P4):
            lhs = sip(space, x, y) ** 2
            rhs = sip(space, x, x) * sip(space, y, y)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_p_close_to_two_matches_euclidean(self, rng):
        space = NormSpec.pnorm(2.0 + 1e-9, 2)
        for _ in range(100):
            x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            assert sip(space, x, y) == pytest.approx(float(x @ y), abs=1e-6)

    def test_lemma1_norm_derivative_identity(self, rng):
        # [x, y] = |y| * d/dt |y + t x| for smooth norms
        for space in (E2, P3, P4, NormSpec.pnorm(2.5, 2)):
            for _ in range(50):
                x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
                ny = norm(space, y)
                if ny < 0.1:
                    continue
                fd = ny * norm_first_derivative(space, x, y)
                bound = 1e-5 * max(1.0, norm(space, x) * ny)
                assert abs(sip(space, x, y) - fd) <= bound


P64 = NormSpec.pnorm(64.0, 2)


def _scaled_closed_form_sip(x, y, p):
    """[x, y] = m |y/m|^(2-p) sum_i x_i |y_i/m|^(p-1) sgn(y_i), m = max |y_i|."""
    m = max(abs(v) for v in y)
    yh = [v / m for v in y]
    ny = math.pow(sum(math.pow(abs(v), p) for v in yh), 1.0 / p)
    return m * math.pow(ny, 2.0 - p) * sum(a * math.pow(abs(v), p - 1.0) * math.copysign(1.0, v) for a, v in zip(x, yh) if v)


class TestLargeExponent:
    """At p = 64 the power sum of a small or large vector underflows or
    overflows; those rows are recomputed on the row scaled by its largest
    coordinate."""

    @pytest.mark.parametrize("x", [1e-6, 1e-5, 1e5])
    def test_one_coordinate_norm_is_exact(self, x):
        assert norm(P64, [x, 0.0]) == x
        assert norm_rows(P64, np.array([[x, 0.0]]))[0] == x
        assert norm_batch(P64, np.array([[x, 0.0]]))[0] == x

    def test_sip_against_small_vectors(self):
        space = NormSpec.pnorm(64, 2)
        assert sip(space, [1.0, 0.0], [1e-6, 0.0]) == 1e-6
        got, ref = sip(space, [1.0, 0.0], [1e-5, 2e-6]), _scaled_closed_form_sip([1.0, 0.0], [1e-5, 2e-6], 64.0)
        assert math.isfinite(got) and abs(got - ref) <= 1e-15 * abs(ref)

    def test_rows_in_range_keep_their_bits(self, rng):
        X = rng.uniform(-2.0, 2.0, (40, 2))
        X[::7] *= 1e-6  # power sums below the normal range
        X[3::7] *= 1e6  # and above it
        X[5], X[6] = 0.0, [np.nan, 1.0]  # neither rescaled: no largest coordinate to scale by
        A = np.abs(X)
        with np.errstate(over="ignore"):
            s = reduce_last(np.add, A**64.0)
        unscaled = (s >= np.finfo(float).tiny) & (s <= np.finfo(float).max)
        assert 10 < unscaled.sum() < 38
        got_rows, got_batch = norm_rows(P64, X), norm_batch(P64, X[None])[0]
        assert np.array_equal(got_rows[unscaled], pow_rows(s, 1.0 / 64.0)[unscaled])
        assert np.array_equal(got_batch[unscaled], (s ** (1.0 / 64.0))[unscaled])
        assert got_rows[5] == got_batch[5] == 0.0 and np.isnan(got_rows[6]) and np.isnan(got_batch[6])
        rescaled = ~unscaled
        rescaled[5:7] = False
        m = A[rescaled].max(axis=1)
        assert np.allclose(got_rows[rescaled], m * norm_rows(P64, A[rescaled] / m[:, None]), rtol=1e-15, atol=0.0)
        Y = rng.uniform(-2.0, 2.0, X.shape)
        products = sip_rows(P64, Y, X)
        assert np.array_equal(products[unscaled], sip_rows(P64, Y[unscaled], X[unscaled]))
        for y, x, got in zip(Y[rescaled], X[rescaled], products[rescaled]):
            ref = _scaled_closed_form_sip(y, x, 64.0)
            assert math.isfinite(got) and abs(got - ref) <= 1e-14 * abs(ref)


class TestEuclideanExtremeScales:
    """A Euclidean sum of squares that leaves the normal range is recomputed
    on the row scaled by its largest coordinate, as the p-norm power sums
    are; every other row keeps the bits of the unscaled sum."""

    @pytest.mark.parametrize("x", [1e-200, 1e-160, 5e-324, 1e160, 1e200, 1.7e308])
    def test_one_coordinate_norm_is_exact(self, x):
        with np.errstate(over="raise"):  # no overflow is warned of
            assert norm(E2, [x, 0.0]) == x
            assert norm(E2, [0.0, -x]) == x
            assert norm_rows(E2, np.array([[x, 0.0]]))[0] == x
            assert norm_batch(E2, np.array([[x, 0.0]]))[0] == x
            assert norm_batch(E2, np.array([0.0, x])) == x  # a single vector gives a scalar

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_pythagorean_triple(self, scale):
        X = np.array([[3.0, 4.0], [-4.0, 3.0]]) * scale
        for got in (norm_rows(E2, X), norm_batch(E2, X[None])[0]):
            assert np.allclose(got, 5.0 * scale, rtol=1e-15, atol=0.0)

    def test_rows_in_range_keep_their_bits(self, rng):
        X = rng.uniform(-2.0, 2.0, (40, 2))
        X[::7] *= 1e-170  # sums of squares below the normal range
        X[3::7] *= 1e160  # and above it
        X[5], X[6], X[12] = 0.0, [np.nan, 1.0], [np.inf, 1.0]  # no finite largest coordinate to scale by
        with np.errstate(over="ignore"):
            s_rows, s_batch = dot_rows(X, X), reduce_last(np.add, X * X)
        unscaled = (s_rows >= np.finfo(float).tiny) & (s_rows <= np.finfo(float).max)
        assert 10 < unscaled.sum() < 36
        got_rows, got_batch = norm_rows(E2, X), norm_batch(E2, X[None])[0]
        assert np.array_equal(got_rows[unscaled], np.sqrt(s_rows)[unscaled])
        assert np.array_equal(got_batch[unscaled], np.sqrt(s_batch)[unscaled])
        assert got_rows[5] == got_batch[5] == 0.0 and np.isnan(got_rows[6]) and np.isnan(got_batch[6])
        assert got_rows[12] == got_batch[12] == np.inf
        rescaled = ~unscaled
        rescaled[[5, 6, 12]] = False
        ref = np.array([math.hypot(*x) for x in X[rescaled]])
        assert np.all(ref > 0.0) and np.all(np.isfinite(ref))
        assert np.allclose(got_rows[rescaled], ref, rtol=1e-15, atol=0.0)
        assert np.allclose(got_batch[rescaled], ref, rtol=1e-15, atol=0.0)


class TestAxiomReport:
    def test_euclidean_tight(self):
        report = sip_axiom_report(E2, Seed(5), 200)
        assert report.worst.residual <= 1e-12

    def test_pnorm(self):
        report = sip_axiom_report(P3, Seed(7), 200)
        assert report.worst.residual <= 1e-5
        assert report.residual("additivity_first") <= 1e-12

    def test_max_norm(self):
        report = sip_axiom_report(MAX2, Seed(3), 200)
        for name in ("additivity_first", "homogeneity_first", "homogeneity_second", "cauchy_schwarz"):
            assert report.residual(name) <= 1e-12

    @pytest.mark.parametrize("spec", [E2, P3, MAX2], ids=["euclidean", "p3", "max"])
    def test_sip_report_is_the_product_report_of_the_spec(self, spec):
        got = product_axiom_report(spec, spec.dim, Seed(4), 150, norm=spec)
        want = sip_axiom_report(spec, Seed(4), 150)
        assert [c.name for c in got.checks] == [c.name for c in want.checks] and got.tol == want.tol
        for g, w in zip(got.checks, want.checks):
            assert (g.residual, g.passed) == (w.residual, w.passed)
            assert len(g.witness) == len(w.witness) and all(np.array_equal(a, b) for a, b in zip(g.witness, w.witness))

    def test_product_report_accepts_handles(self):
        dot = lambda u, v: float(np.dot(u, v))
        report = product_axiom_report(dot, 3, Seed(1), 100)
        assert report.all_pass


class TestDerivatives:
    def test_first_derivative_radial(self):
        assert norm_first_derivative(E2, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)

    def test_first_derivative_orthogonal(self):
        assert norm_first_derivative(E2, [0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_first_derivative_needs_nonzero_base(self):
        with pytest.raises(DomainError):
            norm_first_derivative(E2, [1.0, 0.0], [0.0, 0.0])

    def test_lemma1_cross_check_p3(self):
        x, y = np.array([1.0, 1.0]), np.array([1.0, 0.0])
        assert sip(P3, x, y) / norm(P3, y) == pytest.approx(
            norm_first_derivative(P3, x, y), abs=1e-6
        )

    def test_second_derivative_euclidean_hessian(self):
        # Hessian of the plane norm at (1,0) is diag(0,1)
        val = norm_second_derivative(E2, [0.0, 1.0], [0.0, 1.0], [1.0, 0.0])
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_second_derivative_vanishes_along_ray(self):
        for space in (E2, P3, P4):
            y = np.array([0.8, 0.6])
            u = y / norm(space, y)
            assert norm_second_derivative(space, u, u, y) == pytest.approx(0.0, abs=1e-4)

    def test_second_derivative_step_halving_consistency(self):
        # no closed form asserted: Richardson-style self-consistency only
        from sipmink.numerics import second_diff_step

        x = z = np.array([0.0, 1.0])
        y = np.array([1.0, 0.0])
        h = second_diff_step(1.0)
        d1 = central_diff(lambda t: norm_first_derivative(P4, x, y + t * z), 0.0, h)
        d2 = central_diff(lambda t: norm_first_derivative(P4, x, y + t * z), 0.0, h / 2)
        assert abs(d1 - d2) <= 1e-3

    def test_sip_second_arg_derivative_euclidean(self, rng):
        for _ in range(20):
            x, y, z = (rng.uniform(-2, 2, 2) for _ in range(3))
            if norm(E2, y) < 0.2:
                continue
            assert sip_second_arg_derivative(E2, x, y, z) == pytest.approx(float(x @ z), abs=1e-6)

    def test_sip_second_arg_derivative_zero_direction(self):
        assert sip_second_arg_derivative(P3, [1.0, 2.0], [1.0, 1.0], [0.0, 0.0]) == 0.0


class TestDerivativeIdentity:
    def test_euclidean(self):
        assert derivative_identity_residual(E2, [1.0, 2.0], [1.0, 0.0], [0.0, 1.0]) <= 1e-4

    def test_x_equals_y(self):
        y = np.array([1.0, 0.5])
        assert derivative_identity_residual(P3, y, y, np.array([0.3, -0.7])) <= 1e-4

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_seeded_triples(self, p):
        space = NormSpec.pnorm(p, 3)
        gen = Seed(11).rng()
        worst = 0.0
        for _ in range(100):
            x, z = gen.uniform(-1, 1, 3), gen.uniform(-1, 1, 3)
            y = gen.uniform(-1, 1, 3)
            if not np.any(y):
                continue
            y *= gen.uniform(0.5, 2.0) / norm(space, y)
            worst = max(worst, derivative_identity_residual(space, x, y, z))
        assert worst <= 1e-3


class TestNathProduct:
    def test_p2_reduces_to_sip(self, rng):
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            assert nath_product(E2, 2.0, x, y) == pytest.approx(sip(E2, x, y), abs=1e-12)

    def test_norm_power_consistency(self):
        # the defining property: [x, x]_p = |x|^p
        x = np.array([2.0, 0.0])
        assert nath_product(E2, 4.0, x, x) == pytest.approx(norm(E2, x) ** 4, abs=1e-12)
        assert nath_product(P3, 3.0, x, x) == pytest.approx(norm(P3, x) ** 3, abs=1e-12)

    def test_p_homogeneity_in_second_argument(self, rng):
        # [x, t y]_p = t |t|^(p-2) [x, y]_p
        for p in (3.0, 4.0):
            for _ in range(30):
                x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
                if not np.any(y):
                    continue
                t = float(rng.uniform(-2.5, 2.5))
                if t == 0.0:
                    continue
                lhs = nath_product(E2, p, x, t * y)
                rhs = t * abs(t) ** (p - 2.0) * nath_product(E2, p, x, y)
                assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))

    def test_zero_vector(self):
        assert nath_product(E2, 4.0, [1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_requires_p_at_least_one(self):
        with pytest.raises(DomainError):
            nath_product(E2, 0.5, [1.0, 0.0], [1.0, 0.0])
