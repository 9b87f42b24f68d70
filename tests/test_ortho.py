import math
import tracemalloc

import numpy as np
import pytest

from sipmink.errors import ConvergenceError, DegenerateError, DomainError, NeutralPivotError, NumericalError
from sipmink.minkowski import GeneralizedMinkowskiSpace, max_norm_spacetime, product_plus
from sipmink.norms import NormSpec, norm, norm_batch, sip
from sipmink.numerics import Seed, Tolerances
from sipmink.ortho import (
    OrthoRelation,
    _sip_orthogonal_pair,
    _unit_vectors,
    auerbach_basis_2d,
    birkhoff_margin,
    gram_determinant,
    gram_matrix,
    is_orthogonal,
    minkowski_auerbach,
    orthogonal_companion_basis,
    pythagorean_subspace_scan,
    regular_orthogonalization,
)
from sipmink.siip import SiipSpace, siip

from references import reference_minimize, reference_pythagorean_scan

E2 = NormSpec.euclidean(2)
E3 = NormSpec.euclidean(3)
MAX2 = NormSpec.max_norm(2)
P3 = NormSpec.pnorm(3.0, 2)

DIAG11 = SiipSpace.diagonal((1, -1))
DIAG21 = SiipSpace.diagonal((1, 1, -1))


def diag_product(space):
    return lambda u, v: siip(space, u, v)


class TestRelations:
    def test_perpendicular_satisfies_everything_euclidean(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for rel in OrthoRelation:
            assert is_orthogonal(E2, rel, x, y, 1e-8)

    def test_pythagorean_triangle(self):
        assert is_orthogonal(E2, OrthoRelation.PYTHAGOREAN, [3.0, 0.0], [0.0, 4.0], 1e-12)

    def test_max_norm_birkhoff_both_ways(self):
        # oracle: min over t of max(1, |t|) = 1, attained on a flat piece
        grid = np.linspace(-4, 4, 2001)
        assert min(max(1.0, abs(t)) for t in grid) == 1.0
        assert is_orthogonal(MAX2, OrthoRelation.BIRKHOFF, [1.0, 0.0], [0.0, 1.0], 1e-9)
        assert is_orthogonal(MAX2, OrthoRelation.BIRKHOFF, [0.0, 1.0], [1.0, 0.0], 1e-9)

    def test_sip_relation_tests_reversed_arguments(self):
        # x | y reads "y orthogonal to x", i.e. [y, x] = 0
        x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        assert not is_orthogonal(E2, OrthoRelation.SIP, x, y, 1e-9)
        assert sip(E2, y, x) == 1.0

    def test_sip_not_symmetric_for_max_norm(self):
        x, y = np.array([1.0, 0.5]), np.array([0.25, 1.0])
        assert is_orthogonal(MAX2, OrthoRelation.SIP, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-9)
        assert sip(MAX2, y, x) != sip(MAX2, x, y)

    def test_roberts_on_dyadic_grid(self):
        assert is_orthogonal(E2, OrthoRelation.ROBERTS, [2.0, 0.0], [0.0, 3.0], 1e-9)
        assert not is_orthogonal(E2, OrthoRelation.ROBERTS, [2.0, 0.0], [1.0, 3.0], 1e-6)

    def test_singer_zero_case(self):
        assert is_orthogonal(E2, OrthoRelation.SINGER, [0.0, 0.0], [1.0, 2.0], 1e-9)

    def test_sip_orthogonality_implies_birkhoff(self, rng):
        # smooth norms: [y, x] = 0 forces |x + t y| >= |x|
        for space in (E2, P3):
            for _ in range(20):
                x = rng.uniform(-2, 2, 2)
                if norm(space, x) < 0.3:
                    continue
                basis = orthogonal_companion_basis(lambda a, b: sip(space, a, b), x)
                y = basis[0]
                assert abs(sip(space, y, x)) <= 1e-9
                mn, _ = birkhoff_margin(space, x, y)
                assert mn >= norm(space, x) - 1e-6


class TestCompanion:
    def test_euclidean_axis(self):
        basis = orthogonal_companion_basis(lambda a, b: float(a @ b), np.array([0.0, 0.0, 1.0]))
        assert len(basis) == 2
        span = np.array(basis)
        assert np.linalg.matrix_rank(span) == 2
        assert all(abs(w[2]) < 1e-12 for w in basis)

    def test_neutral_vector_contained_in_companion(self):
        u = np.array([1.0, 1.0])
        basis = orthogonal_companion_basis(diag_product(DIAG11), u)
        assert len(basis) == 1
        assert diag_product(DIAG11)(basis[0], u) == pytest.approx(0.0, abs=1e-12)
        # u itself lies in the companion span
        coeff = np.linalg.lstsq(np.array(basis).T, u, rcond=None)[0]
        assert np.array(basis).T @ coeff == pytest.approx(u, abs=1e-9)

    def test_remark_space_time_axis(self):
        space = max_norm_spacetime()
        pp = lambda a, b: product_plus(space, a, b)
        basis = orthogonal_companion_basis(pp, np.array([0.0, 0.0, 1.0]))
        assert len(basis) == 2
        for w in basis:
            assert w[2] == pytest.approx(0.0, abs=1e-12)
            assert pp(w, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_rejected(self):
        zero_product = lambda a, b: 0.0
        with pytest.raises(DegenerateError):
            orthogonal_companion_basis(zero_product, np.array([1.0, 0.0]))

    def test_dimension_count(self, rng):
        pp = diag_product(DIAG21)
        for _ in range(20):
            u = rng.uniform(-2, 2, 3)
            basis = orthogonal_companion_basis(pp, u)
            assert len(basis) == 2
            assert np.linalg.matrix_rank(np.array(basis)) == 2


class TestRegularOrthogonalization:
    def test_euclidean_identity(self):
        vecs = [np.eye(3)[i] for i in range(3)]
        out = regular_orthogonalization(lambda a, b: float(a @ b), vecs)
        assert np.array(out) == pytest.approx(np.eye(3))

    def test_hand_computed_hyperbolic_case(self):
        out = regular_orthogonalization(diag_product(DIAG11), [np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert out[0] == pytest.approx([1.0, 0.0])
        assert out[1] == pytest.approx([0.0, 1.0])

    def test_neutral_start_raises_at_one(self):
        with pytest.raises(NeutralPivotError) as err:
            regular_orthogonalization(diag_product(DIAG11), [np.array([1.0, 1.0])])
        assert err.value.index == 1

    def test_seeded_triples_orthogonal_and_span_preserving(self, rng):
        product = diag_product(DIAG21)
        done = 0
        while done < 50:
            vecs = [rng.uniform(-2, 2, 3) for _ in range(3)]
            dets = [abs(gram_determinant(product, vecs[: k + 1])) for k in range(3)]
            if min(dets) < 1e-2:
                continue
            done += 1
            out = regular_orthogonalization(product, vecs)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert abs(product(out[i], out[j])) <= 1e-9
            A = np.array(out).T
            for k in range(3):
                c, res, _, _ = np.linalg.lstsq(A[:, : k + 1], vecs[k], rcond=None)
                assert (res.size == 0) or (float(np.sqrt(res[0])) <= 1e-9)


class TestGram:
    def test_orthonormal_pair(self):
        dot = lambda a, b: float(a @ b)
        assert gram_determinant(dot, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == pytest.approx(1.0)

    def test_neutral_vector_gram_vanishes(self):
        assert gram_determinant(diag_product(DIAG11), [np.array([1.0, 1.0])]) == pytest.approx(0.0)

    def test_mixed_signature_pair(self):
        vecs = [np.eye(3)[0], np.eye(3)[2]]
        assert gram_determinant(diag_product(DIAG21), vecs) == pytest.approx(-1.0)

    def test_matrix_entries_are_products(self):
        G = gram_matrix(diag_product(DIAG11), [np.array([1.0, 2.0]), np.array([0.5, -1.0])])
        assert G[0, 1] == pytest.approx(diag_product(DIAG11)(np.array([1.0, 2.0]), np.array([0.5, -1.0])))

    def test_size_capped(self):
        dot = lambda a, b: float(a @ b)
        with pytest.raises(DomainError):
            gram_determinant(dot, [np.eye(7)[i] for i in range(7)])


class TestAuerbach2d:
    def test_euclidean_orthonormal(self):
        u, v = auerbach_basis_2d(NormSpec.euclidean(2))
        assert abs(u[0] * v[1] - u[1] * v[0]) == pytest.approx(1.0, abs=1e-6)
        assert norm(E2, u) == pytest.approx(1.0, abs=1e-12)
        assert norm(E2, v) == pytest.approx(1.0, abs=1e-12)

    def test_max_norm_pair_is_mutually_birkhoff(self):
        u, v = auerbach_basis_2d(NormSpec.max_norm(2))
        for a, b in ((u, v), (v, u)):
            mn, _ = birkhoff_margin(MAX2, a, b)
            assert mn >= norm(MAX2, a) - 1e-5
        # the max-volume pair spans the whole square: |det| = 2
        assert abs(u[0] * v[1] - u[1] * v[0]) == pytest.approx(2.0, abs=1e-5)

    def test_pnorm_pair_is_mutually_birkhoff(self):
        u, v = auerbach_basis_2d(NormSpec.pnorm(3.0, 2))
        for a, b in ((u, v), (v, u)):
            mn, _ = birkhoff_margin(P3, a, b)
            assert mn >= norm(P3, a) - 1e-5


class TestMinkowskiAuerbach:
    def test_pseudo_euclidean_standard_basis(self):
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(2)
        basis = minkowski_auerbach(space)
        assert np.abs(np.array(basis)) == pytest.approx(np.eye(3), abs=1e-9)

    def test_remark_space_standard_basis(self):
        space = max_norm_spacetime()
        basis = minkowski_auerbach(space)
        assert np.abs(np.array(basis)) == pytest.approx(np.eye(3), abs=1e-9)

    def test_span_orthogonality_residual(self, rng):
        space = max_norm_spacetime()
        basis = minkowski_auerbach(space)
        worst = 0.0
        for idx, e in enumerate(basis):
            others = [b for j, b in enumerate(basis) if j != idx]
            for _ in range(100):
                c = rng.uniform(-2, 2, len(others))
                w = sum(ci * bi for ci, bi in zip(c, others))
                worst = max(worst, abs(product_plus(space, w, e)))
        assert worst <= 1e-9

    def test_pnorm_block(self):
        space = GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1))
        basis = minkowski_auerbach(space)
        assert len(basis) == 3

    def test_large_blocks_rejected(self):
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(3)
        with pytest.raises(Exception):
            minkowski_auerbach(space)

    def test_custom_gauge_block(self):
        # the grid search takes the block's own products, so a gauge block needs no closed form
        space = GeneralizedMinkowskiSpace.from_norms(
            NormSpec.custom_gauge(lambda v: float(abs(v[0]) + 2.0 * abs(v[1])), 2), NormSpec.euclidean(1)
        )
        basis = minkowski_auerbach(space)
        assert np.array(basis) == pytest.approx(np.diag([1.0, 0.5, 1.0]), abs=1e-12)

    # on the grid [e_2, e_1] is cos(pi/2) = 6.1e-17, above this eq_tol, and
    # no block, smooth or not, takes a pair from off the grid
    @pytest.mark.parametrize("s_norm", [NormSpec.max_norm(2), NormSpec.pnorm(3.0, 2)], ids=["max", "p3"])
    def test_block_without_an_orthogonal_grid_pair_raises(self, s_norm):
        space = GeneralizedMinkowskiSpace.from_norms(s_norm, NormSpec.euclidean(1))
        with pytest.raises(ConvergenceError, match="no product-orthogonal pair found on the angle grid"):
            minkowski_auerbach(space, tolerances=Tolerances(eq_tol=1e-17))

    # the grid of 720 angles holds the axis and diagonal pairs, so every
    # Euclidean and p-norm block finds its pair there down to eq_tol = 1e-15
    # and needs nothing off the grid
    @pytest.mark.parametrize("p", [2.0, 1.001, 1.5, 3.0, 10.0, 200.0])
    def test_smooth_block_finds_its_pair_on_the_grid(self, p):
        block = NormSpec.euclidean(2) if p == 2.0 else NormSpec.pnorm(p, 2)
        for eq_tol in (1e-6, 1e-9, 1e-12, 1e-15):
            u, v = _sip_orthogonal_pair(block, Tolerances(eq_tol=eq_tol))
            assert max(abs(sip(block, u, v)), abs(sip(block, v, u))) <= eq_tol
            assert norm(block, u) == pytest.approx(1.0, abs=1e-12)
            assert norm(block, v) == pytest.approx(1.0, abs=1e-12)
            assert abs(u[0] * v[1] - u[1] * v[0]) > 0.5

    def test_peak_memory(self):
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(2)
        minkowski_auerbach(space)  # first-call allocations are not the search's
        tracemalloc.start()
        try:
            minkowski_auerbach(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def _loop_birkhoff_margin(space, x, y, opt_tol=1e-7):
    """Reference: birkhoff_margin with one scalar norm call per seed-grid point."""
    nx, ny = norm(space, x), norm(space, y)
    if nx == 0.0 or ny == 0.0:
        return nx, 0.0
    xh, yh = x / nx, y / ny

    def f(t):
        return norm(space, xh + float(t) * yh)

    grid = np.linspace(-8.0, 8.0, 33)
    vals = [f(t) for t in grid]
    t0 = float(grid[int(np.argmin(vals))])
    pt, val = reference_minimize(lambda t: f(t[0]), np.array([t0]), opt_tol=opt_tol, max_iter=500)
    best_t, best_v = float(pt[0]), float(val)
    if min(vals) < best_v:
        best_t, best_v = t0, float(min(vals))
    return nx * best_v, best_t * nx / ny


class TestBirkhoffSeedGrid:
    @pytest.mark.parametrize(
        "space",
        [E2, MAX2, P3, NormSpec.custom_gauge(lambda v: float(abs(v[0]) + 2.0 * abs(v[1])), 2)],
        ids=["euclidean", "max", "p3", "gauge"],
    )
    def test_matches_scalar_loop_reference_bitwise(self, space, rng):
        pairs = [rng.uniform(-2.0, 2.0, (2, 2)) for _ in range(20)]
        pairs += [np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]  # a tie, a zero
        for x, y in pairs:
            assert birkhoff_margin(space, x, y) == _loop_birkhoff_margin(space, x, y)


class TestPythagoreanScan:
    @pytest.mark.parametrize(
        "spec",
        [NormSpec.euclidean(2), NormSpec.max_norm(2), NormSpec.pnorm(3.0, 2), NormSpec.pnorm(4.0, 2)],
        ids=["euclidean", "max", "p3", "p4"],
    )
    @pytest.mark.parametrize("resolution", [90, 120, 360])
    def test_negated_scales_give_the_same_residuals(self, spec, resolution):
        # the scan skips (-lam, -mu): it must give -D and the same norms bitwise
        U = _unit_vectors(spec, np.linspace(0.0, np.pi, resolution, endpoint=False))
        for lam in (0.25, 0.5, 1.0, 2.0):
            for mu in (0.25, 0.5, 1.0, 2.0, -0.25, -0.5, -1.0, -2.0):
                D = (lam * U[:, None, :] - mu * U[None, :, :]).reshape(-1, 2)
                neg = (-lam * U[:, None, :] - -mu * U[None, :, :]).reshape(-1, 2)
                assert np.array_equal(neg, -D)
                assert np.array_equal(norm_batch(spec, neg), norm_batch(spec, D))

    @pytest.mark.parametrize(
        "spec, inner_product",
        [
            (NormSpec.euclidean(2), True),
            (NormSpec.max_norm(2), False),
            (NormSpec.pnorm(3.0, 2), False),
            (NormSpec.pnorm(4.0, 2), False),
            # the inner-product norm sqrt(x^2 + 4 y^2), in which the axes are orthogonal
            (NormSpec.custom_gauge(lambda v: math.sqrt(v[0] * v[0] + 4.0 * v[1] * v[1]), 2), True),
            # 8e-8 above the Euclidean norm where x y > 0: which pairs survive, and which is least,
            # turns on both orientations and on the largest scale pairs
            (NormSpec.custom_gauge(lambda v: math.hypot(v[0], v[1]) * (1.0 + 8e-8 * (v[0] * v[1] > 0.0)), 2), None),
        ],
        ids=["euclidean", "max", "p3", "p4", "gauge", "lopsided"],
    )
    @pytest.mark.parametrize("resolution", [90, 97, 120, 128, 360])
    def test_pair_matches_the_full_matrix_reference(self, spec, inner_product, resolution):
        expected = reference_pythagorean_scan(spec, resolution)
        found = pythagorean_subspace_scan(spec, resolution)
        if expected is None:
            assert found is None
        else:
            assert found is not None
            assert np.array_equal(found[0], expected[0]) and np.array_equal(found[1], expected[1])
        # mutually Pythagorean lines exist exactly in the inner-product planes; an even grid holds the axes
        if inner_product is not None and resolution % 2 == 0:
            assert (found is not None) == inner_product

    def test_nan_norm_raises(self):
        # the gauge is NaN at the origin: the first scale pair reaches it on the diagonal
        spec = NormSpec.custom_gauge(lambda v: math.sqrt(v @ v) if np.any(v) else math.nan, 2)
        with pytest.raises(NumericalError):
            pythagorean_subspace_scan(spec, 90)

    def test_non_finite_norm_of_a_later_scale_pair_raises(self):
        # among the pairs that survive the earlier scale pairs, only (2, +-2) reach |D| > 2.5;
        # built directly, since the gauge fails the homogeneity spot check on purpose
        spec = NormSpec("gauge", 2, gauge=lambda v: math.sqrt(v @ v) if v @ v < 6.25 else math.inf)
        with pytest.raises(NumericalError):
            pythagorean_subspace_scan(spec, 90)

    def test_peak_memory(self):
        spec = NormSpec.pnorm(4.0, 2)
        pythagorean_subspace_scan(spec, 90)  # first-call allocations are not the scan's
        tracemalloc.start()
        try:
            assert pythagorean_subspace_scan(spec, 360) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_euclidean_finds_perpendicular_pair(self):
        found = pythagorean_subspace_scan(NormSpec.euclidean(2), 360)
        assert found is not None
        u, v = found
        assert abs(float(u @ v)) <= 1e-7

    def test_max_norm_finds_none(self):
        assert pythagorean_subspace_scan(NormSpec.max_norm(2), 360) is None

    def test_p4_finds_none(self):
        assert pythagorean_subspace_scan(NormSpec.pnorm(4.0, 2), 360) is None

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            pythagorean_subspace_scan(NormSpec.euclidean(2), 45)
