import math
import warnings

import numpy as np
import pytest

from sipmink import hyperboloid
from sipmink.config import config_from_mapping
from sipmink.errors import ConvergenceError, DomainError, NumericalError, PathError, TangentError, UnsupportedError
from sipmink.hyperboloid import (
    _EPS3,
    HPoint,
    _NodeObjective,
    Path,
    _energy_gradient,
    _path_energy,
    _quadrature_grid,
    _relax_simplex,
    _segment_lengths,
    as_hpoint,
    cosh_residual,
    ds2,
    f_directional,
    geodesic_distance,
    geodesic_path,
    lift,
    linear_path,
    path_length,
    sample_pairs,
    tangent_frame,
)
from sipmink.minkowski import (
    GeneralizedMinkowskiSpace,
    VectorClass,
    classify,
    max_norm_spacetime,
    product_plus,
)
from sipmink.norms import NormSpec, norm, norm_batch, sip
from sipmink.numerics import DEFAULT_TOLERANCES, Seed, central_diff, first_diff_step, integrate, minimize_rows
from sipmink.ortho import orthogonal_companion_basis
from sipmink.suites import suite_geodesic_cosh

from references import reference_minimize

PSEUDO21 = GeneralizedMinkowskiSpace.pseudo_euclidean(2)
PSEUDO31 = GeneralizedMinkowskiSpace.pseudo_euclidean(3)
PSEUDO11 = GeneralizedMinkowskiSpace.pseudo_euclidean(1)
PSEUDO91 = GeneralizedMinkowskiSpace.pseudo_euclidean(9)
REMARK = max_norm_spacetime()
P3SPACE = GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1))
GAUGE_SPACE = GeneralizedMinkowskiSpace.from_norms(
    NormSpec.custom_gauge(lambda v: float(abs(v[0]) + 2.0 * abs(v[1])), 2), NormSpec.euclidean(1)
)
MAX31 = GeneralizedMinkowskiSpace.from_norms(NormSpec.max_norm(3), NormSpec.euclidean(1))
MAX11 = GeneralizedMinkowskiSpace.from_norms(NormSpec.max_norm(1), NormSpec.euclidean(1))
MAX91 = GeneralizedMinkowskiSpace.from_norms(NormSpec.max_norm(9), NormSpec.euclidean(1))


def hyperbolic_distance(space, a, b):
    """Closed-form oracle for pseudo-Euclidean models."""
    return float(np.arccosh(-product_plus(space, a.vector, b.vector)))


class TestLift:
    def test_pole(self):
        p = lift(PSEUDO21, [0.0, 0.0])
        assert p.tau == 1.0
        assert list(p.vector) == [0.0, 0.0, 1.0]

    def test_sinh_cosh(self):
        p = lift(PSEUDO21, [np.sinh(1.0), 0.0])
        assert p.tau == pytest.approx(np.cosh(1.0), abs=1e-12)

    def test_defining_identity(self, rng):
        for space in (PSEUDO21, REMARK, P3SPACE):
            for _ in range(25):
                p = lift(space, rng.uniform(-2, 2, 2))
                assert product_plus(space, p.vector, p.vector) == pytest.approx(-1.0, abs=1e-12)

    def test_needs_spacetime(self):
        wide = GeneralizedMinkowskiSpace.pseudo_euclidean(2, t_dim=2)
        with pytest.raises(UnsupportedError):
            lift(wide, [0.0, 0.0])

    def test_as_hpoint_roundtrip(self):
        p = lift(PSEUDO21, [0.3, -0.4])
        q = as_hpoint(PSEUDO21, p.vector)
        assert q.s == pytest.approx(p.s) and q.tau == pytest.approx(p.tau)
        with pytest.raises(DomainError):
            as_hpoint(PSEUDO21, [0.0, 0.0, -1.0])

    @pytest.mark.parametrize("space", [PSEUDO21, REMARK], ids=["pseudo21", "max"])
    @pytest.mark.parametrize("r", [1e3, 1e4, 1e5])
    def test_as_hpoint_roundtrip_far_from_pole(self, space, r):
        # [v,v]+ of a lifted point carries rounding of order eps * tau^2
        p = lift(space, [r, 0.7 * r])
        q = as_hpoint(space, p.vector)
        assert np.array_equal(q.s, p.s) and q.tau == p.tau

    @pytest.mark.parametrize("space", [PSEUDO21, REMARK], ids=["pseudo21", "max"])
    @pytest.mark.parametrize("v", [[math.nan, 0.0, 1.0], [0.0, 0.0, math.nan], [math.inf, 0.0, math.inf]])
    def test_as_hpoint_rejects_a_non_finite_coordinate(self, space, v):
        # no such vector is a point of H+; a distance from one could only fail later, in the solver
        with pytest.raises(DomainError, match="^vector has a non-finite coordinate$"):
            as_hpoint(space, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("space", [PSEUDO21, REMARK, P3SPACE], ids=["pseudo21", "max", "pnorm3"])
    @pytest.mark.parametrize("s", [[1e200, 0.0], [0.0, -2e154], [1e300, 1e300]])
    def test_an_overflowing_square_raises(self, space, s):
        # [s, s] = inf gave tau = inf, a point off H+ that printed as ",inf"; the overflow is
        # not warned of, since the error names it
        with pytest.raises(NumericalError, match="not finite"):
            lift(space, s)
        with pytest.raises(NumericalError, match="not finite"):
            hyperboloid.lift_rows(space, np.array([[0.3, -0.4], s]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("space", [PSEUDO21, REMARK], ids=["pseudo21", "max"])
    @pytest.mark.parametrize("s", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]])
    def test_a_non_finite_coordinate_is_a_domain_error(self, space, s):
        # not an overflow of [s, s]: the input is no point of S, as as_hpoint says of it
        with pytest.raises(DomainError, match="^vector has a non-finite coordinate$"):
            lift(space, s)
        with pytest.raises(DomainError, match="^vector has a non-finite coordinate$"):
            hyperboloid.lift_rows(space, np.array([[0.3, -0.4], s]))

    @pytest.mark.parametrize("space", [PSEUDO21, REMARK, P3SPACE], ids=["pseudo21", "max", "pnorm3"])
    def test_a_large_finite_square_lifts(self, space):
        p = lift(space, [1e150, -1e150])
        assert math.isfinite(p.tau) and p.tau >= 1e150

    @pytest.mark.parametrize("space", [PSEUDO21, REMARK], ids=["pseudo21", "max"])
    @pytest.mark.parametrize("s", [[0.3, -0.4], [1e3, 700.0]])
    def test_as_hpoint_rejects_sphere_of_radius_sqrt2(self, space, s):
        v = np.sqrt(2.0) * lift(space, s).vector
        assert product_plus(space, v, v) == pytest.approx(-2.0)
        with pytest.raises(DomainError):
            as_hpoint(space, v)


class TestDirectionalDerivative:
    def test_zero_base(self):
        assert f_directional(PSEUDO21, [0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_euclidean_value_and_fd_oracle(self):
        s, e = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        val = f_directional(PSEUDO21, s, e)
        assert val == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        f = lambda t: float(np.sqrt(1 + (s + t * e) @ (s + t * e)))
        assert val == pytest.approx(central_diff(f, 0.0, 1e-6), abs=1e-8)

    def test_max_norm_tie_free_value(self):
        s, e = np.array([2.0, 1.0]), np.array([1.0, 0.0])
        val = f_directional(REMARK, s, e)
        assert val == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-12)
        f = lambda t: float(np.sqrt(1 + norm(REMARK.s_space, s + t * e) ** 2))
        assert val == pytest.approx(central_diff(f, 0.0, 1e-7), abs=1e-7)

    def test_requires_unit_direction(self):
        with pytest.raises(DomainError):
            f_directional(PSEUDO21, [1.0, 0.0], [2.0, 0.0])

    def test_fd_agreement_over_families(self, rng):
        for space in (PSEUDO21, P3SPACE):
            block = space.s_space
            for _ in range(100):
                s = rng.uniform(-1.5, 1.5, 2)
                e = rng.uniform(-1, 1, 2)
                if not np.any(e):
                    continue
                e = e / norm(block, e)
                f = lambda t: float(np.sqrt(1 + sip(block, s + t * e, s + t * e)))
                fd = central_diff(f, 0.0, first_diff_step(norm(block, s)))
                assert abs(f_directional(space, s, e) - fd) <= 1e-5


class TestTangentFrame:
    def test_pole_frame_is_standard_basis(self):
        frame = tangent_frame(PSEUDO21, lift(PSEUDO21, [0.0, 0.0]))
        assert np.array(frame.vectors) == pytest.approx(np.eye(3)[:2])

    def test_boosted_point_frame(self):
        v = lift(PSEUDO21, [np.sinh(1.0), 0.0])
        frame = tangent_frame(PSEUDO21, v)
        assert frame.vectors[0] == pytest.approx([1.0, 0.0, np.tanh(1.0)], abs=1e-12)
        for u in frame.vectors:
            assert abs(product_plus(PSEUDO21, u, v.vector)) <= 1e-10

    def test_frame_vectors_space_like(self, rng):
        for space in (PSEUDO21, P3SPACE, REMARK):
            for _ in range(25):
                v = lift(space, rng.uniform(-1.5, 1.5, 2))
                for u in tangent_frame(space, v).vectors:
                    assert classify(space, u) is VectorClass.SPACE_LIKE

    def test_frame_spans_companion(self, rng):
        # tangent vectors = orthogonal companion of the base point
        pp = lambda a, b: product_plus(PSEUDO21, a, b)
        for _ in range(25):
            v = lift(PSEUDO21, rng.uniform(-1.5, 1.5, 2))
            frame = np.array(tangent_frame(PSEUDO21, v).vectors).T
            for w in orthogonal_companion_basis(pp, v.vector):
                _, res, _, _ = np.linalg.lstsq(frame, w, rcond=None)
                assert res.size == 0 or float(np.sqrt(res[0])) <= 1e-8

    def test_tangent_positivity(self, rng):
        # nonzero companion combinations have positive Minkowski square
        for space in (PSEUDO21, P3SPACE):
            pp = lambda a, b: product_plus(space, a, b)
            for _ in range(100):
                v = lift(space, rng.uniform(-1.5, 1.5, 2))
                basis = orthogonal_companion_basis(pp, v.vector)
                c = rng.uniform(-2, 2, len(basis))
                w = sum(ci * bi for ci, bi in zip(c, basis))
                if not np.any(w):
                    continue
                assert pp(w, w) > 0.0


class TestDs2:
    def test_pole_values(self):
        v = lift(PSEUDO21, [0.0, 0.0])
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert ds2(PSEUDO21, v, e1, e1) == 1.0
        assert ds2(PSEUDO21, v, e1, e2) == 0.0

    def test_boosted_value_positive_and_consistent(self):
        v = lift(PSEUDO21, [np.sinh(1.0), 0.0])
        u = tangent_frame(PSEUDO21, v).vectors[0]
        val = ds2(PSEUDO21, v, u, u)
        assert val > 0
        s1, _ = u[:2], u[2]
        qv = float(v.s @ v.s)
        closed = float(s1 @ s1) - float(s1 @ v.s) ** 2 / (1 + qv)
        assert val == pytest.approx(closed, abs=1e-9)

    def test_linear_in_first_argument(self, rng):
        v = lift(PSEUDO21, [0.4, -0.2])
        frame = tangent_frame(PSEUDO21, v).vectors
        for _ in range(20):
            alpha = float(rng.uniform(-2, 2))
            lhs = ds2(PSEUDO21, v, alpha * frame[0], frame[1])
            rhs = alpha * ds2(PSEUDO21, v, frame[0], frame[1])
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_non_tangent_rejected(self):
        v = lift(PSEUDO21, [0.0, 0.0])
        with pytest.raises(TangentError):
            ds2(PSEUDO21, v, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))


class TestPathLength:
    def test_unit_speed_parametrization(self):
        # nodes on t -> (sinh t, 0, cosh t): length of [0,1] is 1
        ts = np.linspace(0.0, 1.0, 65)
        path = Path.from_s_nodes(PSEUDO21, np.stack([np.sinh(ts), np.zeros_like(ts)], axis=1))
        assert path_length(PSEUDO21, path, 4) == pytest.approx(1.0, abs=1e-4)

    def test_constant_path(self):
        path = Path.from_s_nodes(PSEUDO21, np.zeros((5, 2)))
        assert path_length(PSEUDO21, path, 4) == 0.0

    def test_grid_refinement_convergence(self):
        a, b = lift(PSEUDO21, [0.0, 0.5]), lift(PSEUDO21, [1.0, -0.3])
        coarse = path_length(PSEUDO21, linear_path(PSEUDO21, a, b, 16), 4)
        fine = path_length(PSEUDO21, linear_path(PSEUDO21, a, b, 32), 4)
        assert abs(coarse - fine) <= 1e-3

    def test_matches_quadrature_oracle_on_one_segment(self):
        # independent oracle: Simpson integration of the exact speed of the
        # chord lift s(t) = (t, 0), tau(t) = sqrt(1 + t^2)
        path = Path.from_s_nodes(PSEUDO21, np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))
        speed = lambda t: np.sqrt(1.0 - t * t / (1.0 + t * t))
        oracle = integrate(speed, 0.0, 1.0, 64)
        assert path_length(PSEUDO21, path, 64) == pytest.approx(oracle, abs=1e-9)

    def test_needs_two_segments(self):
        with pytest.raises(DomainError):
            Path.from_s_nodes(PSEUDO21, np.zeros((2, 2)))


def _loop_perturbed_segments(s_nodes, h=1e-6):
    """Reference: the starts and deltas of the perturbed segments, one Python
    loop per perturbation, ordered (node, coordinate, sign, left/right)."""
    m, k = s_nodes.shape[0] - 1, s_nodes.shape[1]
    starts, deltas = [], []
    for i in range(1, m):
        for c in range(k):
            for sign in (1.0, -1.0):
                p = s_nodes[i].copy()
                p[c] += sign * h
                starts.append(s_nodes[i - 1])
                deltas.append(p - s_nodes[i - 1])
                starts.append(p)
                deltas.append(s_nodes[i + 1] - p)
    return np.array(starts), np.array(deltas)


def _loop_energy_gradient(space, s_nodes, quad_m, h=1e-6):
    """Reference: the gradient assembly as one Python loop per perturbation."""
    m, k = s_nodes.shape[0] - 1, s_nodes.shape[1]
    L = _segment_lengths(space, *_loop_perturbed_segments(s_nodes, h), quad_m)
    pair = (m * (L[0::2] ** 2 + L[1::2] ** 2)).reshape(m - 1, k, 2)
    return (pair[:, :, 0] - pair[:, :, 1]) / (2.0 * h)


def _same_bits(got, expected):
    """Equal values with equal signs of zero."""
    return np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))


def _vstack_relax_sweep(space, s_nodes, quad_m, opt_tol):
    """Reference: one node-wise simplex sweep whose local objective stacks
    the three nodes and slices out the two segments on every evaluation."""
    for i in range(1, s_nodes.shape[0] - 1):
        def local(sv, i=i):
            sub = np.vstack([s_nodes[i - 1], sv, s_nodes[i + 1]])
            L = _segment_lengths(space, sub[:-1], sub[1:] - sub[:-1], quad_m)
            return float(np.sum(L * L))

        try:
            best, _ = reference_minimize(local, s_nodes[i], opt_tol=max(opt_tol, 1e-8), max_iter=300)
        except ConvergenceError as err:
            best = err.best_point
        s_nodes[i] = best
    return s_nodes


ASSEMBLY_SPACES = pytest.mark.parametrize(
    "space", [PSEUDO21, P3SPACE, PSEUDO31], ids=["pseudo21", "p3", "pseudo31"]
)
ASSEMBLY_NODES = pytest.mark.parametrize("m", [4, 7, 32])


def _random_nodes(space, m):
    return np.random.default_rng(1000 * m + space.k).uniform(-1.5, 1.5, (m + 1, space.k))


def _signed_zero_nodes(space, m, h=1e-6):
    """_random_nodes with exact +0.0 and -0.0 coordinates, and coordinates
    that a move of h takes to exact zeros."""
    nodes = _random_nodes(space, m)
    nodes[::3, 0] = -0.0
    nodes[1::3, -1] = 0.0
    nodes[2::4, 0] = h
    nodes[3::4, -1] = -h
    return nodes


def _reference_radicand(space, seg_starts, seg_deltas, quad_m):
    """Reference: the radicands speed^2 - dtau^2 of the chord lifts at the
    Simpson nodes and the squared speeds, with one norm_batch call each for
    the forward-shifted points, the backward-shifted points and the deltas."""
    s_space = space.s_space
    sig, _ = _quadrature_grid(quad_m)
    P = seg_starts[:, None, :] + sig[None, :, None] * seg_deltas[:, None, :]
    step = _EPS3
    off = step * seg_deltas[:, None, :]
    tau_p = np.sqrt(1.0 + norm_batch(s_space, P + off) ** 2)
    tau_m = np.sqrt(1.0 + norm_batch(s_space, P - off) ** 2)
    dtau = (tau_p - tau_m) / (2.0 * step)
    speed2 = norm_batch(s_space, seg_deltas) ** 2
    return speed2[:, None] - dtau**2, speed2


def _three_call_segment_lengths(space, seg_starts, seg_deltas, quad_m):
    """Reference: the chord-lift lengths from _reference_radicand."""
    rad, speed2 = _reference_radicand(space, seg_starts, seg_deltas, quad_m)
    floor = -1e-11 * max(1.0, float(np.max(speed2, initial=0.0)))
    if np.any(rad < floor):
        raise PathError("curve velocity left the space-like regime")
    g = np.sqrt(np.clip(rad, 0.0, None))
    return g @ _quadrature_grid(quad_m)[1]


class TestSegmentLengths:
    # k = 1, 2, 3 and 9, every row summed in index order whatever its layout;
    # a max block takes the np.maximum of its k squared coordinate planes, at every k
    @pytest.mark.parametrize(
        "space",
        [PSEUDO21, P3SPACE, REMARK, GAUGE_SPACE, PSEUDO11, PSEUDO31, PSEUDO91, MAX11, MAX31, MAX91],
        ids=["euclidean", "p3", "max", "gauge", "pseudo11", "pseudo31", "pseudo91", "max11", "max31", "max91"],
    )
    # 1 and 2 segments (a node-wise local objective), 4k(m-1) at m=32 (an energy gradient)
    @pytest.mark.parametrize("segments", [1, 2, 4 * 2 * 31])
    @pytest.mark.parametrize("quad_m", [4, 8])
    def test_matches_three_call_reference_bitwise(self, space, segments, quad_m):
        rng = np.random.default_rng(7 * segments + quad_m)
        starts = rng.uniform(-1.5, 1.5, (segments, space.k))
        deltas = rng.uniform(-0.4, 0.4, (segments, space.k))
        expected = _three_call_segment_lengths(space, starts, deltas, quad_m)
        assert np.array_equal(_segment_lengths(space, starts, deltas, quad_m), expected)
        # the same segments read from coordinate-major buffers, as node-wise candidates with their own floors
        groups = segments // 2 if segments % 2 == 0 else segments
        by_coordinate = [np.ascontiguousarray(a.T).T for a in (starts, deltas)]
        assert np.array_equal(_segment_lengths(space, *by_coordinate, quad_m, groups=groups), expected)

    @pytest.mark.parametrize("segments", [1, 3])
    def test_time_like_chord_raises_the_same_path_error(self, segments):
        # a short radial chord far out: the central difference of the lift
        # makes its velocity time-like
        starts = np.tile([[0.5, 0.0]], (segments, 1))
        deltas = np.tile([[0.1, 0.2]], (segments, 1))
        starts[-1], deltas[-1] = [1e5, 0.0], [0.1, 0.0]
        with pytest.raises(PathError) as ref:
            _three_call_segment_lengths(PSEUDO21, starts, deltas, 4)
        with pytest.raises(PathError) as err:
            _segment_lengths(PSEUDO21, starts, deltas, 4)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("space", [PSEUDO21, P3SPACE, PSEUDO91, REMARK], ids=["euclidean", "p3", "pseudo91", "max"])
    def test_overflowing_squares_warn_as_the_reference_does(self, space):
        # near 1e155 a squared norm overflows, so each tau is inf and their difference nan;
        # under -W error the first of these warnings is the failure, so the order must hold
        rng = np.random.default_rng(155)
        starts, deltas = rng.uniform(-1.5, 1.5, (6, space.k)), rng.uniform(-0.4, 0.4, (6, space.k))
        starts[::2] *= 1e155
        deltas[::3] *= 1e153
        seen = []
        for kernel in (_three_call_segment_lengths, _segment_lengths):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = _outcome(lambda: kernel(space, starts, deltas, 4))
            seen.append((outcome, [(w.category, str(w.message)) for w in caught]))
        (expected, expected_warnings), (got, got_warnings) = seen
        if isinstance(expected, tuple):  # a time-like chord: the same PathError
            assert got == expected
        else:
            assert np.array_equal(got, expected, equal_nan=True) and np.isnan(got[::2]).all()
        assert got_warnings and all(category is RuntimeWarning for category, _ in got_warnings)
        # the reference squares each of its three batches apart, so it may warn of one overflow twice
        assert list(dict.fromkeys(got_warnings)) == list(dict.fromkeys(expected_warnings))

    @pytest.mark.parametrize("space", [MAX11, REMARK, MAX31, MAX91], ids=["max11", "max", "max31", "max91"])
    @pytest.mark.parametrize("special", [0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan, 1e155, -3e170])
    def test_max_planes_square_before_their_maximum(self, space, special):
        # a max block squares every coordinate plane and takes their maximum, which is the
        # square of the largest |entry| because rounding is monotone: the same lengths,
        # nan or PathError as squaring the norms, and the same first warning, which is the
        # failure under -W error (past an infinite coordinate the reference forms P - eps D
        # by a subtract where the kernel adds -eps D, so a later warning may name another ufunc)
        rng = np.random.default_rng(17)
        starts, deltas = rng.uniform(-1.5, 1.5, (6, space.k)), rng.uniform(-0.4, 0.4, (6, space.k))
        starts[0, 0] = deltas[1, -1] = starts[2] = deltas[3] = special
        seen = []
        for kernel in (_three_call_segment_lengths, _segment_lengths):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = _outcome(lambda: kernel(space, starts, deltas, 4))
            seen.append((outcome, [(w.category, str(w.message)) for w in caught]))
        (expected, expected_warnings), (got, got_warnings) = seen
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert np.array_equal(got, expected, equal_nan=True)
        assert got_warnings[:1] == expected_warnings[:1]
        if abs(special) > 1e154 and math.isfinite(special):
            assert got_warnings[0] == (RuntimeWarning, "overflow encountered in square")

    @pytest.mark.parametrize("space", [REMARK, PSEUDO21, P3SPACE], ids=["max", "euclidean", "p3"])
    def test_group_lengths_do_not_depend_on_the_batch(self, space):
        # a Nelder-Mead step evaluates each candidate node P of a problem
        # (lo, hi) as the segments lo -> P and P -> hi of one _NodeObjective
        # batch whose make-up changes from step to step, so a candidate's
        # value must be that of its two lengths alone at every position
        rng = np.random.default_rng(48)
        lo, mid, hi = rng.uniform(-1.5, 1.5, (3, 48, 2))
        candidates = [(lo[5].copy(), mid[5].copy(), hi[5].copy())]
        if space is REMARK:
            # a short radial chord far out, then a far radial chord: both radicands sit
            # below every other candidate's space-like floor, and above this candidate's,
            # which the far chord sets for the short one too
            far = np.array([56910.9, 0.0]), np.array([56911.0, 0.0]), np.array([58578.0, 0.0])
            rad, speed2 = _reference_radicand(space, np.array(far[:2]), np.array([far[1] - far[0], far[2] - far[1]]), 4)
            assert np.all((-1e-11 * float(np.max(speed2)) < rad.min(axis=1)) & (rad.min(axis=1) < -1e-11))
            candidates.append(far)
        plans = {}  # one level's plans: every objective below takes the plan of its batch size from them
        for a, x, b in candidates:
            left, right = _segment_lengths(space, np.array([a, x]), np.array([x - a, b - x]), 4)
            alone = left * left + right * right
            for at in range(48):
                L, X, H = lo.copy(), mid.copy(), hi.copy()
                L[at], X[at], H[at] = a, x, b
                rows = np.arange(48)
                assert _NodeObjective(space, L, H, 4, {})(rows, X)[at] == alone
                # a second call on the same rows reuses the plan's gathered lo and hi; a
                # smaller rows array, as when a row leaves the batch, takes the plan of its
                # size, which the objectives of earlier positions left holding their rows
                objective = _NodeObjective(space, L, H, 4, plans)
                objective(rows, np.roll(X, 1, axis=0))
                assert objective(rows, X)[at] == alone
                left_batch = rows[rows != (at + 1) % 48]
                assert objective(left_batch, X[left_batch])[np.flatnonzero(left_batch == at)[0]] == alone
                assert objective(rows, X)[at] == alone
        assert sorted(plans) == [47, 48]
        if space is REMARK:
            # two short radial chords far out make a time-like candidate, alone and
            # beside the far chord, whose floor is not its own
            short = np.array([99999.9, 0.0]), np.array([1e5, 0.0]), np.array([100000.1, 0.0])
            for batch in ([short], [far, short], [short, far]):
                L, X, H = (np.array(column) for column in zip(*batch))
                with pytest.raises(PathError):
                    _NodeObjective(space, L, H, 4, {})(np.arange(len(batch)), X)


class TestSolverAssembly:
    # at k = 9 norm_batch adds nine squares per row of the coordinate-major chord-lift view, in index order
    @pytest.mark.parametrize(
        "space", [PSEUDO21, P3SPACE, PSEUDO31, PSEUDO91], ids=["pseudo21", "p3", "pseudo31", "pseudo91"]
    )
    @ASSEMBLY_NODES
    def test_gradient_matches_loop_reference_bitwise(self, space, m):
        for nodes in (_random_nodes(space, m), _signed_zero_nodes(space, m)):
            g, energy = _energy_gradient(space, nodes, 4)
            assert np.array_equal(g, _loop_energy_gradient(space, nodes, 4))
            assert energy == _path_energy(space, nodes, 4)

    @pytest.mark.parametrize("space", [PSEUDO21, P3SPACE, PSEUDO91], ids=["pseudo21", "p3", "pseudo91"])
    def test_gradient_lengths_match_the_three_call_reference(self, space):
        # the loop reference above shares _segment_lengths; this one takes its lengths from
        # the three-call reference, so the work arrays of a level are checked too
        m, h = 7, 1e-6
        nodes = _random_nodes(space, m)
        L = _three_call_segment_lengths(space, *_loop_perturbed_segments(nodes, h), 4)
        pair = (m * (L[0::2] ** 2 + L[1::2] ** 2)).reshape(m - 1, space.k, 2)
        path = _three_call_segment_lengths(space, nodes[:-1], nodes[1:] - nodes[:-1], 4)
        g, energy = _energy_gradient(space, nodes, 4)
        assert np.array_equal(g, (pair[:, :, 0] - pair[:, :, 1]) / (2.0 * h))
        assert energy == float(m * np.sum(path * path))

    @pytest.mark.parametrize(
        "space", [PSEUDO11, PSEUDO21, PSEUDO31, PSEUDO91], ids=["pseudo11", "pseudo21", "pseudo31", "pseudo91"]
    )
    @ASSEMBLY_NODES
    def test_plan_measures_the_loop_segments(self, space, m, monkeypatch):
        # the plan's order: every left segment, every right segment, then the
        # path; each coordinate the move leaves alone keeps its sign of zero
        nodes = _signed_zero_nodes(space, m)
        seen = []

        def spy(space, seg_starts, seg_deltas, quad_m, buf=None):
            seen.append((seg_starts.copy(), seg_deltas.copy()))
            return _segment_lengths(space, seg_starts, seg_deltas, quad_m, buf)

        monkeypatch.setattr(hyperboloid, "_segment_lengths", spy)
        g, energy = _energy_gradient(space, nodes, 4)
        (starts, deltas), = seen
        loop_starts, loop_deltas = _loop_perturbed_segments(nodes)
        path_starts, path_deltas = nodes[:-1], nodes[1:] - nodes[:-1]
        assert _same_bits(starts, np.concatenate([loop_starts[0::2], loop_starts[1::2], path_starts]))
        assert _same_bits(deltas, np.concatenate([loop_deltas[0::2], loop_deltas[1::2], path_deltas]))
        monkeypatch.undo()
        assert np.array_equal(g, _loop_energy_gradient(space, nodes, 4))
        assert energy == _path_energy(space, nodes, 4)

    @pytest.mark.parametrize(
        "space", [PSEUDO21, P3SPACE, PSEUDO31, REMARK], ids=["pseudo21", "p3", "pseudo31", "max"]
    )
    @ASSEMBLY_NODES
    def test_simplex_sweep_matches_vstack_reference_bitwise(self, space, m):
        nodes = _random_nodes(space, m)
        opt_tol = DEFAULT_TOLERANCES.opt_tol
        got = _relax_simplex(space, nodes.copy(), 4, sweeps=1, opt_tol=opt_tol)
        assert np.array_equal(got, _vstack_relax_sweep(space, nodes.copy(), 4, opt_tol))

    @ASSEMBLY_SPACES
    @ASSEMBLY_NODES
    def test_gradient_against_energy_central_difference(self, space, m):
        # independent oracle: perturb the whole path, re-evaluate the energy
        nodes = _random_nodes(space, m)
        g, energy = _energy_gradient(space, nodes, 4)
        assert energy == _path_energy(space, nodes, 4)
        h = 1e-6
        fd = np.empty_like(g)
        for i in range(1, m):
            for c in range(space.k):
                up, down = nodes.copy(), nodes.copy()
                up[i, c] += h
                down[i, c] -= h
                fd[i - 1, c] = (_path_energy(space, up, 4) - _path_energy(space, down, 4)) / (2.0 * h)
        assert np.max(np.abs(g - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(g))))


def _reference_relax_simplex(space, s_nodes, quad_m, sweeps, opt_tol, ran=None):
    """Reference: the node-wise relaxation as one sequential Gauss-Seidel
    loop, one Nelder-Mead descent per node and sweep; appends the number of sweeps
    it ran to ``ran``."""
    m = s_nodes.shape[0] - 1
    for sweep in range(sweeps):
        moved = 0.0
        for i in range(1, m):
            starts, deltas = np.empty((2, 2, s_nodes.shape[1]))  # rewritten by every evaluation
            starts[0] = s_nodes[i - 1]

            def local(sv, starts=starts, deltas=deltas, hi=s_nodes[i + 1].copy()):
                starts[1] = sv
                np.subtract(sv, starts[0], out=deltas[0])
                np.subtract(hi, sv, out=deltas[1])
                L = _segment_lengths(space, starts, deltas, quad_m)
                return float(np.add.reduce(L * L))

            try:
                best, _ = reference_minimize(local, s_nodes[i], opt_tol=max(opt_tol, 1e-8), max_iter=300)
            except ConvergenceError as err:  # keep the best point found
                best = err.best_point
            moved = max(moved, float(np.max(np.abs(best - s_nodes[i]))))
            s_nodes[i] = best
        if moved < opt_tol:
            break
    if ran is not None:
        ran.append(sweep + 1)
    return s_nodes


def _outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as err:
        return type(err), str(err)


class TestWavefrontRelaxation:
    """The lock-step wavefront against the sequential loop it schedules."""

    SPACES = pytest.mark.parametrize("space", [REMARK, MAX31, GAUGE_SPACE], ids=["max21", "max31", "gauge"])

    @SPACES
    @pytest.mark.parametrize("m", [4, 7, 16])
    @pytest.mark.parametrize("sweeps", [1, 3, 8])
    def test_matches_the_sequential_loop_bitwise(self, space, m, sweeps):
        nodes = _random_nodes(space, m)
        opt_tol = DEFAULT_TOLERANCES.opt_tol
        got = _relax_simplex(space, nodes.copy(), 4, sweeps, opt_tol)
        assert np.array_equal(got, _reference_relax_simplex(space, nodes.copy(), 4, sweeps, opt_tol))

    # from the straight chord between (100, 0, ...) and (0, 100, ...), the loop
    # stops after 4 (gauge, m=16) or 7 (max 3+1, m=7) of 8 sweeps, when the
    # wavefront has already run nodes of the sweeps after it
    @pytest.mark.parametrize("space, m, stop", [(GAUGE_SPACE, 16, 4), (MAX31, 7, 7)], ids=["gauge", "max31"])
    def test_early_stop_returns_the_stopping_sweeps_nodes(self, space, m, stop):
        a, b = np.zeros(space.k), np.zeros(space.k)
        a[0] = b[1] = 100.0
        nodes = a + np.linspace(0.0, 1.0, m + 1)[:, None] * (b - a)
        opt_tol, ran = DEFAULT_TOLERANCES.opt_tol, []
        expected = _reference_relax_simplex(space, nodes.copy(), 4, 8, opt_tol, ran)
        assert ran == [stop]
        assert np.array_equal(_relax_simplex(space, nodes.copy(), 4, 8, opt_tol), expected)

    def test_far_max_pair_stops_early_at_the_same_length(self, monkeypatch):
        # the r=1000 pair of the max-norm benchmark pool: its m=16 level stops after 7 of 8 sweeps
        a, b = lift(REMARK, [1000.0, 0.0]), lift(REMARK, [0.0, 1000.0])
        got = geodesic_distance(REMARK, a, b, 16)
        ran = []
        monkeypatch.setattr(hyperboloid, "_relax_simplex", lambda *args, **kw: _reference_relax_simplex(*args, **kw, ran=ran))
        assert geodesic_distance(REMARK, a, b, 16) == got
        assert ran == [3, 3, 7]

    def test_far_max_pair_makes_the_recorded_number_of_length_calls(self, monkeypatch):
        # one _segment_lengths call per start simplex and per Nelder-Mead step of every
        # level, and one for the final length: 3554, as counted before the node-wise
        # objective owned its buffers, so a speed-up cannot come from skipping an evaluation
        calls, real = [], hyperboloid._segment_lengths
        monkeypatch.setattr(hyperboloid, "_segment_lengths", lambda *args, **kw: calls.append(1) or real(*args, **kw))
        geodesic_distance(REMARK, lift(REMARK, [1000.0, 0.0]), lift(REMARK, [0.0, 1000.0]), 16)
        assert len(calls) == 3554

    @SPACES
    def test_reused_plans_give_the_lengths_of_fresh_calls(self, space, monkeypatch):
        # each batch size's plan serves every wavefront step of the level, and the
        # batches of one minimize_rows call shrink as rows leave it: every call on a
        # reused plan gives the bits of a call that builds its own
        calls, real = [], hyperboloid._segment_lengths
        step = [0]

        def spy(space, seg_starts, seg_deltas, quad_m, buf=None, groups=1):
            fresh = real(space, seg_starts.copy(), seg_deltas.copy(), quad_m, groups=groups)
            got = real(space, seg_starts, seg_deltas, quad_m, buf, groups)
            calls.append((step[0], id(buf), len(seg_starts), _same_bits(got, fresh)))
            return got

        def counted(*args, **kwargs):
            step[0] += 1
            return minimize_rows(*args, **kwargs)

        monkeypatch.setattr(hyperboloid, "_segment_lengths", spy)
        monkeypatch.setattr(hyperboloid, "minimize_rows", counted)
        nodes = _random_nodes(space, 16)
        _relax_simplex(space, nodes, 4, 3, DEFAULT_TOLERANCES.opt_tol)
        assert calls and all(same for *_, same in calls)
        steps_of, sizes_in = {}, {}
        for s, plan, n, _ in calls:
            steps_of.setdefault(plan, set()).add(s)
            sizes_in.setdefault(s, set()).add(n)
        assert max(map(len, steps_of.values())) > 1  # a plan served several steps
        assert max(map(len, sizes_in.values())) > 2  # the start simplex, then shrinking batches
        assert len(steps_of) == len({n for _, _, n, _ in calls})  # one plan per batch size

    @pytest.mark.parametrize("space", [PSEUDO21, P3SPACE, PSEUDO91], ids=["pseudo21", "p3", "pseudo91"])
    def test_the_gradient_levels_plan_gives_the_lengths_of_fresh_calls(self, space, monkeypatch):
        calls, real = [], hyperboloid._segment_lengths

        def spy(space, seg_starts, seg_deltas, quad_m, buf=None, groups=1):
            fresh = real(space, seg_starts.copy(), seg_deltas.copy(), quad_m)
            got = real(space, seg_starts, seg_deltas, quad_m, buf, groups)
            calls.append((id(buf), _same_bits(got, fresh)))
            return got

        monkeypatch.setattr(hyperboloid, "_segment_lengths", spy)
        hyperboloid._relax_gradient(space, _random_nodes(space, 8), 4, max_iter=20)
        assert len(calls) > 2 and len({plan for plan, _ in calls}) == 1 and all(same for _, same in calls)

    def test_nan_gauge_raises_what_the_loop_raises(self, monkeypatch):
        # a gauge that is NaN outside a ball, drawn after custom_gauge's spot checks
        radius = [math.inf]
        gauge = lambda v: float(np.max(np.abs(v))) if float(v @ v) < radius[0] ** 2 else math.nan
        space = GeneralizedMinkowskiSpace.from_norms(NormSpec.custom_gauge(gauge, 2), NormSpec.euclidean(1))
        radius[0] = 2.87
        a, b = lift(space, [1.03, -1.8]), lift(space, [2.65, -0.81])
        batches = []  # the rows of each minimize_rows call that raised

        def spy(f, X0, **kwargs):
            try:
                return minimize_rows(f, X0, **kwargs)
            except NumericalError:
                batches.append(len(X0))
                raise

        monkeypatch.setattr(hyperboloid, "minimize_rows", spy)
        got = _outcome(lambda: geodesic_distance(space, a, b, 8))
        assert batches[0] > 1 and batches[1:] == [1]  # the wavefront raised, then the rerun in loop order
        monkeypatch.setattr(hyperboloid, "_relax_simplex", _reference_relax_simplex)
        assert got == _outcome(lambda: geodesic_distance(space, a, b, 8))
        assert got[0] is NumericalError


class TestQuadratureGrid:
    def test_odd_quadrature_rejected(self):
        a, b = lift(PSEUDO21, [0.0, 0.5]), lift(PSEUDO21, [1.0, -0.3])
        with pytest.raises(DomainError):
            path_length(PSEUDO21, linear_path(PSEUDO21, a, b, 4), quad_m=3)
        with pytest.raises(DomainError):
            geodesic_distance(PSEUDO21, a, b, 8, quad_m=3)

    @pytest.mark.parametrize("quad_m", [3, 0, -2, 4.0, 5.0, "4", None, True])
    def test_bad_quadrature_rejected_up_front(self, quad_m):
        a, b = lift(PSEUDO21, [0.0, 0.5]), lift(PSEUDO21, [1.0, -0.3])
        path = linear_path(PSEUDO21, a, b, 4)
        for call in (
            lambda: path_length(PSEUDO21, path, quad_m=quad_m),
            lambda: geodesic_path(PSEUDO21, a, b, 8, quad_m=quad_m),
            lambda: geodesic_distance(PSEUDO21, a, b, 8, quad_m=quad_m),
            lambda: geodesic_distance(PSEUDO21, a, a, 8, quad_m=quad_m),  # checked before the early return
        ):
            with pytest.raises(DomainError, match="^quad_m must be"):
                call()

    def test_integer_like_quadrature_accepted(self):
        a, b = lift(PSEUDO21, [0.0, 0.5]), lift(PSEUDO21, [1.0, -0.3])
        expected = geodesic_distance(PSEUDO21, a, b, 8, quad_m=6)
        assert geodesic_distance(PSEUDO21, a, b, 8, quad_m=np.int64(6)) == expected


class TestGeodesicDistance:
    @pytest.mark.parametrize("m", [16.0, 2.5, "8", None, 1, 0])
    def test_bad_node_count_rejected_up_front(self, m):
        a, b = lift(PSEUDO21, [0.0, 0.5]), lift(PSEUDO21, [1.0, -0.3])
        for call in (
            lambda: geodesic_path(PSEUDO21, a, b, m),
            lambda: geodesic_distance(PSEUDO21, a, b, m),
            lambda: geodesic_distance(PSEUDO21, a, a, m),  # checked before the early return
            lambda: linear_path(PSEUDO21, a, b, m),
        ):
            with pytest.raises(DomainError, match="^m must be"):
                call()

    def test_integer_like_node_count_accepted(self):
        a, b = lift(PSEUDO21, [0.0, 0.5]), lift(PSEUDO21, [1.0, -0.3])
        assert geodesic_distance(PSEUDO21, a, b, np.int64(8)) == geodesic_distance(PSEUDO21, a, b, 8)

    def test_identical_endpoints(self):
        a = lift(PSEUDO21, [0.3, 0.3])
        assert geodesic_distance(PSEUDO21, a, a, 8) == 0.0

    def test_radial_case_against_arccosh(self):
        a = lift(PSEUDO21, [0.0, 0.0])
        b = lift(PSEUDO21, [np.sinh(1.0), 0.0])
        d = geodesic_distance(PSEUDO21, a, b, 16)
        assert abs(d - 1.0) <= 1e-3
        assert abs(d - hyperbolic_distance(PSEUDO21, a, b)) <= 1e-3

    def test_generic_pair_3plus1(self, rng):
        a = lift(PSEUDO31, rng.uniform(-1, 1, 3))
        b = lift(PSEUDO31, rng.uniform(-1, 1, 3))
        d = geodesic_distance(PSEUDO31, a, b, 32)
        assert abs(d - hyperbolic_distance(PSEUDO31, a, b)) <= 1e-3

    def test_swapped_endpoints_agree(self):
        a = lift(PSEUDO21, [np.sinh(1.0), 0.3])
        b = lift(PSEUDO21, [-0.4, np.sinh(1.2)])
        d1 = geodesic_distance(PSEUDO21, a, b, 32)
        d2 = geodesic_distance(PSEUDO21, b, a, 32)
        assert abs(d1 - d2) <= 2e-7

    def test_triangle_inequality(self, rng):
        pts = [lift(PSEUDO21, rng.uniform(-1, 1, 2)) for _ in range(3)]
        d = lambda x, y: geodesic_distance(PSEUDO21, x, y, 16)
        dab, dbc, dac = d(pts[0], pts[1]), d(pts[1], pts[2]), d(pts[0], pts[2])
        assert dac <= dab + dbc + 5e-7

    def test_max_norm_space_runs(self):
        # exploratory: no closed-form assertion, just sanity of the output
        a = lift(REMARK, [0.0, 0.0])
        b = lift(REMARK, [0.6, 0.2])
        d = geodesic_distance(REMARK, a, b, 8)
        assert d > 0.0 and np.isfinite(d)


class TestPoleLaw:
    # Along any path |d|s|| <= |ds|, so d(lift(0), lift(s)) >= asinh|s|, with
    # equality on the radial path: the truth takes the S-norm of s, not its
    # Euclidean radius.  Only the quadrature and the relaxation's stopping
    # point separate the solver from it; 5e-3 as in the cosh-law checks.
    @pytest.mark.parametrize("theta", [0.1, 0.1 + np.pi / 4, 0.1 + 2 * np.pi / 3, 0.1 + 4 * np.pi / 3])
    @pytest.mark.parametrize("r", [0.5, 5.0, 50.0])
    def test_max_norm_pole_distance_is_asinh_of_the_norm(self, r, theta):
        s = r * np.array([np.cos(theta), np.sin(theta)])
        d = geodesic_distance(REMARK, lift(REMARK, [0.0, 0.0]), lift(REMARK, s), 16)
        assert abs(d - np.arcsinh(np.max(np.abs(s)))) <= 5e-3 * max(1.0, d)


SIGNED_PERMUTATIONS = [np.diag(signs) @ P for P in (np.eye(2), np.eye(2)[::-1])
                       for signs in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]


class TestDistanceOracles:
    # The first two near pairs of each smooth space in the benchmark's pool.
    # Reversing a discrete path, or mapping it by a signed permutation of S
    # (an isometry of the Euclidean and p-norms), gives a path of the same
    # discrete length, so the quadrature error is the same on both sides of
    # each comparison and any gap is the relaxation stopping at another point
    # of the same basin.  The length is stationary there, so the gap is second
    # order in the nodes' error: today at most 1.5e-10 (reversal) and 2.9e-9
    # (permutations).  A solver that stops short of the minimum or leaves
    # the basin shows gaps above 1e-6, as the node-wise simplex does on 11
    # of the 12 near pairs of the max pool.
    PAIRS = [
        ("euclidean", [0.3673439302442576, -0.8078144810605677], [-0.2391257687004099, 0.2902859512485163]),
        ("euclidean", [-1.0446375890743407, 0.7925332795023092], [0.423981418288621, 0.26861272023993177]),
        ("pnorm3", [1.1877921691608984, -1.022340575191764], [0.008055009426050308, 0.518314207332778]),
        ("pnorm3", [0.27768589791409504, 0.2685438465560399], [0.7126029704710164, 0.574961864870666]),
    ]
    SPACES = {"euclidean": PSEUDO21, "pnorm3": P3SPACE}

    @pytest.mark.parametrize("label, a, b", PAIRS, ids=[f"{p[0]}-{i}" for i, p in enumerate(PAIRS)])
    def test_symmetric_and_invariant_under_signed_permutations(self, label, a, b):
        space = self.SPACES[label]
        a, b = np.array(a), np.array(b)
        d = lambda x, y: geodesic_distance(space, lift(space, x), lift(space, y), 32)
        assert abs(d(a, b) - d(b, a)) <= 1e-6
        mapped = [d(F @ a, F @ b) for F in SIGNED_PERMUTATIONS]
        assert max(mapped) - min(mapped) <= 1e-6


class TestCoshResidual:
    def test_same_point(self):
        a = lift(PSEUDO21, [0.1, 0.2])
        assert cosh_residual(PSEUDO21, a, a, 8) == pytest.approx(0.0, abs=1e-12)

    def test_reference_instance(self):
        a = lift(PSEUDO21, [0.0, 0.0])
        b = lift(PSEUDO21, [np.sinh(1.0), 0.0])
        assert product_plus(PSEUDO21, a.vector, b.vector) == pytest.approx(-np.cosh(1.0), abs=1e-12)
        assert cosh_residual(PSEUDO21, a, b, 32) <= 1e-3

    def test_seeded_pairs_3plus1(self, rng):
        for _ in range(3):
            a = lift(PSEUDO31, rng.uniform(-1, 1, 3))
            b = lift(PSEUDO31, rng.uniform(-1, 1, 3))
            if hyperbolic_distance(PSEUDO31, a, b) > 3.0:
                continue
            assert cosh_residual(PSEUDO31, a, b, 32) <= 5e-3

    # the verify suite's rows: names, flags and witness notes, not residual digits,
    # which follow the solver
    def test_geodesic_cosh_suite_euclidean(self):
        unit, law = suite_geodesic_cosh(config_from_mapping({"nodes": 8}))
        assert (unit.check, unit.passed, unit.witness) == ("unit_distance", True, "pole to sinh(1)")
        assert (law.check, law.passed) == ("cosh_law", True)
        assert ";" not in law.witness and len(law.witness.split(",")) == 2

    def test_geodesic_cosh_suite_pnorm_is_exploratory(self):
        cfg = config_from_mapping({"space.s.norm": "pnorm", "space.s.p": 3.0, "nodes": 8})
        (row,) = suite_geodesic_cosh(cfg)
        assert (row.check, row.passed) == ("cosh_law_exploratory", True)
        assert row.witness.endswith(";exploratory: transitivity unknown")

    def test_geodesic_cosh_suite_solves_the_law_pairs_at_the_configured_tolerance(self):
        # on the max norm, tol.opt is the node-wise simplex's stop, so it moves the residual
        cfg = config_from_mapping({"space.s.norm": "max", "tol.opt": 1e-3})
        space = cfg.space()
        solved = []
        for a, b in sample_pairs(space, Seed(cfg.seed).rng(), 3):
            d = geodesic_distance(space, a, b, cfg.nodes, tolerances=cfg.tolerances)
            solved.append(abs(product_plus(space, a.vector, b.vector) + np.cosh(d)))
        (row,) = suite_geodesic_cosh(cfg)
        assert row.residual == max(solved)


def _interleaved_pairs(space, rng, count, window, radius, attempts=math.inf):
    """The draw loop that geodesic-cosh, the distance-preservation check and
    the convergence script each wrote out around their distance solves."""
    pairs, drawn = [], 0
    while len(pairs) < count and drawn < attempts:
        drawn += 1
        a = lift(space, rng.uniform(-radius, radius, space.k))
        b = lift(space, rng.uniform(-radius, radius, space.k))
        mk = product_plus(space, a.vector, b.vector)
        proxy = float(np.arccosh(max(1.0, -mk)))
        if not window[0] <= proxy <= window[1]:
            continue
        pairs.append((a, b))
    return pairs


class TestSamplePairs:
    SPACES = {"euclidean": PSEUDO21, "pnorm3": P3SPACE, "max": REMARK}
    # geodesic-cosh, the distance-preservation check, the convergence script
    DRAWS = {"cosh": ((0.2, 2.5), 1.2), "preservation": ((0.05, 3.0), 1.2), "convergence": ((0.3, 3.0), 1.4)}

    @staticmethod
    def _same(got, expected):
        assert len(got) == len(expected)
        for (a, b), (ea, eb) in zip(got, expected):
            assert np.array_equal(a.s, ea.s) and np.array_equal(b.s, eb.s)
            assert (a.tau, b.tau) == (ea.tau, eb.tau)

    @pytest.mark.parametrize("seed", [42, 1, 7])
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_the_interleaved_loop(self, name, draw, seed):
        space, (window, radius) = self.SPACES[name], self.DRAWS[draw]
        rng, ref = Seed(seed).rng(), Seed(seed).rng()
        got = sample_pairs(space, rng, 3, window=window, radius=radius)
        self._same(got, _interleaved_pairs(space, ref, 3, window, radius))
        assert len(got) == 3
        assert rng.random() == ref.random()  # the same draws were taken

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_an_attempt_cap_stops_short(self, name, draw):
        space, (window, radius) = self.SPACES[name], self.DRAWS[draw]
        rng, ref = Seed(3).rng(), Seed(3).rng()
        got = sample_pairs(space, rng, 40, window=window, radius=radius, attempts=30)
        self._same(got, _interleaved_pairs(space, ref, 40, window, radius, attempts=30))
        assert 0 < len(got) <= 30  # short of the 40 asked for
        assert rng.random() == ref.random()  # 30 pairs drawn, no more

    def test_defaults_are_the_geodesic_cosh_draw(self):
        got = sample_pairs(PSEUDO21, Seed(42).rng(), 3)
        self._same(got, _interleaved_pairs(PSEUDO21, Seed(42).rng(), 3, (0.2, 2.5), 1.2))

    @pytest.mark.parametrize("budget", [1, 1000])
    def test_without_a_cap_the_budget_raises(self, monkeypatch, budget):
        # no pair falls in an empty window: the sampler draws its budget, then raises
        monkeypatch.setattr(hyperboloid, "_PAIR_BUDGET", budget)
        rng = Seed(0).rng()
        with pytest.raises(ConvergenceError, match=f"^sample_pairs: 0 of 2 pairs .* budget of {2 * budget} drawn pairs$"):
            sample_pairs(PSEUDO21, rng, 2, window=(0.05, 0.01))
        ref = Seed(0).rng()
        _interleaved_pairs(PSEUDO21, ref, 2, (0.05, 0.01), 1.2, attempts=2 * budget)
        assert rng.random() == ref.random()

    def test_the_stock_draws_fit_a_budget_of_two_attempts_a_pair(self, monkeypatch):
        monkeypatch.setattr(hyperboloid, "_PAIR_BUDGET", 2)
        for name, space in self.SPACES.items():
            for seed in (42, 1, 7):
                got = sample_pairs(space, Seed(seed).rng(), 3)
                self._same(got, _interleaved_pairs(space, Seed(seed).rng(), 3, (0.2, 2.5), 1.2))

    def test_every_kept_pair_lies_in_the_window(self):
        for a, b in sample_pairs(REMARK, Seed(5).rng(), 20, window=(0.3, 0.6), radius=1.4):
            assert 0.3 <= math.acosh(max(1.0, -product_plus(REMARK, a.vector, b.vector))) <= 0.6

    def test_an_empty_window_keeps_nothing(self):
        rng = Seed(0).rng()
        assert sample_pairs(PSEUDO21, rng, 2, window=(0.05, 0.01), attempts=200) == []
        ref = Seed(0).rng()
        ref.uniform(-1.2, 1.2, (200, 2, 2))
        assert rng.random() == ref.random()
