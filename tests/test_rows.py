"""Row kernels against the scalar products they batch.

Every row kernel must give, bit for bit, what the scalar function gives on
each row, because the verification CSV prints residuals and witnesses at
17 significant digits.  The checks use ``np.array_equal``, never a
tolerance.
"""

import math

import numpy as np
import pytest

from sipmink import minkowski as mink
from sipmink import suites
from sipmink.config import config_from_mapping, parse_config
from sipmink.errors import ConstantSignError, DimensionError, DomainError
from sipmink.isometry import isometry_report, lorentz_boost, sip_preservation_residual, strict_convexity_witness
from sipmink.minkowski import BoundProduct, GeneralizedMinkowskiSpace, VectorClass, max_norm_spacetime
from sipmink.norms import (
    BoundNorm,
    NormSpec,
    SipSpace,
    norm,
    norm_batch,
    norm_rows,
    product_axiom_report,
    sip,
    sip_axiom_report,
    sip_rows,
)
from sipmink.numerics import (
    ResidualTracker,
    Seed,
    Tolerances,
    as_uniform,
    check_dim,
    dot_rows,
    matvec_rows,
    pow_rows,
    reduce_last,
    row_kernel,
)
from sipmink.siip import SiipSpace, cauchy_schwarz_witness, siip, siip_rows

SMOOTH_SPACES = {
    "euclidean2": SipSpace.euclidean(2),
    "euclidean3": SipSpace.euclidean(3),
    "pnorm3": SipSpace.pnorm(3.0, 2),
    "pnorm4": SipSpace.pnorm(4.0, 3),
}


def _rows(rng, n, dim, radius=2.0):
    return rng.uniform(-radius, radius, (n, dim))


def _scalar(fn, *arrays):
    return np.array([fn(*args) for args in zip(*arrays)])


class TestSipRows:
    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES))
    def test_matches_scalar_sip_and_norm(self, rng, name):
        space = SMOOTH_SPACES[name]
        X, Y = _rows(rng, 2000, space.dim), _rows(rng, 2000, space.dim)
        assert np.array_equal(sip_rows(space, X, Y), _scalar(lambda x, y: sip(space, x, y), X, Y))
        assert np.array_equal(norm_rows(space, X), _scalar(lambda x: norm(space, x), X))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_max_rows_with_ties_and_zero_rows(self, rng, dim):
        space = SipSpace.max_norm(dim)
        X = _rows(rng, 600, dim)
        # small integers make exact ties of |y_i| common
        Y = rng.integers(-2, 3, (600, dim)).astype(float)
        Y[::7] = 0.0
        Y[1::7] = -0.0
        assert np.any(np.abs(Y[:, 0]) == np.abs(Y[:, 1]))
        got = sip_rows(space, X, Y)
        assert np.array_equal(got, _scalar(lambda x, y: sip(space, x, y), X, Y))
        assert not np.any(np.signbit(got[::7]))  # [x, 0] = +0.0, as in sip
        assert np.array_equal(norm_rows(space, Y), _scalar(lambda y: norm(space, y), Y))

    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES))
    def test_zero_second_argument(self, rng, name):
        space = SMOOTH_SPACES[name]
        X = -np.abs(_rows(rng, 50, space.dim))
        Y = np.zeros_like(X)
        got = sip_rows(space, X, Y)
        assert np.array_equal(got, np.zeros(50)) and not np.any(np.signbit(got))

    def test_derivative_mode_loops_over_sip(self, rng):
        space = SipSpace(NormSpec.pnorm(3.0, 2), sip_mode="derivative")
        X, Y = _rows(rng, 20, 2), _rows(rng, 20, 2)
        assert np.array_equal(sip_rows(space, X, Y), _scalar(lambda x, y: sip(space, x, y), X, Y))

    def test_custom_gauge_loops(self, rng):
        spec = NormSpec.custom_gauge(lambda v: float(np.abs(v[0]) + 2.0 * np.abs(v[1])), 2)
        X, Y = _rows(rng, 20, 2), _rows(rng, 20, 2)
        assert np.array_equal(norm_rows(spec, X), _scalar(lambda x: norm(spec, x), X))
        assert np.array_equal(sip_rows(spec, X, Y), _scalar(lambda x, y: sip(spec, x, y), X, Y))

    def test_row_kernel_of_a_space_is_sip_rows(self, rng):
        space = SipSpace.pnorm(3.0, 2)
        X, Y = _rows(rng, 30, 2), _rows(rng, 30, 2)
        assert np.array_equal(row_kernel(space)(X, Y), sip_rows(space, X, Y))
        assert np.array_equal(row_kernel(BoundNorm(space.norm))(X), norm_rows(space, X))
        assert BoundNorm(space.norm)(X[0]) == norm(space, X[0])

    def test_rejects_single_vectors_and_wrong_width(self):
        space = SipSpace.euclidean(2)
        with pytest.raises(DimensionError):
            sip_rows(space, np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            sip_rows(space, np.zeros((4, 3)), np.zeros((4, 3)))


class TestMinkowskiRows:
    SPACES = {
        "pseudo_euclidean": GeneralizedMinkowskiSpace.pseudo_euclidean(2),
        "max": max_norm_spacetime(),
        "pnorm3": GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1)),
        "pnorm4_over_plane": GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(4.0, 3), NormSpec.euclidean(2)),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_scalar_products(self, rng, name):
        space = self.SPACES[name]
        U, V = _rows(rng, 1500, space.n), _rows(rng, 1500, space.n)
        V[::11, : space.k] = 0.0  # zero S block
        plus = _scalar(lambda u, v: mink.product_plus(space, u, v), U, V)
        minus = _scalar(lambda u, v: mink.product_minus(space, u, v), U, V)
        assert np.array_equal(mink.product_plus_rows(space, U, V), plus)
        assert np.array_equal(mink.product_minus_rows(space, U, V), minus)
        assert np.array_equal(BoundProduct(space, "+").rows(U, V), plus)
        assert np.array_equal(BoundProduct(space, "-").rows(U, V), minus)

    def test_bound_product_is_callable(self, rng):
        space = max_norm_spacetime()
        u, v = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
        assert BoundProduct(space, "+")(u, v) == mink.product_plus(space, u, v)
        assert BoundProduct(space, "-")(u, v) == mink.product_minus(space, u, v)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_classify_rows_matches_classify(self, rng, name):
        space = self.SPACES[name]
        V = _rows(rng, 1500, space.n)
        V[1::5] = 0.0
        V[2::5, space.k :] = 0.0  # on the light cone, up to rounding
        V[2::5, space.k] = norm_rows(space.s_space, V[2::5, : space.k])
        for tol in (1e-9, 0.1):
            got = mink.classify_rows(space, V, tol)
            expected = [mink.classify(space, v, tol) for v in V]
            assert got.shape == (1500,) and all(g is e for g, e in zip(got, expected))
            assert set(expected) == set(VectorClass)

    def test_bound_product_sign_validated(self):
        with pytest.raises(DomainError):
            BoundProduct(max_norm_spacetime(), "*")


class TestSiipRows:
    def test_weighted_plane_with_zero_rows(self, rng):
        plane = SiipSpace.weighted_plane()
        U, V = _rows(rng, 2000, 2), _rows(rng, 2000, 2)
        V[::9] = 0.0
        got = siip_rows(plane, U, V)
        assert np.array_equal(got, _scalar(lambda u, v: siip(plane, u, v), U, V))
        assert np.array_equal(got[::9], np.zeros(len(got[::9])))

    @pytest.mark.parametrize("space", [SiipSpace.cross_polytope(3), SiipSpace.diagonal((1, 1, -1))])
    def test_other_variants_loop_over_siip(self, rng, space):
        U, V = _rows(rng, 40, 3), _rows(rng, 40, 3)
        assert np.array_equal(space.rows(U, V), _scalar(lambda u, v: siip(space, u, v), U, V))


class TestRowHelpers:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_dot_rows_matches_scalar_dot(self, rng, dim):
        X, Y = _rows(rng, 3000, dim + 1), _rows(rng, 3000, dim + 1)
        X, Y = X[:, 1:], Y[:, 1:]  # strided views, as block slices are
        assert np.array_equal(dot_rows(X, Y), _scalar(lambda x, y: x @ y, X, Y))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matvec_rows_matches_single_products(self, rng, dim):
        F = rng.uniform(-2.0, 2.0, (dim, dim))
        V = _rows(rng, 3000, dim + 1)[:, 1:]  # a strided view, as block slices are
        assert np.array_equal(matvec_rows(F, V), _scalar(lambda v: F @ v, V))

    def test_pow_rows_is_the_float_power(self, rng):
        a = rng.uniform(-3.0, 3.0, 5000)
        assert np.array_equal(pow_rows(a, 2.0), np.array([v**2 for v in a.tolist()]))
        b = np.abs(a)
        assert np.array_equal(pow_rows(b, 1.0 / 3.0), np.array([math.pow(v, 1.0 / 3.0) for v in b.tolist()]))

    def test_as_uniform_reproduces_sequential_draws(self):
        one_by_one = np.random.Generator(np.random.PCG64(9))
        expected = []
        for _ in range(300):
            expected.extend(one_by_one.uniform(-1.5, 1.5, 2))
            expected.append(one_by_one.uniform(-3.0, 3.0))
        draws = np.random.Generator(np.random.PCG64(9)).random((300, 3))
        got = np.column_stack([as_uniform(draws[:, :2], -1.5, 1.5), as_uniform(draws[:, 2], -3.0, 3.0)])
        assert np.array_equal(got.ravel(), np.array(expected))

    def test_row_kernel_adapter_loops_over_a_callable(self, rng):
        X, Y = _rows(rng, 10, 2), _rows(rng, 10, 2)
        dot = lambda u, v: float(u @ v)
        assert np.array_equal(row_kernel(dot)(X, Y), _scalar(dot, X, Y))
        assert row_kernel(dot)(X[:0], Y[:0]).shape == (0,)

    def test_check_dim(self):
        assert check_dim([1, 2], 2).dtype == float
        assert check_dim(np.zeros((0, 3)), 3, rows=True).shape == (0, 3)
        for bad, rows in ((np.zeros(3), False), (np.zeros((1, 2)), False), (np.zeros(2), True), (np.zeros((2, 3)), True)):
            with pytest.raises(DimensionError):
                check_dim(bad, 2, rows=rows)


def _with_specials(rng, shape):
    """Normal draws with about a third of the entries replaced by NaN, +-inf,
    -0.0 or 0.0, and a last row of -0.0 only (numpy sums it to +0.0)."""
    A = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.3
    A[mask] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], size=shape)[mask]
    A[..., -1, :] = -0.0
    return A


def _same_bits(got, expected):
    """Equal with NaNs matched and, away from NaN, the same sign of zero."""
    got, expected = np.asarray(got), np.asarray(expected)
    if not np.array_equal(got, expected, equal_nan=True):
        return False
    keep = ~np.isnan(expected)
    return np.array_equal(np.signbit(got[keep]), np.signbit(expected[keep]))


class TestReduceLast:
    @pytest.mark.parametrize("ufunc", [np.add, np.maximum], ids=["add", "maximum"])
    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("layout", ["1d", "rows", "3d", "fortran"])
    def test_matches_ufunc_reduce(self, rng, ufunc, k, layout):
        if layout == "1d":
            A = _with_specials(rng, (2, k))[0]
        elif layout == "rows":
            A = _with_specials(rng, (600, k))
        elif layout == "3d":
            A = _with_specials(rng, (5, 40, k))
        else:
            A = np.asfortranarray(_with_specials(rng, (600, k)))  # the transpose of a C-ordered array
        with np.errstate(invalid="ignore"):  # inf - inf
            assert _same_bits(reduce_last(ufunc, A), ufunc.reduce(A, axis=-1))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_norm_batch_matches_the_old_formulas(self, rng, k):
        X = rng.uniform(-3.0, 3.0, (500, k)) * 10.0 ** rng.integers(-6, 7, (500, k))
        if k <= 2:
            euclid = np.sqrt(np.einsum("...i,...i->...", X, X))
            assert np.array_equal(norm_batch(NormSpec.euclidean(k), X), euclid)
        p = 3.0
        old_p = np.sum(np.abs(X) ** p, axis=-1) ** (1.0 / p)
        assert np.array_equal(norm_batch(NormSpec.pnorm(p, k), X), old_p)
        assert np.array_equal(norm_batch(NormSpec.max_norm(k), X), np.maximum.reduce(np.abs(X), axis=-1))

    @pytest.mark.parametrize("k", [3, 4, 7, 9])
    def test_euclidean_norm_batch_within_rounding_of_einsum(self, rng, k):
        # for k >= 3 the squares are added in column order, einsum may not
        X = rng.uniform(-3.0, 3.0, (500, k))
        euclid = np.sqrt(np.einsum("...i,...i->...", X, X))
        assert np.allclose(norm_batch(NormSpec.euclidean(k), X), euclid, rtol=4 * np.finfo(float).eps, atol=0.0)


def _sequential(name, residuals, *witness):
    tracker = ResidualTracker(name)
    for i, r in enumerate(residuals):
        tracker.update(r, *(w[i] for w in witness))
    return tracker


def _same_tracker(a, b):
    assert a.residual == b.residual and len(a.witness) == len(b.witness)
    return all(np.array_equal(x, y) for x, y in zip(a.witness, b.witness))


class TestUpdateRows:
    CASES = {
        "ties": [0.5, -2.0, 1.0, 2.0, -2.0],
        "all_zero": [0.0, -0.0, 0.0],
        "nan": [0.1, float("nan"), 3.0, float("nan")],
        "inf": [float("inf"), float("nan"), -float("inf")],
        "single": [0.25],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_sequential_updates(self, rng, case):
        residuals = np.array(self.CASES[case])
        lam = rng.uniform(-3.0, 3.0, len(residuals))
        X = _rows(rng, len(residuals), 3)
        batched = ResidualTracker(case)
        batched.update_rows(residuals, lam, X)
        assert _same_tracker(batched, _sequential(case, residuals, lam, X))

    def test_ties_pick_first_row(self, rng):
        X = _rows(rng, 5, 2)
        tracker = ResidualTracker("t")
        tracker.update_rows(np.array(self.CASES["ties"]), X)
        assert tracker.residual == 2.0 and np.array_equal(tracker.witness[0], X[1])

    def test_all_zero_keeps_empty_witness(self):
        tracker = ResidualTracker("z")
        tracker.update_rows(np.zeros(4), np.zeros((4, 2)))
        assert tracker.residual == 0.0 and tracker.witness == ()
        tracker.update_rows(np.zeros(0), np.zeros((0, 2)))
        assert tracker.witness == ()

    def test_later_batches_only_replace_on_a_strictly_larger_residual(self, rng):
        X = _rows(rng, 6, 2)
        batched = ResidualTracker("b")
        batched.update_rows(np.array([1.0, 3.0, 2.0]), X[:3])
        batched.update_rows(np.array([3.0, 2.5, 0.0]), X[3:])
        assert _same_tracker(batched, _sequential("b", [1.0, 3.0, 2.0, 3.0, 2.5, 0.0], X))

    def test_witness_rows_are_copies(self, rng):
        X = _rows(rng, 3, 2)
        tracker = ResidualTracker("c")
        tracker.update_rows(np.array([0.0, 1.0, 0.0]), X)
        X[1] = 0.0
        assert np.any(tracker.witness[0])


class TestNonFiniteResiduals:
    def test_nan_residual_fails_the_check(self):
        tracker = ResidualTracker("n")
        tracker.update(0.5, "first")
        tracker.update(float("nan"), "nan witness")
        tracker.update(7.0, "later")
        assert tracker.residual == math.inf and tracker.witness == ("nan witness",)
        assert not tracker.check(1e-9).passed

    def test_nan_product_fails_every_axiom(self):
        report = product_axiom_report(lambda u, v: float("nan"), 2, 0, 20)
        assert not report.all_pass
        for check in report.checks:
            assert check.residual == math.inf and check.witness and not check.passed


# The sampled trial functions as one scalar call per trial, the way they ran
# before their trials became array code; the batched versions must match
# them bit for bit, witnesses included.


def _loop_product_axiom_report(product, dim, seed, trials, norm_fn=None):
    rng = Seed(seed).rng()
    if norm_fn is None:
        norm_fn = lambda v: float(np.sqrt(max(product(v, v), 0.0)))
    names = ("additivity_first", "homogeneity_first", "homogeneity_second", "positivity", "square_matches_norm", "cauchy_schwarz")
    add, hom1, hom2, pos, sq, cs = (ResidualTracker(n) for n in names)
    for _ in range(trials):
        x, y, z = (rng.uniform(-1.5, 1.5, dim) for _ in range(3))
        lam = float(rng.uniform(-3.0, 3.0))
        add.update(product(x + y, z) - product(x, z) - product(y, z), x, y, z)
        hom1.update(product(lam * x, y) - lam * product(x, y), lam, x, y)
        hom2.update(product(x, lam * y) - lam * product(x, y), lam, x, y)
        qx = product(x, x)
        pos.update(max(0.0, -qx) if np.any(x) else 0.0, x)
        sq.update(qx - norm_fn(x) ** 2, x)
        cs.update(max(0.0, product(x, y) ** 2 - qx * product(y, y)), x, y)
    return [add, hom1, hom2, pos, sq, cs]


def _loop_cauchy_schwarz_witness(fn, basis, seed, trials, eq_tol=1e-9, radius=2.0):
    rng = Seed(seed).rng()
    sign = None
    for _ in range(min(trials, 200)):
        c = rng.uniform(-radius, radius, len(basis))
        v = sum(ci * bi for ci, bi in zip(c, basis))
        if not np.any(v):
            continue
        q = fn(v, v)
        if abs(q) <= eq_tol * max(1.0, float(v @ v)):
            return "vanishes"
        if sign is None:
            sign = q > 0
        elif (q > 0) != sign:
            return "change sign"
    best = None
    for _ in range(trials):
        cu = rng.uniform(-radius, radius, len(basis))
        cv = rng.uniform(-radius, radius, len(basis))
        u = sum(ci * bi for ci, bi in zip(cu, basis))
        v = sum(ci * bi for ci, bi in zip(cv, basis))
        if not (np.any(u) and np.any(v)):
            continue
        margin = fn(u, v) ** 2 - fn(u, u) * fn(v, v)
        if margin > eq_tol and (best is None or margin > best[2]):
            best = (u, v, float(margin))
    return best


def _loop_strict_convexity_witness(space, seed, trials):
    def is_witness(x, y):
        nx, ny = norm(space, x), norm(space, y)
        if nx == 0.0 or ny == 0.0:
            return False
        if abs(sip(space, x, y) - nx * ny) > 1e-9:
            return False
        return float(np.max(np.abs(x / nx - y / ny))) > 1e-3

    rng = Seed(seed).rng()
    for _ in range(trials):
        x = rng.uniform(-2.0, 2.0, space.dim)
        y = rng.uniform(-2.0, 2.0, space.dim)
        if np.any(x) and np.any(y) and is_witness(x, y):
            return x, y
    return None


def _same_witness(a, b):
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


MINKOWSKI_SPACES = {
    "max": max_norm_spacetime(),
    "pseudo_euclidean": GeneralizedMinkowskiSpace.pseudo_euclidean(2),
    "pnorm3": GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1)),
}


class TestTrialFunctionsMatchTheLoop:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES) + ["max2"])
    def test_sip_axiom_report(self, seed, name):
        space = SMOOTH_SPACES.get(name) or SipSpace.max_norm(2)
        report = sip_axiom_report(space, Seed(seed), 150)
        loop = _loop_product_axiom_report(lambda u, v: sip(space, u, v), space.dim, seed, 150, lambda v: norm(space, v))
        for check, tracker in zip(report.checks, loop):
            assert check.name == tracker.name and check.residual == tracker.residual
            assert _same_witness(check.witness, tracker.witness)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("name", sorted(MINKOWSKI_SPACES))
    def test_product_axiom_report_bound_and_callable(self, name, sign):
        bound = BoundProduct(MINKOWSKI_SPACES[name], sign)
        loop = _loop_product_axiom_report(bound, bound.space.n, 3, 150)
        for product in (bound, lambda u, v: bound(u, v)):  # row kernel, then the per-row adapter
            report = product_axiom_report(product, bound.space.n, Seed(3), 150)
            for check, tracker in zip(report.checks, loop):
                assert check.residual == tracker.residual and _same_witness(check.witness, tracker.witness)

    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize(
        "product, basis",
        [
            (BoundProduct(max_norm_spacetime(), "+"), [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.5])]),
            (BoundProduct(max_norm_spacetime(), "+"), [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]),
            (SiipSpace.weighted_plane(), [np.array([1.0, 0.0]), np.array([0.0, 1.0])]),
            (SiipSpace.diagonal((1, 1, -1)), [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]),
        ],
    )
    def test_cauchy_schwarz_witness(self, seed, product, basis):
        scalar = product if callable(product) else (lambda u, v: siip(product, u, v))
        expected = _loop_cauchy_schwarz_witness(scalar, basis, seed, 600)
        for handle in (product, scalar):  # row kernel, then the per-row adapter
            if isinstance(expected, str):
                with pytest.raises(ConstantSignError, match=expected):
                    cauchy_schwarz_witness(handle, basis, Seed(seed), 600)
            else:
                assert _same_witness(cauchy_schwarz_witness(handle, basis, Seed(seed), 600), expected)

    @pytest.mark.parametrize("seed", [2, 8])
    @pytest.mark.parametrize("name", ["euclidean2", "pnorm3", "l1_gauge"])
    def test_strict_convexity_witness_sampled_search(self, seed, name):
        # the max norm returns its fixed flat pair before sampling; the l1
        # gauge is not strictly convex either, so its sampled search finds one
        l1 = SipSpace(NormSpec.custom_gauge(lambda v: float(np.sum(np.abs(v))), 2))
        space = l1 if name == "l1_gauge" else SMOOTH_SPACES[name]
        expected = _loop_strict_convexity_witness(space, seed, 800)
        assert (expected is not None) == (name == "l1_gauge")
        assert _same_witness(strict_convexity_witness(space, Seed(seed), 800), expected)


def _loop_cone_convexity_check(space, seed, trials, tolerances):
    rng = Seed(seed).rng()
    tol = tolerances.class_tol

    def sample_tplus():
        while True:
            v = rng.uniform(-1.0, 1.0, space.n)
            v[-1] = abs(v[-1]) + 0.05
            if mink.cone_part(space, v, tol) is mink.ConePart.T_PLUS:
                return v

    convexity = []
    scaling = []
    for _ in range(trials):
        a = sample_tplus()
        b = sample_tplus()
        mu = float(rng.uniform(0.0, 1.0))
        mix = mu * a + (1.0 - mu) * b
        if mink.cone_part(space, mix, tol) is not mink.ConePart.T_PLUS:
            convexity.append((a, b, mu))
        lam = float(rng.uniform(0.1, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        v = rng.uniform(-1.5, 1.5, space.n)
        if mink.classify(space, lam * v, tol) is not mink.classify(space, v, tol):
            scaling.append((v, lam))
    return convexity, scaling


def _loop_isometry_report(space, F, seed, trials):
    rng = Seed(seed).rng()
    prod = ResidualTracker("product")
    adj = ResidualTracker("adjoint")
    for _ in range(trials):
        v = rng.uniform(-1.5, 1.5, space.n)
        w = rng.uniform(-1.5, 1.5, space.n)
        prod.update(mink.product_plus(space, F @ v, F @ w) - mink.product_plus(space, v, w), v, w)
        adj.update(
            mink.product_minus(space, F @ v, mink.j_operator(space, F @ w))
            - mink.product_minus(space, v, mink.j_operator(space, w)),
            v,
            w,
        )
    return prod, adj


def _loop_sip_preservation_residual(space, F, seed, trials):
    rng = Seed(seed).rng()
    sip_res = 0.0
    norm_res = 0.0
    for _ in range(trials):
        x = rng.uniform(-1.5, 1.5, space.dim)
        y = rng.uniform(-1.5, 1.5, space.dim)
        sip_res = max(sip_res, abs(sip(space, F @ x, F @ y) - sip(space, x, y)))
        norm_res = max(norm_res, abs(norm(space, F @ x) - norm(space, x)))
    return sip_res, norm_res


def _loop_suite_siip_axioms(cfg):
    space = cfg.space()
    rng = Seed(cfg.seed).rng()
    pp = BoundProduct(space, "+")
    add = ResidualTracker("additivity_first")
    hom1 = ResidualTracker("homogeneity_first")
    hom2 = ResidualTracker("homogeneity_second")
    sq = ResidualTracker("square_real")
    nondeg = ResidualTracker("nondegeneracy")
    basis = [np.eye(space.n)[i] for i in range(space.n)]
    tol = cfg.tolerances.eq_tol
    for _ in range(cfg.trials):
        x, y, v = (rng.uniform(-1.5, 1.5, space.n) for _ in range(3))
        lam = float(rng.uniform(-3.0, 3.0))
        if not np.any(v):
            continue
        add.update(pp(x + y, v) - pp(x, v) - pp(y, v), x, y, v)
        hom1.update(pp(lam * x, v) - lam * pp(x, v), lam, x, v)
        hom2.update(pp(x, lam * v) - lam * pp(x, v), lam, x, v)
        q = pp(v, v)
        sq.update(0.0 if np.isfinite(q) else np.inf, v)
        if abs(q) <= tol and all(abs(pp(b, v)) <= tol for b in basis):
            nondeg.update(1.0, v)
    return [add, hom1, hom2, sq, nondeg]


def _same_witnesses(got, expected):
    return len(got) == len(expected) and all(_same_witness(g, e) for g, e in zip(got, expected))


STOCK_CONFIGS = {
    "euclidean": 'space.s.norm = "euclidean"\n',
    "pnorm3": 'space.s.norm = "pnorm"\nspace.s.p = 3\n',
    "max": 'space.s.norm = "max"\n',
}


class TestSpaceTimeTrialsMatchTheLoop:
    @pytest.mark.parametrize("seed, trials", [(42, 200), (8, 500), (1, 1), (2, 2), (3, 3)])
    @pytest.mark.parametrize("name", sorted(MINKOWSKI_SPACES))
    def test_cone_convexity_check(self, name, seed, trials):
        space = MINKOWSKI_SPACES[name]
        report = mink.cone_convexity_check(space, Seed(seed), trials)
        convexity, scaling = _loop_cone_convexity_check(space, seed, trials, Tolerances())
        assert report.trials == trials
        assert _same_witnesses(report.convexity_violations, convexity)
        assert _same_witnesses(report.scaling_violations, scaling)

    @pytest.mark.parametrize("name, count", [("pseudo_euclidean", 19), ("max", 29), ("pnorm3", None)])
    def test_cone_convexity_check_wide_band_records_violations(self, name, count):
        # a light-like band of 0.1 makes scaling change classifications
        space, tolerances = MINKOWSKI_SPACES[name], Tolerances(class_tol=0.1)
        report = mink.cone_convexity_check(space, Seed(42), 300, tolerances)
        convexity, scaling = _loop_cone_convexity_check(space, 42, 300, tolerances)
        if count is not None:
            assert len(scaling) == count
        assert scaling and _same_witnesses(report.scaling_violations, scaling)
        assert _same_witnesses(report.convexity_violations, convexity)
        assert all(isinstance(mu, float) for _, _, mu in report.convexity_violations)
        assert all(isinstance(lam, float) for _, lam in report.scaling_violations)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_cone_convexity_check_extends_its_block(self, seed):
        # a 4+1 space accepts few candidates, so the first block of draws runs
        # out (at seed 0 during the rejection walk, at seed 6 inside the draws
        # after b) and the stream must continue where it stopped
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(4)
        report = mink.cone_convexity_check(space, Seed(seed), 40)
        convexity, scaling = _loop_cone_convexity_check(space, seed, 40, Tolerances())
        assert _same_witnesses(report.convexity_violations, convexity)
        assert _same_witnesses(report.scaling_violations, scaling)

    @pytest.mark.parametrize(
        "name, F",
        [
            ("boost", lorentz_boost(GeneralizedMinkowskiSpace.pseudo_euclidean(2), 0, 1.2)),
            ("s_reflection", np.diag([1.0, 1.0, -1.0])),
            ("non_isometry", np.array([[1.0, 0.3, 0.0], [0.0, 2.0, 0.1], [0.2, 0.0, 1.5]])),
        ],
    )
    @pytest.mark.parametrize("space_name", ["pseudo_euclidean", "max"])
    def test_isometry_report(self, name, F, space_name):
        space = MINKOWSKI_SPACES[space_name]
        report = isometry_report(space, F, Seed(42), 300)
        prod, adj = _loop_isometry_report(space, F, 42, 300)
        assert report.product_residual == prod.residual and report.adjoint_residual == adj.residual
        assert _same_witness(report.product_witness, prod.witness)
        assert _same_witness(report.adjoint_witness, adj.witness)
        if name == "non_isometry":
            assert prod.residual > 0.1 and adj.residual > 0.1

    @pytest.mark.parametrize("space", [SipSpace.euclidean(2), SipSpace.pnorm(3.0, 2)], ids=["euclidean", "p3"])
    @pytest.mark.parametrize("F", [np.array([[0.6, -0.8], [0.8, 0.6]]), np.array([[2.0, 0.5], [0.0, 1.0]])])
    def test_sip_preservation_residual(self, space, F):
        got = sip_preservation_residual(space, F, Seed(7), 200)
        assert got == _loop_sip_preservation_residual(space, F, 7, 200)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_suite_siip_axioms_needs_a_trial(self, trials):
        with pytest.raises(DomainError):
            suites.suite_siip_axioms(config_from_mapping({"trials": trials}))

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("label", sorted(STOCK_CONFIGS))
    def test_suite_siip_axioms(self, label, seed):
        cfg = config_from_mapping(parse_config(STOCK_CONFIGS[label] + f"seed = {seed}\ntrials = 200\n"))
        rows = suites.suite_siip_axioms(cfg)
        loop = _loop_suite_siip_axioms(cfg)
        assert [r.check for r in rows] == [t.name for t in loop]
        for row, tracker in zip(rows, loop):
            assert row.residual == tracker.residual
            assert row.witness == (suites._fmt_vec(tracker.witness[-1]) if tracker.witness else "")
