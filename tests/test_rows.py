"""Row kernels against reference implementations written out per vector.

Every row kernel must give, bit for bit, what the scalar computation it
replaced gave on each row, because the verification CSV prints residuals
and witnesses at 17 significant digits.  The single-vector entry points
(``norm``, ``sip``, ``product_plus``, ``classify``, ``siip``, ...) are
one-row calls of the kernels, so the products are checked against the
``_reference_*`` closed forms below.  The checks use ``np.array_equal``,
never a tolerance.
"""

import math
import sys
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from sipmink import hyperboloid as hyp
from sipmink import minkowski as mink
from sipmink import ortho, suites
from sipmink.config import config_from_mapping, parse_config
from sipmink.errors import (
    ConstantSignError,
    ConvergenceError,
    DegenerateError,
    DimensionError,
    DomainError,
    NeutralPivotError,
    NumericalError,
    TangentError,
    UsageError,
)
from sipmink.hyperboloid import lift
from sipmink.isometry import isometry_report, lorentz_boost, sip_preservation_residual, strict_convexity_witness
from sipmink.minkowski import BoundProduct, GeneralizedMinkowskiSpace, VectorClass, max_norm_spacetime
from sipmink.norms import (
    NormSpec,
    derivative_identity_residual_rows,
    norm,
    norm_batch,
    norm_rows,
    product_axiom_report,
    sip,
    sip_axiom_report,
    sip_derivative_rows,
    sip_rows,
)
from sipmink.numerics import (
    DrawStream,
    ResidualTracker,
    Seed,
    Tolerances,
    as_uniform,
    central_diff,
    check_dim,
    dot_rows,
    first_diff_step,
    matvec_rows,
    minimize_rows,
    pow_rows,
    reduce_last,
    row_kernel,
    second_diff_step,
)
from sipmink.siip import (
    DIAGONAL,
    SiipSpace,
    cauchy_schwarz_witness,
    siip,
    siip_axiom_report,
    siip_axiom_trials,
    siip_rows,
)

from references import reference_cone_convexity_check, reference_minimize

SMOOTH_SPACES = {
    "euclidean2": NormSpec.euclidean(2),
    "euclidean3": NormSpec.euclidean(3),
    "pnorm3": NormSpec.pnorm(3.0, 2),
    "pnorm4": NormSpec.pnorm(4.0, 3),
}


def _rows(rng, n, dim, radius=2.0):
    return rng.uniform(-radius, radius, (n, dim))


def _scalar(fn, *arrays):
    return np.array([fn(*args) for args in zip(*arrays)])


def _fold(ufunc, values) -> float:
    """Reference: ``ufunc`` over ``values`` in index order, from the
    identity where ``ufunc`` has one, as numpy starts its reductions."""
    values = np.asarray(values, dtype=float).tolist()
    if ufunc.identity is None:
        return reduce(lambda a, b: float(ufunc(a, b)), values[1:], values[0])
    return reduce(lambda a, b: float(ufunc(a, b)), values, float(ufunc.identity))


def _fold_last(ufunc, A) -> np.ndarray:
    """:func:`_fold` of every row of A along its last axis."""
    A = np.asarray(A)
    return np.array([_fold(ufunc, row) for row in A.reshape(-1, A.shape[-1])]).reshape(A.shape[:-1])


# The scalar closed forms of the products, as they ran before the entry
# points became one-row calls of the row kernels.


def _reference_norm(spec, x):
    if spec.kind == "euclidean":
        return float(np.sqrt(x @ x))
    if spec.kind == "pnorm":
        return float(np.sum(np.abs(x) ** spec.p) ** (1.0 / spec.p))
    if spec.kind == "max":
        return float(np.max(np.abs(x)))
    return float(spec.gauge(x))


def _reference_sip(spec, x, y):
    """The Euclidean, p-norm and max closed forms."""
    if not np.any(y):
        return 0.0  # homogeneity forces [x, 0] = 0
    if spec.kind == "euclidean":
        return float(x @ y)
    if spec.kind == "pnorm":
        p = spec.p
        ny = float(np.sum(np.abs(y) ** p) ** (1.0 / p))
        if ny == 0.0:
            return 0.0
        return float(ny ** (2.0 - p) * np.sum(x * np.abs(y) ** (p - 1.0) * np.sign(y)))
    assert spec.kind == "max"
    j = int(np.argmax(np.abs(y)))  # smallest index attains the max on ties
    return float(x[j] * y[j])


def _reference_product(space, u, v, sign):
    k = space.k
    s, t = _reference_sip(space.s_space, u[:k], v[:k]), _reference_sip(space.t_space, u[k:], v[k:])
    return s + t if sign == "-" else s - t


def _reference_classify(space, v, class_tol):
    q = _reference_product(space, v, v, "+")
    scale = max(1.0, _reference_product(space, v, v, "-"))
    if abs(q) <= class_tol * scale:
        return VectorClass.LIGHT_LIKE
    return VectorClass.SPACE_LIKE if q > 0 else VectorClass.TIME_LIKE


def _reference_siip(space, u, v):
    """The diagonal, weighted-plane and cross-polytope closed forms."""
    if space.kind == "cross_polytope":
        vmax = np.max(np.abs(v))
        supp = np.zeros(v.shape, dtype=bool) if vmax == 0.0 else np.abs(v) > 1e-9 * vmax
        if not np.any(supp):
            return 0.0
        k = int(np.sum(supp)) - 1
        one_norm = _fold(np.add, np.abs(v[supp]))
        return float((-1.0) ** k * one_norm * _fold(np.add, np.sign(v[supp]) * u[supp]))
    if space.kind == "diagonal":
        return _fold(np.add, np.array(space.signature) * u * v)
    assert space.kind == "weighted_plane"
    x1, y1 = u
    x2, y2 = v
    den = x2 * x2 + 2.0 * y2 * y2
    if den == 0.0:
        return 0.0  # v = 0; homogeneity forces the value
    return float((x1 * x2 + 2.0 * y1 * y2) * (x2 * x2 + y2 * y2) / den)


class TestSipRows:
    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES))
    def test_matches_scalar_sip_and_norm(self, rng, name):
        space = SMOOTH_SPACES[name]
        X, Y = _rows(rng, 2000, space.dim), _rows(rng, 2000, space.dim)
        assert np.array_equal(sip_rows(space, X, Y), _scalar(lambda x, y: _reference_sip(space, x, y), X, Y))
        assert np.array_equal(norm_rows(space, X), _scalar(lambda x: _reference_norm(space, x), X))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_max_rows_with_ties_and_zero_rows(self, rng, dim):
        space = NormSpec.max_norm(dim)
        X = _rows(rng, 600, dim)
        # small integers make exact ties of |y_i| common
        Y = rng.integers(-2, 3, (600, dim)).astype(float)
        Y[::7] = 0.0
        Y[1::7] = -0.0
        assert np.any(np.abs(Y[:, 0]) == np.abs(Y[:, 1]))
        got = sip_rows(space, X, Y)
        assert np.array_equal(got, _scalar(lambda x, y: _reference_sip(space, x, y), X, Y))
        assert not np.any(np.signbit(got[::7]))  # [x, 0] = +0.0
        assert np.array_equal(norm_rows(space, Y), _scalar(lambda y: _reference_norm(space, y), Y))

    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES))
    def test_zero_second_argument(self, rng, name):
        space = SMOOTH_SPACES[name]
        X = -np.abs(_rows(rng, 50, space.dim))
        Y = np.zeros_like(X)
        got = sip_rows(space, X, Y)
        assert np.array_equal(got, np.zeros(50)) and not np.any(np.signbit(got))

    def test_derivative_mode_loops_over_sip(self, rng):
        spec = NormSpec.pnorm(3.0, 2)
        X, Y = _rows(rng, 20, 2), _rows(rng, 20, 2)
        Y[::5] = 0.0
        expected = _scalar(lambda x, y: _loop_sip_derivative(spec, x, y), X, Y)
        assert np.array_equal(sip_derivative_rows(spec, X, Y), expected)

    def test_custom_gauge_loops(self, rng):
        spec = NormSpec.custom_gauge(lambda v: float(np.abs(v[0]) + 2.0 * np.abs(v[1])), 2)
        X, Y = _rows(rng, 20, 2), _rows(rng, 20, 2)
        assert np.array_equal(norm_rows(spec, X), _scalar(lambda x: _reference_norm(spec, x), X))
        assert np.array_equal(sip_rows(spec, X, Y), _scalar(lambda x, y: _loop_sip_derivative(spec, x, y), X, Y))

    def test_row_kernel_of_a_space_is_sip_rows(self, rng):
        space = NormSpec.pnorm(3.0, 2)
        X, Y = _rows(rng, 30, 2), _rows(rng, 30, 2)
        assert np.array_equal(row_kernel(space)(X, Y), sip_rows(space, X, Y))

    def test_rejects_single_vectors_and_wrong_width(self):
        space = NormSpec.euclidean(2)
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
        plus = _scalar(lambda u, v: _reference_product(space, u, v, "+"), U, V)
        minus = _scalar(lambda u, v: _reference_product(space, u, v, "-"), U, V)
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
            expected = [_reference_classify(space, v, tol) for v in V]
            assert got.shape == (1500,) and all(g is e for g, e in zip(got, expected))
            assert set(expected) == set(VectorClass)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_classify_rows_takes_the_squares_of_the_two_products(self, rng, name):
        # every band edge is set by one row's |[v,v]^+| / max(1, [v,v]^-), so a
        # square one ulp off either product's moves that row across the edge
        space = self.SPACES[name]
        V = _rows(rng, 600, space.n)
        V[::3] *= 0.2  # [v,v]^- below 1
        V[1::3, space.k :] = 0.0  # light-like, up to rounding
        V[1::3, space.k] = norm_rows(space.s_space, V[1::3, : space.k])
        q = mink.product_plus_rows(space, V, V)
        scale = np.maximum(1.0, mink.product_minus_rows(space, V, V))
        edges = np.abs(q) / scale
        for i in range(0, 600, 7):
            for tol in (edges[i], np.nextafter(edges[i], 0.0), np.nextafter(edges[i], 1.0)):
                code = np.where(np.abs(q) <= tol * scale, 1, np.where(q > 0, 2, 0))
                expected = np.array([VectorClass.TIME_LIKE, VectorClass.LIGHT_LIKE, VectorClass.SPACE_LIKE])[code]
                assert np.array_equal(mink.classify_rows(space, V, tol), expected)

    def test_bound_product_sign_validated(self):
        with pytest.raises(DomainError):
            BoundProduct(max_norm_spacetime(), "*")


class TestSiipRows:
    def test_weighted_plane_with_zero_rows(self, rng):
        plane = SiipSpace.weighted_plane()
        U, V = _rows(rng, 2000, 2), _rows(rng, 2000, 2)
        V[::9] = 0.0
        got = siip_rows(plane, U, V)
        assert np.array_equal(got, _scalar(lambda u, v: _reference_siip(plane, u, v), U, V))
        assert np.array_equal(got[::9], np.zeros(len(got[::9])))

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9])
    def test_diagonal_closed_form_with_zero_rows(self, rng, dim):
        space = SiipSpace.diagonal(rng.choice([-1, 1], dim))
        U, V = _rows(rng, 1000, dim), _rows(rng, 1000, dim)
        U[::7] = 0.0
        V[1::7] = 0.0
        U[2::7], V[2::7] = np.abs(U[2::7]), -0.0  # every term -0.0 where the signature is +1
        got = siip_rows(space, U, V)
        expected = _scalar(lambda u, v: _reference_siip(space, u, v), U, V)
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))
        assert not np.any(np.signbit(got[::7]))  # a -0.0 sum gives +0.0, as np.sum does

    # every support is summed in index order, also at 8 entries and more where numpy adds pairwise
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 17])
    def test_cross_polytope_closed_form(self, rng, dim):
        space = SiipSpace.cross_polytope(dim)
        U, V = _rows(rng, 2000, dim), _rows(rng, 2000, dim)
        V[::2] *= 10.0 ** rng.integers(-12, 3, V[::2].shape)  # entries on both sides of the support threshold
        V[::5] = np.round(V[::5])  # ties and zeros
        V[1::7] = 0.0
        V[2::7, 0] = np.nan
        U[3::7] = -0.0
        V[4::7] = np.where(rng.random(V[4::7].shape) < 0.3, V[4::7], 0.0)  # small supports
        got = siip_rows(space, U, V)
        expected = _scalar(lambda u, v: _reference_siip(space, u, v), U, V)
        assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))
        supports = {np.count_nonzero(np.abs(v) > 1e-9 * np.max(np.abs(v))) for v in V}
        assert {0, 1, dim} <= supports

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

    # the exponents the norm and product kernels pass: 1/p and 2 - p, and the square
    CALLER_EXPONENTS = [1.0 / p for p in (1.5, 3.0, 4.0, 64.0)] + [2.0 - p for p in (1.5, 3.0, 4.0, 64.0)] + [2.0]
    EDGE_BASES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-10, 1.0, -1.0, 1e300, -1e300]
    EDGE_BASES += [math.inf, -math.inf]

    @pytest.mark.parametrize("exponent", CALLER_EXPONENTS)
    def test_pow_rows_has_the_bits_of_math_pow(self, rng, exponent):
        base = np.concatenate(
            [self.EDGE_BASES, rng.uniform(-3.0, 3.0, 2000), np.exp(rng.uniform(-700.0, 700.0, 2000))]
        )
        with np.errstate(all="ignore"):
            got = pow_rows(base, exponent)
        for x, g in zip(base.tolist(), got.tolist()):
            try:
                expected = math.pow(x, exponent)
            except (OverflowError, ValueError):  # C pow's value: nan, or an infinity signed as x^odd
                if x < 0.0 and not exponent.is_integer():
                    expected = math.nan
                else:
                    expected = math.copysign(math.inf, x) if exponent % 2.0 == 1.0 else math.inf
            assert _same_bits(np.float64(g), np.float64(expected)), (x, exponent, g, expected)

    @pytest.mark.parametrize(
        "base, exponent, expected",
        [
            (1e300, 2.0, math.inf),  # math.pow: OverflowError
            (-1e300, 2.0, math.inf),
            (1e-10, 2.0 - 64.0, math.inf),
            (5e-324, -1.0, math.inf),
            (0.0, -1.0, math.inf),  # math.pow: ValueError
            (-0.0, -1.0, -math.inf),
            (-0.0, -2.0, math.inf),
            (-1.0, 1.0 / 3.0, math.nan),
            (-2.0, 2.0 - 1.5, math.nan),
        ],
    )
    def test_pow_rows_where_math_pow_raises(self, base, exponent, expected):
        with pytest.raises((OverflowError, ValueError)):
            math.pow(base, exponent)
        with pytest.warns(RuntimeWarning):  # never silently inf or nan
            got = pow_rows(np.array([base]), exponent)
        assert _same_bits(got, np.array([expected]))

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
            expected = _fold_last(ufunc, A)
            if ufunc is np.add and k < 8:  # below 8 terms numpy's add is in index order; from 8 on it is pairwise
                assert _same_bits(ufunc.reduce(A, axis=-1), expected)
            assert _same_bits(reduce_last(ufunc, A), expected)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_norm_batch_matches_the_old_formulas(self, rng, k):
        X = rng.uniform(-3.0, 3.0, (500, k)) * 10.0 ** rng.integers(-6, 7, (500, k))
        if k <= 2:
            euclid = np.sqrt(np.einsum("...i,...i->...", X, X))
            assert np.array_equal(norm_batch(NormSpec.euclidean(k), X), euclid)
        p = 3.0
        old_p = _fold_last(np.add, np.abs(X) ** p) ** (1.0 / p)  # np.sum's bits below 8 terms
        assert np.array_equal(norm_batch(NormSpec.pnorm(p, k), X), old_p)
        assert np.array_equal(norm_batch(NormSpec.max_norm(k), X), np.maximum.reduce(np.abs(X), axis=-1))

    @pytest.mark.parametrize("k", [3, 4, 7, 9])
    def test_euclidean_norm_batch_within_rounding_of_einsum(self, rng, k):
        # for k >= 3 the squares are added in column order, einsum may not
        X = rng.uniform(-3.0, 3.0, (500, k))
        euclid = np.sqrt(np.einsum("...i,...i->...", X, X))
        assert np.allclose(norm_batch(NormSpec.euclidean(k), X), euclid, rtol=4 * np.finfo(float).eps, atol=0.0)


def _layout_kernels(k):
    """Every kernel that reduces rows through reduce_last or a stacked
    matmul, at width k: its row call on an X and a Y block (the norms read
    only X) and its one-vector form.  matvec_rows takes its matrix from Y's
    first k rows, in Y's layout, and has no one-vector form here (see
    TestRowHelpers)."""
    kernels = {}
    for ufunc in (np.add, np.maximum):
        f = lambda X, Y, ufunc=ufunc: reduce_last(ufunc, X)
        kernels[f"reduce_last-{ufunc.__name__}"] = (f, f)
    l1 = NormSpec.custom_gauge(lambda v: float(np.sum(np.abs(v))), k)
    for spec in (NormSpec.euclidean(k), NormSpec.pnorm(3.0, k), NormSpec.max_norm(k), l1):
        f = lambda X, Y, spec=spec: norm_batch(spec, X)
        kernels[f"norm_batch-{spec.kind}"] = (f, f)
    for spec in (NormSpec.euclidean(k), NormSpec.pnorm(3.0, k), NormSpec.max_norm(k)):
        kernels[f"norm_rows-{spec.kind}"] = (lambda X, Y, spec=spec: norm_rows(spec, X), lambda x, y, spec=spec: norm(spec, x))
        kernels[f"sip_rows-{spec.kind}"] = (lambda X, Y, spec=spec: sip_rows(spec, X, Y), lambda x, y, spec=spec: sip(spec, x, y))
    for space in (SiipSpace.diagonal([(-1) ** i for i in range(k)]), SiipSpace.cross_polytope(k)):
        kernels[f"siip_rows-{space.kind}"] = (lambda X, Y, sp=space: siip_rows(sp, X, Y), lambda x, y, sp=space: siip(sp, x, y))
    kernels["dot_rows"] = (dot_rows, lambda x, y: x @ y)
    kernels["matvec_rows"] = (lambda X, Y: matvec_rows(Y[:k], X), None)
    return kernels


class TestLayouts:
    @pytest.mark.parametrize("kernel", sorted(_layout_kernels(2)))
    @pytest.mark.parametrize("k", range(1, 13))
    def test_one_row_gives_one_value_in_every_layout(self, rng, kernel, k):
        # magnitudes over twelve decades, so that a pairwise and an index-order
        # sum part in the last bits; and zero rows, which the products set apart
        X, Y = rng.uniform(-3.0, 3.0, (2, 64, k)) * 10.0 ** rng.integers(-6, 7, (2, 64, k))
        X[::9], Y[1::9] = 0.0, 0.0
        rows, one = _layout_kernels(k)[kernel]
        expected = rows(X, Y)  # C-ordered
        wide = np.zeros((2, 128, 2 * k))
        wide[:, ::2, ::2] = X, Y
        for layout, (XL, YL) in {"F": (np.asfortranarray(X), np.asfortranarray(Y)), "strided": wide[:, ::2, ::2]}.items():
            assert _same_bits(rows(XL, YL), expected), layout
        if one is not None:
            assert _same_bits(np.array([one(x, y) for x, y in zip(X, Y)]), expected), "1-D"


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
        space = SMOOTH_SPACES.get(name) or NormSpec.max_norm(2)
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
        l1 = NormSpec.custom_gauge(lambda v: float(np.sum(np.abs(v))), 2)
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
        if lam != 0.0:
            hom2.update(pp(x, lam * v) - lam * pp(x, v), lam, x, v)
        q = pp(v, v)
        sq.update(0.0 if np.isfinite(q) else np.inf, v)
        if abs(q) <= tol * max(1.0, float(v @ v)) and all(abs(pp(b, v)) <= tol for b in basis):
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

    def test_cone_convexity_check_carries_a_trial_across_blocks(self):
        # in a 6+1 space a trial draws far more than the block of 3 trials, so its
        # rejection walk and its a and b run over several rounds of draws
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(6)
        report = mink.cone_convexity_check(space, Seed(4), 3)
        convexity, scaling = _loop_cone_convexity_check(space, 4, 3, Tolerances())
        assert report.trials == 3
        assert _same_witnesses(report.convexity_violations, convexity)
        assert _same_witnesses(report.scaling_violations, scaling)

    @pytest.mark.parametrize("budget", [1, 5])
    def test_cone_convexity_check_raises_when_its_budget_runs_out(self, monkeypatch, budget):
        monkeypatch.setattr(mink, "_CONE_BUDGET", budget)
        space = GeneralizedMinkowskiSpace.pseudo_euclidean(6)
        block = 3 * (10 * space.n + 3 + space.n)
        with pytest.raises(ConvergenceError, match=f"^cone_convexity_check: . of 3 trials .* budget of {budget * block} draws$"):
            mink.cone_convexity_check(space, Seed(4), 3)

    @pytest.mark.parametrize("name", sorted(MINKOWSKI_SPACES))
    def test_cone_convexity_check_stock_draws_fit_one_block(self, monkeypatch, name):
        monkeypatch.setattr(mink, "_CONE_BUDGET", 1)
        for seed in (42, 1, 7):
            report = mink.cone_convexity_check(MINKOWSKI_SPACES[name], Seed(seed), 200)
            convexity, scaling = _loop_cone_convexity_check(MINKOWSKI_SPACES[name], seed, 200, Tolerances())
            assert _same_witnesses(report.convexity_violations, convexity)
            assert _same_witnesses(report.scaling_violations, scaling)

    # a max block with k = 3 draws tails of 7 = 3 mod 4, so each trial moves the walk to another
    # residue class; the 4+1 and 6+1 spaces run past their first block
    WALK_SPACES = dict(
        MINKOWSKI_SPACES,
        max3=GeneralizedMinkowskiSpace.from_norms(NormSpec.max_norm(3), NormSpec.euclidean(1)),
        pseudo4=GeneralizedMinkowskiSpace.pseudo_euclidean(4),
        pseudo6=GeneralizedMinkowskiSpace.pseudo_euclidean(6),
    )

    @pytest.mark.parametrize("seed, trials", [(42, 200), (1, 3), (7, 40)])
    @pytest.mark.parametrize("name", sorted(WALK_SPACES))
    def test_cone_convexity_check_takes_what_the_full_block_walk_takes(self, monkeypatch, name, seed, trials):
        takes = []
        take = DrawStream.take
        monkeypatch.setattr(DrawStream, "take", lambda stream, count: takes.append(count) or take(stream, count))
        space = self.WALK_SPACES[name]
        report = mink.cone_convexity_check(space, Seed(seed), trials)
        walked, takes[:] = takes[:], []
        expected = reference_cone_convexity_check(space, seed, trials, Tolerances())
        assert walked == takes
        assert report.trials == expected.trials == trials
        assert _same_witnesses(report.convexity_violations, expected.convexity_violations)
        assert _same_witnesses(report.scaling_violations, expected.scaling_violations)

    @pytest.mark.parametrize("budget", [1, 2])
    def test_cone_convexity_check_budget_message_is_the_full_block_walks(self, monkeypatch, budget):
        monkeypatch.setattr(mink, "_CONE_BUDGET", budget)
        space = self.WALK_SPACES["pseudo6"]
        with pytest.raises(ConvergenceError) as expected:
            reference_cone_convexity_check(space, 4, 3, Tolerances())
        with pytest.raises(ConvergenceError) as got:
            mink.cone_convexity_check(space, Seed(4), 3)
        assert str(got.value) == str(expected.value)

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

    @pytest.mark.parametrize("space", [NormSpec.euclidean(2), NormSpec.pnorm(3.0, 2)], ids=["euclidean", "p3"])
    @pytest.mark.parametrize("F", [np.array([[0.6, -0.8], [0.8, 0.6]]), np.array([[2.0, 0.5], [0.0, 1.0]])])
    def test_sip_preservation_residual(self, space, F):
        got = sip_preservation_residual(space, F, Seed(7), 200)
        assert got == _loop_sip_preservation_residual(space, F, 7, 200)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_suite_siip_axioms_needs_a_trial(self, trials):
        # no config holds fewer than one trial, and the sampler the suite runs rejects one too
        with pytest.raises(UsageError, match="^trials must be at least 1"):
            config_from_mapping({"trials": trials})
        space = config_from_mapping({}).space()
        with pytest.raises(DomainError, match="trials must be at least 1"):
            siip_axiom_trials(BoundProduct(space, "+"), space.n, 42, trials, 1e-9)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("label", sorted(STOCK_CONFIGS))
    def test_suite_siip_axioms(self, label, seed):
        cfg = config_from_mapping(parse_config(STOCK_CONFIGS[label] + f"seed = {seed}\ntrials = 200\n"))
        rows = suites.suite_siip_axioms(cfg)
        loop = _loop_suite_siip_axioms(cfg)
        assert [r.check for r in rows] == [t.name for t in loop]
        for row, tracker in zip(rows, loop):
            assert row.residual == tracker.residual
            assert row.witness == (suites.fmt_vec(tracker.witness[-1]) if tracker.witness else "")


# The space-time suites and the sip-axioms mode agreement as trial loops,
# with the scalar helpers they called (tangent frame, ds2, f_directional,
# companion basis, derivative route and derivative identity) written out as
# they were before those helpers became one-row calls of row kernels.


def _loop_sample_s(rng, space, radius=1.2):
    s = rng.uniform(-radius, radius, space.k)
    if space.s_space.kind == "max" and space.k >= 2:
        a = np.sort(np.abs(s))
        if a[-1] - a[-2] < 1e-3:
            s[int(np.argmax(np.abs(s)))] *= 1.1
    return s


def _loop_companion_basis(product, u, eq_tol=1e-9):
    n = u.size
    r = np.array([product(e, u) for e in np.eye(n)])
    m = int(np.argmax(np.abs(r)))
    if abs(r[m]) <= eq_tol:
        raise DegenerateError("the product functional of u vanishes on the basis")
    out = []
    for j in range(n):
        if j != m:
            w = np.zeros(n)
            w[j] = 1.0
            w[m] = -r[j] / r[m]
            out.append(w)
    return out


def _loop_tangent_frame(space, v):
    vecs = []
    for j in range(space.k):
        e = np.zeros(space.k)
        e[j] = 1.0
        u = mink.embed(space, s=e, t=[sip(space.s_space, e, v.s) / v.tau])
        if abs(mink.product_plus(space, u, v.vector)) > 10.0 * 1e-9 * max(1.0, v.tau):
            raise NumericalError("tangent frame vector failed its orthogonality check")
        vecs.append(u)
    return vecs


def _loop_ds2(space, v, u1, u2, fd_tol=1e-5):
    vv = v.vector
    for u in (u1, u2):
        scale = max(1.0, float(np.max(np.abs(u)))) * max(1.0, v.tau)
        if abs(mink.product_plus(space, u, vv)) > fd_tol * scale:
            raise TangentError("vector is not tangent to H+ at the base point")
    direct = mink.product_plus(space, u1, u2)
    s1, s2 = u1[: space.k], u2[: space.k]
    qv = sip(space.s_space, v.s, v.s)
    closed = sip(space.s_space, s1, s2) - sip(space.s_space, s1, v.s) * sip(space.s_space, s2, v.s) / (1.0 + qv)
    if abs(direct - closed) > fd_tol * max(1.0, abs(direct)):
        raise NumericalError("tangential product forms disagree beyond tolerance")
    return float(direct)


def _loop_f_directional(space, s, e):
    if abs(norm(space.s_space, e) - 1.0) > 1e-8:
        raise DomainError("direction must be a unit vector of the S block")
    return sip(space.s_space, e, s) / float(np.sqrt(1.0 + sip(space.s_space, s, s)))


def _loop_sip_derivative(spec, x, y):
    if not np.any(y):
        return 0.0
    ny = norm(spec, y)
    return ny * central_diff(lambda t: norm(spec, y + t * x), 0.0, first_diff_step(ny))


def _loop_norm_first_derivative(spec, x, y):
    if not np.any(y):
        raise DomainError("norm derivative is undefined at the origin")
    return central_diff(lambda t: norm(spec, y + t * x), 0.0, first_diff_step(norm(spec, y)))


def _loop_derivative_identity_residual(space, x, y, z):
    ny = norm(space, y)
    if not np.any(y):
        raise DomainError("norm derivative is undefined at the origin")
    second = central_diff(lambda t: _loop_norm_first_derivative(space, x, y + t * z), 0.0, second_diff_step(ny))
    if np.any(z):
        dsip = central_diff(lambda t: sip(space, x, y + t * z), 0.0, first_diff_step(ny))
    else:
        dsip = 0.0
    return abs(ny * second - (dsip - sip(space, x, y) * sip(space, z, y) / (ny * ny)))


def _loop_suite_sip_axioms_mode_agreement(cfg):
    trackers = []
    for name, block in (("s", cfg.space().s_space), ("t", cfg.space().t_space)):
        if not block.is_smooth:
            continue
        rng = Seed(cfg.seed).rng()
        track = ResidualTracker(f"{name}.mode_agreement")
        for _ in range(min(cfg.trials, 100)):
            x = rng.uniform(-1.5, 1.5, block.dim)
            y = rng.uniform(-1.5, 1.5, block.dim)
            if not np.any(y):
                continue
            track.update(sip(block, x, y) - _loop_sip_derivative(block, x, y), x, y)
        trackers.append(track)
    return trackers


def _loop_suite_theorem2(cfg, rng=None):
    block = cfg.s_norm()
    rng = Seed(cfg.seed).rng() if rng is None else rng
    track = ResidualTracker("identity_residual")
    skipped = 0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, block.dim)
        z = rng.uniform(-1.0, 1.0, block.dim)
        y = rng.uniform(-1.0, 1.0, block.dim)
        if not np.any(y):
            skipped += 1
            continue
        y *= rng.uniform(0.5, 2.0) / norm(block, y)
        track.update(_loop_derivative_identity_residual(block, x, y, z), x, y, z)
    return track, skipped


def _loop_suite_lemma3(cfg):
    space = cfg.space()
    rng = Seed(cfg.seed).rng()
    track = ResidualTracker("derivative_residual")
    for _ in range(100):
        s = _loop_sample_s(rng, space)
        e = rng.uniform(-1.0, 1.0, space.k)
        if not np.any(e):
            continue
        e = e / norm(space.s_space, e)
        closed = _loop_f_directional(space, s, e)
        f = lambda lam: float(np.sqrt(1.0 + sip(space.s_space, s + lam * e, s + lam * e)))
        fd = central_diff(f, 0.0, first_diff_step(norm(space.s_space, s)))
        track.update(closed - fd, s, e)
    return track


def _loop_suite_lemma4(cfg):
    space = cfg.space()
    rng = Seed(cfg.seed).rng()
    ortho_track = ResidualTracker("frame_orthogonality")
    span_track = ResidualTracker("companion_in_span")
    pp = BoundProduct(space, "+")
    for _ in range(25):
        v = lift(space, _loop_sample_s(rng, space))
        frame = _loop_tangent_frame(space, v)
        for u in frame:
            ortho_track.update(pp(u, v.vector), v.s)
        A = np.array(frame).T
        for w in _loop_companion_basis(pp, v.vector):
            _, res, _, _ = np.linalg.lstsq(A, w, rcond=None)
            span_track.update(float(np.sqrt(res[0])) if res.size else 0.0, v.s)
    return ortho_track, span_track


def _loop_suite_theorem10(cfg):
    space = cfg.space()
    rng = Seed(cfg.seed).rng()
    pp = BoundProduct(space, "+")
    min_square, witness = np.inf, ""
    for _ in range(100):
        v = lift(space, _loop_sample_s(rng, space))
        basis = _loop_companion_basis(pp, v.vector)
        c = rng.uniform(-2.0, 2.0, len(basis))
        w = sum(ci * bi for ci, bi in zip(c, basis))
        if not np.any(w):
            continue
        q = pp(w, w)
        if q < min_square:
            min_square, witness = q, suites.fmt_vec(v.s)
    return min_square > 0.0, max(0.0, -min_square), witness


def _loop_suite_tangent(cfg):
    space = cfg.space()
    rng = Seed(cfg.seed).rng()
    all_spacelike, witness = True, ""
    lin = ResidualTracker("ds2_linearity")
    for _ in range(25):
        v = lift(space, _loop_sample_s(rng, space))
        frame = _loop_tangent_frame(space, v)
        for u in frame:
            if mink.classify(space, u, cfg.tolerances.class_tol) is not VectorClass.SPACE_LIKE:
                all_spacelike, witness = False, suites.fmt_vec(v.s)
        alpha = float(rng.uniform(-2.0, 2.0))
        lin.update(_loop_ds2(space, v, alpha * frame[0], frame[-1]) - alpha * _loop_ds2(space, v, frame[0], frame[-1]), v.s)
    return all_spacelike, witness, lin


SUITE_CONFIGS = {
    **STOCK_CONFIGS,
    "euclidean_dim3": 'space.s.norm = "euclidean"\nspace.s.dim = 3\n',
    "max_dim3": 'space.s.norm = "max"\nspace.s.dim = 3\n',
    "pnorm4": 'space.s.norm = "pnorm"\nspace.s.p = 4\n',
}


def _suite_cfg(label, seed):
    return config_from_mapping(parse_config(SUITE_CONFIGS[label] + f"seed = {seed}\ntrials = 200\n"))


def _tracked_row(tracker, pick=0):
    return tracker.residual, suites.fmt_vec(tracker.witness[pick]) if tracker.witness else ""


class TestSpaceTimeSuitesMatchTheLoop:
    """Each suite's rows against its trial loop, residuals and witnesses
    compared with ``==`` (witnesses as printed, at 17 significant digits)."""

    @pytest.fixture(params=[(label, seed) for label in sorted(SUITE_CONFIGS) for seed in (1, 7, 42)], ids=str)
    def cfg(self, request):
        return _suite_cfg(*request.param)

    def test_sip_axioms_mode_agreement(self, cfg):
        rows = [r for r in suites.suite_sip_axioms(cfg) if r.check.endswith("mode_agreement")]
        loop = _loop_suite_sip_axioms_mode_agreement(cfg)
        assert [r.check for r in rows] == [t.name for t in loop]
        assert [(r.residual, r.witness) for r in rows] == [_tracked_row(t) for t in loop]

    def test_theorem2(self, cfg):
        rows = suites.suite_theorem2(cfg)
        if rows[0].check == "not_applicable":
            assert cfg.s_kind == "max"
            return
        track, _ = _loop_suite_theorem2(cfg)
        assert [(r.check, r.residual, r.witness) for r in rows] == [(track.name, *_tracked_row(track, pick=1))]

    def test_lemma3(self, cfg):
        track = _loop_suite_lemma3(cfg)
        (row,) = suites.suite_lemma3(cfg)
        residual, witness = _tracked_row(track)
        if cfg.s_kind == "max":
            witness += ";tie-free sampling"
        assert (row.check, row.residual, row.witness) == (track.name, residual, witness)

    def test_lemma4(self, cfg):
        rows = suites.suite_lemma4(cfg)
        loop = _loop_suite_lemma4(cfg)
        assert [(r.check, r.residual, r.witness) for r in rows] == [(t.name, *_tracked_row(t)) for t in loop]

    def test_theorem10(self, cfg):
        (row,) = suites.suite_theorem10(cfg)
        assert (row.passed, row.residual, row.witness) == _loop_suite_theorem10(cfg)
        assert row.witness  # every config has a trial with w != 0

    def test_tangent(self, cfg):
        spacelike, frame_row = suites.suite_tangent(cfg)
        all_spacelike, witness, lin = _loop_suite_tangent(cfg)
        assert (spacelike.passed, spacelike.witness) == (all_spacelike, witness)
        assert (frame_row.check, frame_row.residual, frame_row.witness) == (lin.name, *_tracked_row(lin))


class _ForcedDraws:
    """A generator whose ``random`` draws at the given stream offsets are
    replaced by 0.5, which ``uniform(-1, 1)`` maps to 0.0; ``uniform`` is
    built on ``random`` as ``rng.uniform`` computes it."""

    def __init__(self, seed, offsets):
        self._rng = Seed(seed).rng()
        self._offsets = set(offsets)
        self._pos = 0

    def random(self, size=None):
        u = np.array(self._rng.random(size), dtype=float)
        flat = u.reshape(-1)
        for i in range(flat.size):
            if self._pos + i in self._offsets:
                flat[i] = 0.5
        self._pos += flat.size
        return u if size is not None else float(u)

    def uniform(self, low, high, size=None):
        return as_uniform(self.random(size), low, high)


class TestSpaceTimeSuiteEdges:
    @pytest.mark.parametrize("label", ["euclidean", "pnorm4"])
    def test_theorem2_skips_a_zero_y_and_continues_the_stream(self, monkeypatch, label):
        # trial t starts at offset 7 t while no y is zero; y of trial 3 sits at
        # 25 and 26, and trial 4 then starts at 27, one draw early, with y at 31, 32
        cfg = _suite_cfg(label, 42)
        forced = (25, 26, 31, 32)
        track, skipped = _loop_suite_theorem2(cfg, _ForcedDraws(42, forced))
        assert skipped == 2
        unforced, _ = _loop_suite_theorem2(cfg)
        assert _tracked_row(track, 1) != _tracked_row(unforced, 1)
        monkeypatch.setattr(suites, "as_seed", lambda seed: SimpleNamespace(rng=lambda: _ForcedDraws(seed, forced)))
        (row,) = suites.suite_theorem2(cfg)
        assert (row.residual, row.witness) == _tracked_row(track, pick=1)

    def test_theorem10_nan_square_fails_with_its_base_point(self, monkeypatch):
        cfg = _suite_cfg("euclidean", 42)
        original = mink.product_plus_rows

        def nan_on_row_7(space, U, V):
            out = original(space, U, V)
            if U is V:  # the Minkowski squares of the tangent vectors
                out[7] = np.nan
            return out

        monkeypatch.setattr(mink, "product_plus_rows", nan_on_row_7)
        (row,) = suites.suite_theorem10(cfg)
        rng = Seed(42).rng()
        for _ in range(8):
            s = rng.uniform(-1.2, 1.2, 2)  # no max-norm nudge, and no w = 0 on this config
            rng.uniform(-2.0, 2.0, 2)
        assert (row.passed, row.residual, row.witness) == (False, math.inf, suites.fmt_vec(s))

    def test_one_dimensional_blocks(self):
        cfg = config_from_mapping({"space.s.dim": 1, "trials": 50})
        assert suites.suite_theorem10(cfg)[0].passed
        assert all(r.passed for r in suites.suite_tangent(cfg) + suites.suite_lemma4(cfg))


def _points(rng, space, count):
    return [lift(space, s) for s in rng.uniform(-1.5, 1.5, (count, space.k))]


class TestSpaceTimeKernels:
    """The row kernels behind the space-time suites against the scalar
    helpers they replaced, bit for bit, and their raises."""

    @pytest.mark.parametrize("name", sorted(MINKOWSKI_SPACES))
    def test_lift_frames_f_directional_and_ds2(self, rng, name):
        space = MINKOWSKI_SPACES[name]
        points = _points(rng, space, 300)
        V = hyp.lift_rows(space, np.array([v.s for v in points]))
        assert np.array_equal(V, np.array([v.vector for v in points]))
        frames = hyp.tangent_frame_rows(space, V)
        assert np.array_equal(frames, np.array([_loop_tangent_frame(space, v) for v in points]))
        alpha = rng.uniform(-2.0, 2.0, 300)
        U1, U2 = alpha[:, None] * frames[:, 0], frames[:, -1]
        expected = [_loop_ds2(space, v, u1, u2) for v, u1, u2 in zip(points, U1, U2)]
        assert np.array_equal(hyp.ds2_rows(space, V, U1, U2), expected)
        E = rng.uniform(-1.0, 1.0, (300, space.k))
        E /= norm_rows(space.s_space, E)[:, None]
        expected = [_loop_f_directional(space, v.s, e) for v, e in zip(points, E)]
        assert np.array_equal(hyp.f_directional_rows(space, V[:, : space.k], E), expected)

    def test_ds2_raises(self):
        space = MINKOWSKI_SPACES["pseudo_euclidean"]
        V = hyp.lift_rows(space, np.array([[0.0, 0.0], [10.0, 0.0]]))
        tangent = hyp.tangent_frame_rows(space, V)[:, 0]
        with pytest.raises(TangentError):
            hyp.ds2_rows(space, V, tangent, np.array([tangent[0], [0.0, 0.0, 1.0]]))
        # tangent to within fd_tol * tau, but the two forms of the square then
        # differ by about 2 delta, more than fd_tol
        off = tangent.copy()
        off[1, 2] += 0.9e-5
        v = lift(space, [10.0, 0.0])
        for raising in (lambda: _loop_ds2(space, v, off[1], off[1]), lambda: hyp.ds2_rows(space, V, off, off)):
            with pytest.raises(NumericalError, match="disagree"):
                raising()

    def test_tangent_frame_orthogonality_check_raises(self, monkeypatch):
        space = MINKOWSKI_SPACES["max"]
        V = hyp.lift_rows(space, np.array([[0.3, -0.2], [1.0, 0.5]]))
        monkeypatch.setattr(hyp, "product_plus_rows", lambda space, U, V: np.array([0.0, 1e-3]))
        with pytest.raises(NumericalError, match="orthogonality"):
            hyp.tangent_frame_rows(space, V)

    def test_f_directional_needs_unit_directions(self):
        space = MINKOWSKI_SPACES["pnorm3"]
        with pytest.raises(DomainError):
            hyp.f_directional_rows(space, np.zeros((2, 2)), np.array([[1.0, 0.0], [2.0, 0.0]]))

    @pytest.mark.parametrize(
        "product",
        [BoundProduct(space, sign) for space in MINKOWSKI_SPACES.values() for sign in "+-"]
        + [SiipSpace.diagonal((1, 1, -1)), lambda a, b: float(a @ b)],
        ids=[f"{name}{sign}" for name in MINKOWSKI_SPACES for sign in "+-"] + ["diag", "dot"],
    )
    def test_companion_basis(self, rng, product):
        n = getattr(getattr(product, "space", None), "n", 3)
        U = rng.uniform(-2.0, 2.0, (400, n))
        U[::9, 0] = 0.0
        scalar = product if callable(product) else (lambda a, b: siip(product, a, b))
        bases = ortho.orthogonal_companion_basis_rows(product, U)
        assert np.array_equal(bases, np.array([_loop_companion_basis(scalar, u) for u in U]))
        pivots = {int(np.argmax(np.abs([scalar(e, u) for e in np.eye(n)]))) for u in U}
        assert len(pivots) > 1  # rows pivot on different entries

    def test_companion_basis_raises(self):
        first_only = lambda a, b: float(a[0] * b[0])
        U = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert len(ortho.orthogonal_companion_basis(first_only, U[0])) == 1
        for call in (
            lambda: ortho.orthogonal_companion_basis_rows(first_only, U),
            lambda: ortho.orthogonal_companion_basis(first_only, U[1]),
            lambda: _loop_companion_basis(first_only, U[1]),
        ):
            with pytest.raises(DegenerateError):
                call()
        with pytest.raises(DomainError):
            ortho.orthogonal_companion_basis_rows(first_only, np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES) + ["max2"])
    def test_derivative_route(self, rng, name):
        spec = SMOOTH_SPACES.get(name, NormSpec.max_norm(2))
        X, Y = _rows(rng, 500, spec.dim), _rows(rng, 500, spec.dim)
        Y[::13] = 0.0
        X[::13] = np.nan  # rows with y = 0 are never evaluated
        expected = [_loop_sip_derivative(spec, x, y) for x, y in zip(X, Y)]
        assert np.array_equal(sip_derivative_rows(spec, X, Y), expected)

    @pytest.mark.parametrize("name", sorted(SMOOTH_SPACES))
    def test_derivative_identity_residual(self, rng, name):
        space = SMOOTH_SPACES[name]
        X, Y, Z = (_rows(rng, 300, space.dim, 1.0) for _ in range(3))
        Z[::11] = 0.0  # d/dt [x, y + t z] = 0 without evaluation
        expected = [_loop_derivative_identity_residual(space, x, y, z) for x, y, z in zip(X, Y, Z)]
        assert np.array_equal(derivative_identity_residual_rows(space, X, Y, Z), expected)

    def test_derivative_identity_residual_raises(self):
        space = SMOOTH_SPACES["pnorm3"]
        X, Y, Z = np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 2))
        X[1, 0] = np.inf
        with pytest.raises(NumericalError, match="central_diff"):
            _loop_derivative_identity_residual(space, X[1], Y[1], Z[1])
        with pytest.raises(NumericalError, match="central_diff"):
            derivative_identity_residual_rows(space, X, Y, Z)
        Y[2] = 0.0
        with pytest.raises(DomainError):
            derivative_identity_residual_rows(space, np.ones((3, 2)), Y, Z)


# The orthogonality suite as a trial loop, with the scalar helpers it called
# (Birkhoff margin, relation residuals, indefinite Gram-Schmidt and the
# Auerbach search) written out as they were before they became one-row
# calls of row kernels.

_ROBERTS_GRID = [s * 2.0**j for j in range(-5, 4) for s in (1.0, -1.0)]


def _loop_birkhoff_margin(space, x, y, opt_tol=1e-7):
    nx, ny = norm(space, x), norm(space, y)
    if nx == 0.0 or ny == 0.0:
        return nx, 0.0
    xh, yh = x / nx, y / ny
    f = lambda t: norm(space, xh + float(t) * yh)
    grid = np.linspace(-8.0, 8.0, 33)
    vals = np.array([f(t) for t in grid])
    i0 = int(np.argmin(vals))
    t0 = float(grid[i0])
    pt, val = reference_minimize(lambda t: f(t[0]), np.array([t0]), opt_tol=opt_tol, max_iter=500)
    best_t, best_v = float(pt[0]), float(val)
    if vals[i0] < best_v:
        best_t, best_v = t0, float(vals[i0])
    return nx * best_v, best_t * nx / ny


def _loop_relation_residual(space, rel, x, y, opt_tol=1e-7):
    R = ortho.OrthoRelation
    if rel is R.ROBERTS:
        return max(abs(norm(space, x + t * y) - norm(space, x - t * y)) for t in _ROBERTS_GRID)
    if rel is R.BIRKHOFF:
        return max(0.0, norm(space, x) - _loop_birkhoff_margin(space, x, y, opt_tol)[0])
    if rel is R.ISOSCELES:
        return abs(norm(space, x + y) - norm(space, x - y))
    if rel is R.PYTHAGOREAN:
        return abs(norm(space, x) ** 2 + norm(space, y) ** 2 - norm(space, x - y) ** 2)
    if rel is R.SINGER:
        nx, ny = norm(space, x), norm(space, y)
        if nx == 0.0 or ny == 0.0:
            return 0.0
        return abs(norm(space, x / nx + y / ny) - norm(space, x / nx - y / ny))
    return abs(sip(space, y, x))


def _loop_regular_orthogonalization(product, vectors, eq_tol=1e-9):
    out, squares = [], []
    for i, v in enumerate(vectors):
        u = v.copy()
        for w, q in zip(out, squares):
            u = u - (product(v, w) / q) * w
        q = product(u, u)
        if abs(q) <= eq_tol * max(1.0, float(u @ u)):
            raise NeutralPivotError(f"neutral pivot at position {i + 1}", index=i + 1)
        out.append(u)
        squares.append(q)
    return out


def _full_argmax_pair(U):
    dets = np.abs(U[:, 0][:, None] * U[:, 1][None, :] - U[:, 1][:, None] * U[:, 0][None, :])
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(dets)), dets.shape)), dets


def _full_sip_orthogonal_pair(space, tolerances):
    """The s.i.p.-orthogonal pair search on full grid matrices of the same
    products, [U[i], U[j]] = U[i] . R[j] with R[j, k] = [e_k, U[j]]."""
    U = ortho._unit_vectors(space, np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
    R = np.stack([sip_rows(space, np.broadcast_to(e, U.shape), U) for e in np.eye(2)], axis=1)
    S = U[:, 0][:, None] * R[:, 0][None, :] + U[:, 1][:, None] * R[:, 1][None, :]
    resid = np.maximum(np.abs(S), np.abs(S.T))
    _, dets = _full_argmax_pair(U)
    ok = resid <= tolerances.eq_tol
    if not np.any(ok):
        raise ConvergenceError("no product-orthogonal pair found on the angle grid")
    scored = np.where(ok, dets, -1.0)
    i, j = np.argwhere(scored >= scored.max() - 1e-9)[0]
    return U[i], U[j]


def _loop_auerbach_basis_2d(spec, opt_tol=1e-7, max_iter=800):
    thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    (i, j), _ = _full_argmax_pair(ortho._unit_vectors(spec, thetas))
    unit = lambda angle: ortho._unit_vectors(spec, np.array([angle]))[0]

    def objective(angles):
        u, v = unit(angles[0]), unit(angles[1])
        return -abs(u[0] * v[1] - u[1] * v[0])

    best, _ = reference_minimize(objective, np.array([thetas[i], thetas[j]]), opt_tol=opt_tol, max_iter=max_iter)
    u, v = unit(best[0]), unit(best[1])
    for a, b in ((u, v), (v, u)):
        if _loop_birkhoff_margin(spec, a, b, opt_tol)[0] < norm(spec, a) - 10.0 * opt_tol:
            raise ConvergenceError("refined pair is not mutually Birkhoff orthogonal")
    return u, v


def _loop_suite_orthogonality(cfg, rng=None):
    """The suite's rows, and how many trials each loop skipped or rejected."""
    rows, skipped = [], {"agreement": 0, "homogeneity": 0, "gram": 0}
    tol = cfg.tolerances
    euclid = NormSpec.euclidean(2)
    rng = Seed(cfg.seed).rng() if rng is None else rng
    agree = True
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        if not np.any(x):
            skipped["agreement"] += 1
            continue
        y = np.array([-x[1], x[0]]) * float(rng.uniform(0.2, 2.0))
        for rel in ortho.OrthoRelation:
            if not _loop_relation_residual(euclid, rel, x, y, tol.opt_tol) <= 1e-6:
                agree = False
    rows.append(suites._row("orthogonality", "euclidean_agreement", agree))

    block = cfg.s_norm()
    if block.dim < 2:
        rows += suites._not_applicable("orthogonality", "needs an S block of dimension 2 or more", "sip_implies_birkhoff")
    else:
        worst = ResidualTracker("sip_implies_birkhoff")
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, block.dim)
            if norm(block, x) < 0.3:
                continue
            y = _loop_companion_basis(lambda a, b: sip(block, a, b), x, tol.eq_tol)[0]
            mn, _ = _loop_birkhoff_margin(block, x, y, tol.opt_tol)
            worst.update(max(0.0, norm(block, x) - mn), x)
        rows.append(suites._tracked("orthogonality", worst, 1e-6))

    homogeneous = True
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 2)
        if not np.any(x):
            skipped["homogeneity"] += 1
            continue
        y = np.array([-x[1], x[0]])
        lam, mu = float(rng.uniform(0.2, 3.0)), float(rng.uniform(-3.0, -0.2))
        for rel in (ortho.OrthoRelation.SIP, ortho.OrthoRelation.SINGER):
            related = _loop_relation_residual(euclid, rel, x, y, tol.opt_tol) <= 1e-8
            if related and not _loop_relation_residual(euclid, rel, lam * x, mu * y, tol.opt_tol) <= 1e-6:
                homogeneous = False
    rows.append(suites._row("orthogonality", "unitary_homogeneity", homogeneous))

    diag = SiipSpace.diagonal((1, 1, -1))
    product = lambda u, v: siip(diag, u, v)
    pair_res, span_res = ResidualTracker("gs_pairwise"), ResidualTracker("gs_span")
    produced = 0
    while produced < 20:
        vecs = [rng.uniform(-2.0, 2.0, 3) for _ in range(3)]
        dets = [abs(ortho.gram_determinant(product, vecs[: k + 1])) for k in range(3)]
        if min(dets) < 1e-2:
            skipped["gram"] += 1
            continue
        produced += 1
        us = _loop_regular_orthogonalization(product, vecs, tol.eq_tol)
        for i in range(3):
            for j in range(i + 1, 3):
                pair_res.update(product(us[i], us[j]))
        A = np.array(us).T
        for k in range(3):
            _, res, _, _ = np.linalg.lstsq(A[:, : k + 1], vecs[k], rcond=None)
            span_res.update(float(np.sqrt(res[0])) if res.size else 0.0)
    rows += [suites._tracked("orthogonality", pair_res, 1e-9), suites._tracked("orthogonality", span_res, 1e-9)]
    try:
        _loop_regular_orthogonalization(product, [np.array([1.0, 0.0, 1.0])], tol.eq_tol)
        neutral_ok = False
    except NeutralPivotError as err:
        neutral_ok = err.index == 1
    rows.append(suites._row("orthogonality", "gs_neutral_start_raises", neutral_ok))

    if block.dim == 2:
        u, v = _loop_auerbach_basis_2d(block, tol.opt_tol)
        deficiency = 0.0
        for a, b in ((u, v), (v, u)):
            mn, _ = _loop_birkhoff_margin(block, a, b, tol.opt_tol)
            deficiency = max(deficiency, norm(block, a) - mn)
        rows.append(suites._row("orthogonality", "auerbach_mutual_birkhoff", deficiency <= 1e-5, deficiency, suites.fmt_vec(u)))

    found = ortho.pythagorean_subspace_scan(NormSpec.euclidean(2), 120)
    rows.append(suites._row("orthogonality", "pythagorean_scan_euclidean", found is not None))
    for name, spec in (("max", NormSpec.max_norm(2)), ("pnorm4", NormSpec.pnorm(4.0, 2))):
        found = ortho.pythagorean_subspace_scan(spec, 120)
        rows.append(suites._row("orthogonality", f"pythagorean_scan_{name}_empty", found is None))
    return rows, skipped


def _as_compared(rows):
    return [(r.suite, r.check, bool(r.passed), r.residual, r.witness) for r in rows]


class TestOrthogonalitySuiteMatchesTheLoop:
    @pytest.mark.parametrize("label, seed", [(label, seed) for label in sorted(SUITE_CONFIGS) for seed in (1, 7, 42)])
    def test_rows_and_witnesses(self, label, seed):
        cfg = _suite_cfg(label, seed)
        expected, _ = _loop_suite_orthogonality(cfg)
        assert _as_compared(suites.suite_orthogonality(cfg)) == _as_compared(expected)

    @pytest.mark.parametrize(
        "loop, forced, least",
        [
            # agreement trial t starts at offset 3 t; x of trial 2 sits at 6, 7
            ("agreement", (6, 7), 1),
            # homogeneity starts at 30 + 20 on a plane block, trial t at 50 + 4 t
            ("homogeneity", (54, 55), 1),
            # Gram-Schmidt starts at 90, attempt a at 90 + 9 a: the first vector
            # of attempts 0 to 29 is zero, so a second block of attempts is needed
            ("gram", tuple(90 + 9 * a + c for a in range(30) for c in range(3)), 30),
        ],
        ids=["agreement-zero-x", "homogeneity-zero-x", "gram-rejections"],
    )
    @pytest.mark.parametrize("label", ["euclidean", "pnorm3"])
    def test_forced_skips_continue_the_stream(self, monkeypatch, loop, forced, least, label):
        cfg = _suite_cfg(label, 42)
        expected, skipped = _loop_suite_orthogonality(cfg, _ForcedDraws(42, forced))
        unforced, unforced_skipped = _loop_suite_orthogonality(cfg)
        assert skipped[loop] >= least and skipped[loop] > unforced_skipped[loop]
        assert _as_compared(expected) != _as_compared(unforced)  # the later loops saw a shifted stream
        monkeypatch.setattr(suites, "as_seed", lambda seed: SimpleNamespace(rng=lambda: _ForcedDraws(seed, forced)))
        assert _as_compared(suites.suite_orthogonality(cfg)) == _as_compared(expected)


class TestOrthogonalityKernels:
    """The row kernels behind the orthogonality suite against the scalar
    helpers they replaced, bit for bit."""

    SPACES = {**SMOOTH_SPACES, "max2": NormSpec.max_norm(2), "max3": NormSpec.max_norm(3)}

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_relation_rows_and_birkhoff_margins(self, rng, name):
        space = self.SPACES[name]
        X, Y = _rows(rng, 40, space.dim), _rows(rng, 40, space.dim)
        X[::9] = 0.0
        Y[4::9] = 0.0
        for rel in ortho.OrthoRelation:
            res, lam = ortho.relation_rows(space, rel, X, Y, 1e-6)
            assert np.array_equal(res, [_loop_relation_residual(space, rel, x, y, 1e-6) for x, y in zip(X, Y)])
            assert (lam is None) == (rel is not ortho.OrthoRelation.BIRKHOFF)
        margins, lams = ortho.birkhoff_margin_rows(space, X, Y, 1e-6)
        expected = [_loop_birkhoff_margin(space, x, y, 1e-6) for x, y in zip(X, Y)]
        assert np.array_equal(margins, [m for m, _ in expected]) and np.array_equal(lams, [t for _, t in expected])
        assert ortho.birkhoff_margin(space, X[1], Y[1], 1e-6) == expected[1]

    def test_roberts_residual_keeps_max_over_a_grid_with_nan(self):
        # a gauge that is NaN far from the origin: max() over the grid keeps
        # what it had when a later grid point gives NaN, and a NaN first point stays
        spec = NormSpec("gauge", 2, gauge=lambda v: float(np.abs(v).sum()) if np.abs(v).max() < 6.0 else math.nan)
        X, Y = np.array([[0.5, 0.2], [7.0, 0.0], [0.1, -0.3]]), np.array([[0.9, -0.4], [0.0, 1.0], [0.2, 0.1]])
        res, _ = ortho.relation_rows(spec, ortho.OrthoRelation.ROBERTS, X, Y)
        expected = [_loop_relation_residual(spec, ortho.OrthoRelation.ROBERTS, x, y) for x, y in zip(X, Y)]
        assert np.array_equal(res, expected, equal_nan=True)
        assert np.isfinite(res[0]) and np.isnan(res[1])

    def test_relation_rows_reject_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            ortho.relation_rows(NormSpec.euclidean(2), ortho.OrthoRelation.SIP, np.zeros((3, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("product", [SiipSpace.diagonal((1, 1, -1)), lambda a, b: float(a @ b)], ids=["diag", "dot"])
    def test_regular_orthogonalization(self, rng, product):
        V = rng.uniform(-2.0, 2.0, (200, 3, 3))
        scalar = product if callable(product) else (lambda a, b: siip(product, a, b))
        expected = np.array([_loop_regular_orthogonalization(scalar, list(vecs)) for vecs in V])
        assert np.array_equal(ortho.regular_orthogonalization_rows(product, V), expected)

    def test_regular_orthogonalization_raises_at_the_first_neutral_position(self):
        diag = SiipSpace.diagonal((1, 1, -1))
        V = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]])
        with pytest.raises(NeutralPivotError) as err:
            ortho.regular_orthogonalization_rows(diag, V)
        assert err.value.index == 1
        with pytest.raises(NeutralPivotError) as err:
            ortho.regular_orthogonalization_rows(diag, V[:1])
        assert err.value.index == 2

    # (grid size, entries equal to the maximum): entry (j, i) always ties with
    # (i, j), and the 100-point grid has four pairs at the maximum
    @pytest.mark.parametrize("grid, ties", [(720, 2), (100, 8), (130, 2), (128, 2), (64, 2), (3, 2)])
    def test_blocked_grid_argmax_matches_the_full_matrix(self, grid, ties):
        U = ortho._unit_vectors(NormSpec.max_norm(2), np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False))
        expected, dets = _full_argmax_pair(U)
        assert np.count_nonzero(dets == dets.max()) == ties
        assert ortho._max_det_pair(U) == expected

    # a symmetric score whose maximum sits in the last block, with entries
    # just inside and just outside the 1e-9 slack in earlier blocks
    @pytest.mark.parametrize("slack", [0.0, 1e-9])
    @pytest.mark.parametrize("plant", ["none", "inside", "outside", "nan"])
    def test_blocked_score_search_matches_the_full_matrix(self, rng, slack, plant):
        M = rng.uniform(0.0, 1.0, (150, 150))
        M[140, 145] = 2.0
        M[70, 71] = {"none": 0.5, "inside": 2.0 - 0.5e-9, "outside": 2.0 - 2e-9, "nan": np.nan}[plant]
        M[20, 130] = 2.0 - 0.9e-9 if plant == "inside" else 0.5
        M = np.maximum(M, M.T)
        top = np.max(M)
        expected = np.argwhere(np.isnan(M) if np.isnan(top) else M >= top - slack)[0]
        got = ortho._max_det_pair(np.zeros((150, 2)), lambda U, r: M[r : r + ortho._DET_BLOCK, r:], slack)
        assert got == tuple(expected)
        assert got == {"none": (140, 145), "inside": (20, 130) if slack else (140, 145), "outside": (140, 145), "nan": (70, 71)}[plant]

    @pytest.mark.parametrize("eq_tol", [1e-9, 1e-17])
    @pytest.mark.parametrize("norm_spec", [NormSpec.euclidean(2), NormSpec.pnorm(1.5, 2), NormSpec.pnorm(3.0, 2),
                                           NormSpec.pnorm(4.0, 2), NormSpec.max_norm(2)],
                             ids=["euclidean", "p1.5", "p3", "p4", "max"])
    def test_sip_orthogonal_pair_matches_the_full_matrix_search(self, norm_spec, eq_tol):
        space, tolerances = norm_spec, Tolerances(eq_tol=eq_tol)
        try:
            expected = _full_sip_orthogonal_pair(space, tolerances)
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError, match=str(err)):
                ortho._sip_orthogonal_pair(space, tolerances)
        else:
            got = ortho._sip_orthogonal_pair(space, tolerances)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("name", ["euclidean2", "pnorm3", "max2"])
    def test_auerbach_basis(self, name):
        spec = self.SPACES[name]
        expected = _loop_auerbach_basis_2d(spec)
        got = ortho.auerbach_basis_2d(spec)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_auerbach_angle_search_out_of_budget_raises_the_reference_best(self, monkeypatch):
        spec = self.SPACES["pnorm3"]
        with pytest.raises(ConvergenceError) as ref:
            _loop_auerbach_basis_2d(spec, max_iter=5)
        capped = lambda f, X0, opt_tol, max_iter: minimize_rows(f, X0, opt_tol, 5)
        monkeypatch.setattr(ortho, "minimize_rows", capped)
        with pytest.raises(ConvergenceError) as err:
            ortho.auerbach_pair_2d(spec)
        assert str(err.value) == "simplex diameter did not reach 1e-07 in 800 iterations"
        assert np.array_equal(err.value.best_point, ref.value.best_point)
        assert err.value.best_value == ref.value.best_value

    @pytest.mark.parametrize("name", ["euclidean2", "pnorm3", "max2"])
    def test_auerbach_pair_margins_match_a_margin_call_on_the_block(self, name):
        # the orthogonality suite takes these margins in place of its own call
        block = self.SPACES[name]
        pair, margins = ortho.auerbach_pair_2d(block)
        assert all(np.array_equal(p, e) for p, e in zip(pair, ortho.auerbach_basis_2d(block)))
        assert np.array_equal(margins, ortho.birkhoff_margin_rows(block, pair, pair[::-1])[0])


def _loop_gram_matrix(product, vectors):
    k = len(vectors)
    G = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            G[i, j] = product(vectors[i], vectors[j])
    return G


def _twisted(u, v):
    return float(u @ v) - 2.0 * u[0] * v[-1]


class TestGramMatrixRows:
    @pytest.mark.parametrize(
        "product, scalar, dim",
        [
            (SiipSpace.diagonal((1, 1, -1)), lambda u, v: _reference_siip(SiipSpace.diagonal((1, 1, -1)), u, v), 3),
            (NormSpec.pnorm(3.0, 2), lambda u, v: _reference_sip(NormSpec.pnorm(3.0, 2), u, v), 2),
            (BoundProduct(max_norm_spacetime(), "+"), lambda u, v: _reference_product(max_norm_spacetime(), u, v, "+"), 3),
            (_twisted, _twisted, 2),
        ],
        ids=["diagonal", "pnorm3", "max_plus", "lambda"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_nested_loop(self, rng, product, scalar, dim, k):
        V = _rows(rng, 60 * k, dim).reshape(60, k, dim)
        V[::5, -1] = 0.0
        G = ortho.gram_matrix_rows(product, V)
        assert G.shape == (60, k, k)
        assert np.array_equal(G, np.array([_loop_gram_matrix(scalar, list(vs)) for vs in V]))
        assert np.array_equal(ortho.gram_matrix(product, list(V[3])), G[3])


def _loop_definite_span(space, product, u, v, tol):
    """Reference: whether span{u, v} has constant-sign scalar squares, one
    scalar product per combination."""
    qu, qv = product(u, u), product(v, v)
    if (qu > 0) != (qv > 0):
        return False
    if space.kind == DIAGONAL:
        guv = product(u, v)
        return qu * qv - guv * guv > tol
    signs = []
    for phi in np.linspace(0.0, np.pi, 36, endpoint=False):
        w = np.cos(phi) * u + np.sin(phi) * v
        if not np.any(w):
            continue
        q = product(w, w)
        scale = max(1.0, float(w @ w))
        if abs(q) <= tol * scale:
            return False
        signs.append(q > 0)
    return len(signs) > 0 and (all(signs) or not any(signs))


def _loop_siip_axiom_report(space, seed, trials, tol=1e-9):
    """The s.i.i.p. axiom report as one scalar call per trial."""
    rng = Seed(seed).rng()
    product = lambda u, v: siip(space, u, v)
    basis = [np.eye(space.dim)[i] for i in range(space.dim)]
    names = ("additivity_first", "homogeneity_first", "homogeneity_second", "square_real", "nondegeneracy", "cauchy_schwarz_definite")
    add, hom1, hom2, sqreal, nondeg, cs = (ResidualTracker(n) for n in names)
    for _ in range(trials):
        x, y, v = (rng.uniform(-1.5, 1.5, space.dim) for _ in range(3))
        lam = float(rng.uniform(-3.0, 3.0))
        if not np.any(v):
            continue
        add.update(product(x + y, v) - product(x, v) - product(y, v), x, y, v)
        hom1.update(product(lam * x, v) - lam * product(x, v), lam, x, v)
        if lam != 0.0:
            hom2.update(product(x, lam * v) - lam * product(x, v), lam, x, v)
        qv = product(v, v)
        sqreal.update(0.0 if np.isfinite(qv) else np.inf, v)
        if abs(qv) <= tol * max(1.0, float(v @ v)) and all(abs(product(b, v)) <= tol for b in basis):
            nondeg.update(1.0, v)
        if np.any(x) and _loop_definite_span(space, product, x, v, tol):
            cs.update(max(0.0, product(x, v) ** 2 - product(x, x) * qv), x, v)
    return [add, hom1, hom2, sqreal, nondeg, cs]


class TestSiipAxiomReportMatchesTheLoop:
    SPACES = {
        "diagonal": SiipSpace.diagonal((1, 1, -1)),
        "weighted_plane": SiipSpace.weighted_plane(),
        "cross_polytope": SiipSpace.cross_polytope(3),
        "sign_function": SiipSpace.sign_function(NormSpec.pnorm(3.0, 2), lambda u: 1.0 if u[0] >= 0 else -1.0),
        "hessian": SiipSpace.normsquare_hessian(lambda v: float(v[0] ** 2 + 2.0 * v[0] * v[1] - v[1] ** 2), 2),
        # a degenerate product: every v annihilates the basis
        "degenerate": SiipSpace.normsquare_hessian(lambda v: 0.0, 2),
    }

    @pytest.mark.parametrize("seed", [0, 1, 5, 42])
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_residuals_and_witnesses(self, name, seed):
        space = self.SPACES[name]
        trials = 40 if name in ("sign_function", "hessian", "degenerate") else 100
        report = siip_axiom_report(space, Seed(seed), trials)
        loop = _loop_siip_axiom_report(space, seed, trials)
        assert [c.name for c in report.checks] == [t.name for t in loop]
        for check, tracker in zip(report.checks, loop):
            assert check.residual == tracker.residual and _same_witness(check.witness, tracker.witness)
        assert (report.residual("nondegeneracy") == 1.0) == (name == "degenerate")

    # the Cauchy-Schwarz scan at the trial count of the siip tests, where it
    # keeps a few hundred pairs
    @pytest.mark.parametrize("seed", [2, 3, 5])
    @pytest.mark.parametrize("name", ["weighted_plane", "cross_polytope"])
    def test_cauchy_schwarz_scan(self, name, seed):
        space = self.SPACES[name]
        report = siip_axiom_report(space, Seed(seed), 500)
        cs = _loop_siip_axiom_report(space, seed, 500)[-1]
        check = report.check("cauchy_schwarz_definite")
        assert check.residual == cs.residual and _same_witness(check.witness, cs.witness)

    def test_homogeneity_second_skips_lambda_zero(self, monkeypatch):
        # lambda = -3 + 6 u is 0 at u = 0.5; this product has [x, 0] = 1, so a
        # trial with lambda = 0 would give homogeneity_second a residual of 1
        product = lambda u, v: float(u @ v) if np.any(v) else 1.0
        draws = Seed(4).rng().random((30, 7))
        draws[5, 6] = 0.5
        forced = SimpleNamespace(rng=lambda: SimpleNamespace(random=lambda shape: draws))
        monkeypatch.setattr(sys.modules["sipmink.siip"], "as_seed", lambda seed: forced)
        trackers, _, _ = siip_axiom_trials(product, 2, 4, 30, 1e-9)
        assert trackers[2].name == "homogeneity_second" and trackers[2].residual < 1e-12

    def test_nondegeneracy_band_is_relative(self):
        # [u, v] = 0.5e-9 u.v: every v annihilates the basis within eq_tol, and
        # |[v, v]| <= eq_tol * max(1, v.v) holds also where v.v > 2
        tiny = lambda u, v: 0.5e-9 * float(u @ v)
        trackers, _, V = siip_axiom_trials(tiny, 2, Seed(0), 50, 1e-9)
        nondeg = trackers[-1]
        assert float(V[0] @ V[0]) > 2.0
        assert nondeg.residual == 1.0 and np.array_equal(nondeg.witness[0], V[0])


class TestOneRowEntryPoints:
    """The single-vector entry points are one-row calls of the row kernels:
    each checks its vectors' shape, returns a Python float and keeps the
    errors of its product."""

    CALLS = {
        "norm": (lambda x: norm(NormSpec.pnorm(3.0, 2), x), 1, 2),
        "norm_gauge": (lambda x: norm(NormSpec.custom_gauge(lambda v: float(np.abs(v).sum()), 2), x), 1, 2),
        "sip_max": (lambda x, y: sip(NormSpec.max_norm(3), x, y), 2, 3),
        # a custom gauge takes the derivative route
        "sip_derivative": (lambda x, y: sip(NormSpec.custom_gauge(lambda v: float(np.abs(v).sum()), 2), x, y), 2, 2),
        "product_plus": (lambda u, v: mink.product_plus(max_norm_spacetime(), u, v), 2, 3),
        "product_minus": (lambda u, v: mink.product_minus(max_norm_spacetime(), u, v), 2, 3),
        "siip_diagonal": (lambda u, v: siip(SiipSpace.diagonal((1, -1, 1)), u, v), 2, 3),
        "siip_weighted_plane": (lambda u, v: siip(SiipSpace.weighted_plane(), u, v), 2, 2),
        "siip_cross_polytope": (lambda u, v: siip(SiipSpace.cross_polytope(3), u, v), 2, 3),
        "lift_tau": (lambda s: lift(MINKOWSKI_SPACES["pseudo_euclidean"], s).tau, 1, 2),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_returns_a_python_float(self, rng, name):
        fn, arity, dim = self.CALLS[name]
        assert type(fn(*(rng.uniform(-2.0, 2.0, dim) for _ in range(arity)))) is float

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("shape", ["long", "row", "scalar"])
    def test_wrong_shape_raises(self, name, shape):
        fn, arity, dim = self.CALLS[name]
        bad = {"long": np.ones(dim + 1), "row": np.ones((1, dim)), "scalar": np.float64(1.0)}[shape]
        with pytest.raises(DimensionError):
            fn(*([np.ones(dim)] * (arity - 1)), bad)

    def test_classify_returns_the_member(self):
        space = max_norm_spacetime()
        for v, expected in (([0.0, 0.0, 1.0], VectorClass.TIME_LIKE), ([1.0, 0.0, 1.0], VectorClass.LIGHT_LIKE), ([1.0, 0.0, 0.0], VectorClass.SPACE_LIKE)):
            assert mink.classify(space, v) is expected
        # (2, 0, 1) has [v, v]^+ = 3 = 0.6 * [v, v]^-: the light-like band is closed
        assert mink.classify(GeneralizedMinkowskiSpace.pseudo_euclidean(2), [2.0, 0.0, 1.0], 0.6) is VectorClass.LIGHT_LIKE
        with pytest.raises(DimensionError):
            mink.classify(space, [0.0, 1.0])

    def test_lift_builds_its_point_from_the_row(self):
        space, s = MINKOWSKI_SPACES["pseudo_euclidean"], np.array([0.3, -0.7])
        point = lift(space, s)
        assert np.array_equal(point.vector, hyp.lift_rows(space, s[None])[0])
        s[0] = 5.0
        assert point.s[0] == 0.3  # the point keeps its own copy

    @pytest.mark.parametrize(
        "space",
        [
            SiipSpace.sign_function(NormSpec.euclidean(2), lambda u: 1.0),
            SiipSpace.normsquare_hessian(lambda v: float(v @ v), 2),
        ],
        ids=["sign_function", "hessian"],
    )
    def test_siip_undefined_at_the_origin(self, space):
        with pytest.raises(DomainError, match="undefined at v = 0"):
            siip(space, [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            siip_rows(space, np.ones((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestPathFromSNodes:
    @pytest.mark.parametrize("name", sorted(MINKOWSKI_SPACES))
    def test_nodes_match_one_lift_each(self, rng, name):
        space = MINKOWSKI_SPACES[name]
        S = rng.uniform(-1.5, 1.5, (17, space.k))
        S[3] = 0.0
        path = hyp.Path.from_s_nodes(space, S)
        for node, s in zip(path.nodes, S):
            expected = lift(space, s)
            assert np.array_equal(node.s, expected.s) and node.tau == expected.tau and type(node.tau) is float
        with pytest.raises(DimensionError):
            hyp.Path.from_s_nodes(space, S[:, :1])
