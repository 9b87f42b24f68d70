"""Norm families and their semi-inner-product (s.i.p.) representations.

A semi-inner-product is linear in its first argument, positive definite,
and satisfies the Cauchy-Schwarz inequality; it represents a norm via
``|x|^2 = [x, x]``.  For the p-norms the representing product has the
closed form

    [x, y] = |y|^(2-p) * sum_i x_i |y_i|^(p-1) sgn(y_i),

the max norm uses the dominant coordinate (smallest index on ties), and
any other gauge falls back to the norm-derivative construction
``[x, y] = |y| * d/dt |y + t x| at t=0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .numerics import (
    DEFAULT_TOLERANCES,
    ResidualTracker,
    Tolerances,
    as_seed,
    as_uniform,
    build_report,
    central_diff_rows,
    check_dim,
    dot_rows,
    first_diff_step,
    pow_rows,
    reduce_last,
    row_kernel,
    sample_vectors,
    second_diff_step,
)

EUCLIDEAN = "euclidean"
PNORM = "pnorm"
MAX = "max"
GAUGE = "gauge"

_SMOOTH_KINDS = (EUCLIDEAN, PNORM)


@dataclass(frozen=True)
class NormSpec:
    """A norm family on R^dim and the s.i.p. that represents it; with
    :meth:`rows` it is also a product handle."""

    kind: str
    dim: int
    p: float | None = None
    gauge: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be positive")
        if self.kind == PNORM and not (self.p is not None and self.p > 1):
            raise DomainError("p-norm requires p > 1")
        if self.kind == GAUGE and self.gauge is None:
            raise DomainError("custom gauge requires an evaluator")
        if self.kind not in (EUCLIDEAN, PNORM, MAX, GAUGE):
            raise DomainError(f"unknown norm kind {self.kind!r}")

    @classmethod
    def euclidean(cls, dim: int) -> "NormSpec":
        return cls(EUCLIDEAN, dim)

    @classmethod
    def pnorm(cls, p: float, dim: int) -> "NormSpec":
        return cls(PNORM, dim, p=float(p))

    @classmethod
    def max_norm(cls, dim: int) -> "NormSpec":
        return cls(MAX, dim)

    @classmethod
    def custom_gauge(cls, gauge: Callable, dim: int) -> "NormSpec":
        """Register a positive-homogeneous gauge; spot-checks homogeneity
        and positivity on five vectors drawn with seed 0."""
        spec = cls(GAUGE, dim, gauge=gauge)
        for x in sample_vectors(0, dim, 5, radius=2.0):
            gx = float(gauge(x))
            if not gx > 0:
                raise DomainError("gauge must be positive on nonzero vectors")
            for lam in (-2.0, -0.5, 0.5, 3.0):
                if abs(float(gauge(lam * x)) - abs(lam) * gx) > 1e-8 * max(1.0, gx):
                    raise DomainError("gauge fails absolute homogeneity")
        return spec

    @property
    def is_smooth(self) -> bool:
        """Gateaux-differentiable away from the origin."""
        return self.kind in _SMOOTH_KINDS

    def rows(self, X, Y) -> np.ndarray:
        """Row kernel of the s.i.p.: ``[X[i], Y[i]]`` for (N, dim) arrays."""
        return sip_rows(self, X, Y)


def _one_row(rows_fn, spec: NormSpec, *vectors) -> float:
    """A row kernel of ``spec`` evaluated on single vectors."""
    return float(rows_fn(spec, *(check_dim(v, spec.dim)[None] for v in vectors))[0])


_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


@np.errstate(over="ignore")  # as a decorator it costs half of what a with block costs per call
def _power_sums(X, p: float, out=None):
    """The power sums sum_i |X_i| ** p over the last axis of X (in ``out``
    when given; p = 2 squares X), and the :func:`_off_range` mask of their
    rows.  An overflow here is not warned of, since the recompute replaces it."""
    s = reduce_last(np.add, X * X if p == 2.0 else np.abs(X) ** p, out, nonnegative=True)  # no power is -0.0
    return s, _off_range(s, X)


@np.errstate(over="ignore")
def _square_sums(X):
    """The sums of squares dot_rows(X, X) of the rows of X and their
    :func:`_off_range` mask; an overflow is not warned of, as in :func:`_power_sums`."""
    s = dot_rows(X, X)
    return s, _off_range(s, X)


def _off_range(s, X):
    """The mask of the rows of X whose sum ``s`` of powers is not a normal
    float although their largest |entry| is positive and finite (None when
    there are none): those lost bits to underflow or overflow, and the
    kernels recompute them on the row scaled by its largest |entry|.  Every
    other row keeps its bits.  The range test reads the extremes through
    argmin and argmax (a nan wins both), which cost less than ufunc reductions."""
    flat = s.ravel()
    if not flat.size or (_TINY <= flat[flat.argmin()] and flat[flat.argmax()] <= _HUGE):
        return None
    m = reduce_last(np.maximum, np.abs(X))
    off = ~((s >= _TINY) & (s <= _HUGE)) & (m > 0.0) & (m <= _HUGE)
    return off if off.any() else None


def _rescaled(kernel, spec: NormSpec, out, X, off):
    """``out`` with its ``off`` rows recomputed by the norm ``kernel`` on the
    rows of |X| divided by their largest entry."""
    if off is None:
        return out
    A = np.abs(X[off])
    m = A.max(axis=-1)
    out = np.asarray(out)  # a single vector gives a scalar
    out[off] = m * kernel(spec, A / m[:, None])
    return out[()]


def norm(spec: NormSpec, x) -> float:
    """Norm of x under the norm family: the one-row call of :func:`norm_rows`."""
    return _one_row(norm_rows, spec, x)


def norm_rows(spec: NormSpec, X) -> np.ndarray:
    """Row-wise norms of an (N, dim) array, with the p-norm root rounded as
    the scalar ``float`` power (:func:`norm_batch` trades that for speed on
    large batches)."""
    X = check_dim(X, spec.dim, rows=True)
    if spec.kind == EUCLIDEAN:
        s, off = _square_sums(X)
        return _rescaled(norm_rows, spec, np.sqrt(s), X, off)
    if spec.kind == PNORM:
        s, off = _power_sums(X, spec.p)
        return _rescaled(norm_rows, spec, pow_rows(s, 1.0 / spec.p), X, off)
    return norm_batch(spec, X)  # the max and gauge rows have no root to round


def norm_batch(spec: NormSpec, X: np.ndarray, out=None) -> np.ndarray:
    """Row-wise norms of an (N, dim) array (any leading shape), written to
    ``out`` when given.  The short last axis is reduced column by column (see
    :func:`reduce_last`)."""
    X = np.asarray(X, dtype=float)
    if spec.kind == MAX:
        return reduce_last(np.maximum, np.abs(X), out)
    if spec.kind == GAUGE:
        out = np.empty(X.shape[:-1]) if out is None else out
        out[...] = row_kernel(spec.gauge)(X.reshape(-1, spec.dim)).reshape(X.shape[:-1])
        return out
    s, off = _power_sums(X, 2.0 if spec.kind == EUCLIDEAN else spec.p, out)
    if spec.kind == EUCLIDEAN:
        s = np.sqrt(s, out=out)
    else:
        s = np.power(s, 1.0 / spec.p, out=out)  # a scalar's ** (one row) would round as libm pow
    return s if off is None else _rescaled(norm_batch, spec, s, X, off)


def sip_derivative_rows(spec: NormSpec, X, Y) -> np.ndarray:
    """Row-wise products ``[X[i], Y[i]]`` by the norm-derivative route
    [x, y] = |y| d/dt |y + t x| at t = 0, which custom gauges take and which
    a smooth norm's closed form must agree with; rows with y = 0 give +0.0."""
    X = check_dim(X, spec.dim, rows=True)
    Y = check_dim(Y, spec.dim, rows=True)
    nonzero = np.any(Y, axis=1)
    out = np.zeros(len(Y))
    X, Y = X[nonzero], Y[nonzero]
    out[nonzero] = norm_rows(spec, Y) * _norm_first_derivative_rows(spec, X, Y)
    return out


def sip(spec: NormSpec, x, y) -> float:
    """Semi-inner-product [x, y]; linear in x, |.|-homogeneous in y.  The
    one-row call of :func:`sip_rows`."""
    return _one_row(sip_rows, spec, x, y)


def sip_rows(spec: NormSpec, X, Y) -> np.ndarray:
    """Row-wise products ``[X[i], Y[i]]`` of two (N, dim) arrays.

    The Euclidean, p-norm and max closed forms and the derivative route
    (which custom gauges take) all run as array code.  Homogeneity forces
    [x, 0] = 0, so rows with y = 0 give +0.0 without being evaluated.
    """
    if spec.kind == GAUGE:
        return sip_derivative_rows(spec, X, Y)
    X = check_dim(X, spec.dim, rows=True)
    Y = check_dim(Y, spec.dim, rows=True)
    nonzero = np.any(Y, axis=1)
    if spec.kind == EUCLIDEAN:
        out = dot_rows(X, Y)
    elif spec.kind == PNORM:
        p = spec.p
        s, off = _power_sums(Y, p)
        if off is not None:  # [x, y] = m [x, y / m]; the other rows take this branch again, unchanged
            out, keep = np.empty(len(Y)), ~off
            out[keep] = sip_rows(spec, X[keep], Y[keep])
            m = np.abs(Y[off]).max(axis=1)
            out[off] = m * sip_rows(spec, X[off], Y[off] / m[:, None])
            return out
        # norm_rows of Y; it is not 0 on a nonzero row, whose s is now in [tiny, huge] or not finite
        ny = pow_rows(s, 1.0 / p)
        scale = pow_rows(np.where(nonzero, ny, 1.0), 2.0 - p)
        out = scale * reduce_last(np.add, X * np.abs(Y) ** (p - 1.0) * np.sign(Y))
    else:
        j = np.argmax(np.abs(Y), axis=1)  # smallest index attains the max on ties
        i = np.arange(len(Y))
        out = X[i, j] * Y[i, j]
    return np.where(nonzero, out, 0.0)


def _require_nonzero(Y, what: str):
    if not np.all(np.any(Y, axis=1)):
        raise DomainError(f"{what} is undefined at the origin")


def _norm_first_derivative_rows(spec: NormSpec, X, Y) -> np.ndarray:
    """Directional derivative of the norm at Y[i] in direction X[i]."""
    _require_nonzero(Y, "norm derivative")
    return central_diff_rows(lambda t: norm_rows(spec, Y + t[:, None] * X), first_diff_step(norm_rows(spec, Y)))


def _norm_second_derivative_rows(spec: NormSpec, X, Z, Y) -> np.ndarray:
    """Second directional derivative of the norm at Y[i], directions X[i]
    then Z[i]: the central difference of the first derivative along Z[i]."""
    _require_nonzero(Y, "norm derivative")
    h = second_diff_step(norm_rows(spec, Y))
    return central_diff_rows(lambda t: _norm_first_derivative_rows(spec, X, Y + t[:, None] * Z), h)


def _sip_second_arg_derivative_rows(spec: NormSpec, X, Y, Z) -> np.ndarray:
    """Derivative of t -> [X[i], Y[i] + t Z[i]] at t = 0 (0.0 where Z[i] = 0)."""
    _require_nonzero(Y, "second-argument derivative")
    moving = np.any(Z, axis=1)
    X, Y, Z = X[moving], Y[moving], Z[moving]
    out = np.zeros(len(moving))
    h = first_diff_step(norm_rows(spec, Y))
    out[moving] = central_diff_rows(lambda t: sip_rows(spec, X, Y + t[:, None] * Z), h)
    return out


def derivative_identity_residual_rows(spec: NormSpec, X, Y, Z) -> np.ndarray:
    """Residual of the identity linking the two derivative notions, row by row:

        |y| * norm''_{x,z}(y)  =  d/dt [x, y + t z]|_0  -  [x,y][z,y] / |y|^2.

    Small residuals certify that the s.i.p. differentiates the way the
    twice-differentiable norm does.
    """
    X, Y, Z = (check_dim(A, spec.dim, rows=True) for A in (X, Y, Z))
    ny = norm_rows(spec, Y)
    lhs = ny * _norm_second_derivative_rows(spec, X, Z, Y)
    cross = sip_rows(spec, X, Y) * sip_rows(spec, Z, Y) / (ny * ny)
    rhs = _sip_second_arg_derivative_rows(spec, X, Y, Z) - cross
    return np.abs(lhs - rhs)


def norm_first_derivative(spec: NormSpec, x, y) -> float:
    """Directional derivative of the norm at y in direction x."""
    return _one_row(_norm_first_derivative_rows, spec, x, y)


def norm_second_derivative(spec: NormSpec, x, z, y) -> float:
    """Second directional derivative of the norm at y, directions x then z."""
    return _one_row(_norm_second_derivative_rows, spec, x, z, y)


def sip_second_arg_derivative(spec: NormSpec, x, y, z) -> float:
    """Derivative of t -> [x, y + t z] at t = 0."""
    return _one_row(_sip_second_arg_derivative_rows, spec, x, y, z)


def derivative_identity_residual(spec: NormSpec, x, y, z) -> float:
    """:func:`derivative_identity_residual_rows` of one (x, y, z)."""
    return _one_row(derivative_identity_residual_rows, spec, x, y, z)


def nath_product(spec: NormSpec, p: float, x, y) -> float:
    """p-homogeneous generalized product built from the s.i.p.

    Defined self-consistently by requiring |x| = [x,x]^(1/p), which gives
    [x, y]_p = |y|^(p-2) [x, y]; its second argument is (p-1)-homogeneous.
    """
    if p < 1:
        raise DomainError("requires p >= 1")
    y = check_dim(y, spec.dim)
    if not np.any(y):
        return 0.0
    return norm(spec, y) ** (p - 2.0) * sip(spec, x, y)


def sip_axiom_report(spec: NormSpec, seed, trials: int, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Max residuals of the s.i.p. axioms over seeded samples.

    Checks additivity and homogeneity in the first argument, real
    homogeneity in the second, positivity and norm consistency of the
    square, and the Cauchy-Schwarz inequality.
    """
    return product_axiom_report(spec, spec.dim, seed, trials, tolerances, norm=spec)


def product_axiom_report(
    product,
    dim: int,
    seed,
    trials: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    norm: NormSpec | None = None,
):
    """S.i.p. axiom residuals for an arbitrary product handle.

    ``product`` is a function of two vectors or an object with a row
    kernel (a :class:`NormSpec`, a bound Minkowski product).  The square is
    checked against ``norm``, or against sqrt([v, v]) when it is omitted.
    Trial t draws x, y, z and lambda in that order.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = as_seed(seed).rng()
    P = row_kernel(product)
    draws = rng.random((trials, 3 * dim + 1))
    X, Y, Z = (as_uniform(draws[:, i * dim : (i + 1) * dim], -1.5, 1.5) for i in range(3))
    lam = as_uniform(draws[:, 3 * dim], -3.0, 3.0)
    lam_col = lam[:, None]
    qx = P(X, X)
    pxy = P(X, Y)
    nx = np.sqrt(np.maximum(qx, 0.0)) if norm is None else norm_rows(norm, X)
    add = ResidualTracker("additivity_first")
    hom1 = ResidualTracker("homogeneity_first")
    hom2 = ResidualTracker("homogeneity_second")
    pos = ResidualTracker("positivity")
    sq = ResidualTracker("square_matches_norm")
    cs = ResidualTracker("cauchy_schwarz")
    add.update_rows(P(X + Y, Z) - P(X, Z) - P(Y, Z), X, Y, Z)
    hom1.update_rows(P(lam_col * X, Y) - lam * pxy, lam, X, Y)
    hom2.update_rows(P(X, lam_col * Y) - lam * pxy, lam, X, Y)
    pos.update_rows(np.where(np.any(X, axis=1), np.maximum(0.0, -qx), 0.0), X)
    sq.update_rows(qx - pow_rows(nx, 2.0), X)
    cs.update_rows(np.maximum(0.0, pow_rows(pxy, 2.0) - qx * P(Y, Y)), X, Y)
    return build_report([add, hom1, hom2, pos, sq, cs], tolerances.eq_tol)
