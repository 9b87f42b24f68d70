"""Shared numerical kernels: finite differences, Simpson quadrature,
derivative-free minimization, and seeded sampling.

Everything here is a pure function of its inputs; all randomness flows
through :class:`Seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, NumericalError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used throughout the package.

    eq_tol    equality residuals of closed-form identities
    fd_tol    residuals involving finite differences
    opt_tol   minimizer convergence (simplex diameter)
    class_tol light-like classification band, relative to the definite square;
              below 1, since |[v,v]^+| <= [v,v]^- makes a band of 1 or more
              call every vector light-like
    """

    eq_tol: float = 1e-9
    fd_tol: float = 1e-5
    opt_tol: float = 1e-7
    class_tol: float = 1e-9

    def __post_init__(self):
        for name in ("eq_tol", "fd_tol", "opt_tol", "class_tol"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be strictly positive")
        if not self.fd_tol > self.eq_tol:
            raise DomainError("fd_tol must exceed eq_tol")
        if not self.class_tol < 1:
            raise DomainError("class_tol must be below 1: a wider band calls every vector light-like")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class Seed:
    """Deterministic RNG seed. Same seed and configuration give the
    bit-identical sample sequence."""

    value: int = 0

    def __post_init__(self):
        if not 0 <= int(self.value) < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.value))


def as_seed(seed) -> Seed:
    return seed if isinstance(seed, Seed) else Seed(int(seed))


def check_dim(x, dim: int, rows: bool = False) -> np.ndarray:
    """``x`` as a float vector of length ``dim``, or with ``rows`` as an
    (N, dim) array of such vectors; raises :class:`DimensionError` otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,) or rows:  # a vector in the right shape costs one comparison
        if not (rows and x.ndim == 2 and x.shape[1] == dim):
            what = f"an (N, {dim}) array of vectors" if rows else f"a vector of dimension {dim}"
            raise DimensionError(f"expected {what}, got shape {x.shape}")
    return x


def dot_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise dot products ``X[i] @ Y[i]`` of two (N, dim) arrays.

    One stacked 1x1 matmul per row rounds exactly as the scalar ``x @ y``;
    ``einsum`` and ``sum(X * Y)`` can accumulate in a different order.
    """
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def matvec_rows(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise products ``F @ V[i]`` of a square matrix and an (N, dim) array.

    One stacked matrix-vector product per row rounds exactly as the single
    ``F @ v``; ``V @ F.T`` can accumulate in a different order.
    """
    return (F[None] @ V[:, :, None])[:, :, 0]


def reduce_last(ufunc: np.ufunc, A) -> np.ndarray:
    """``ufunc.reduce(A, axis=-1)`` for ``np.add``, ``np.maximum`` or
    ``np.minimum``, bit for bit, with one ufunc call per column when the last
    axis is short.

    numpy reduces a short contiguous last axis one row at a time, which on a
    batch of two-vectors costs far more than the arithmetic.  Below 8 terms
    numpy's pairwise add is sequential, so adding the columns in order gives
    the same sums; numpy starts from the identity, so a row of -0.0 sums to
    +0.0, and adding the identity last does the same.  A 1-D input is one
    row and goes straight to ``ufunc.reduce``, as does a last axis of fewer
    than 2 or more than 7 entries.
    """
    A = np.asarray(A)
    if A.ndim < 2 or not 2 <= A.shape[-1] < 8:
        return ufunc.reduce(A, axis=-1)
    out = ufunc(A[..., 0], A[..., 1])
    for j in range(2, A.shape[-1]):
        ufunc(out, A[..., j], out=out)
    if ufunc.identity is not None:
        ufunc(out, ufunc.identity, out=out)
    return out


def pow_rows(base, exponent: float) -> np.ndarray:
    """Element-wise ``base ** exponent``, rounded as the scalar ``float`` power.

    numpy's array power can differ from libm ``pow`` in the last bit, and so
    can ``x * x`` from ``x ** 2``; row kernels that must reproduce a scalar
    computation bit for bit take their powers here.  ``np.float_power`` calls
    libm ``pow`` per element, as ``math.pow`` does.  Where ``math.pow`` raises,
    numpy warns and this gives C ``pow``'s value: an infinity on overflow or for
    a zero base and a negative exponent, nan for a negative base and a fraction.
    """
    return np.float_power(np.asarray(base, dtype=float), exponent)


def row_kernel(fn: Callable) -> Callable:
    """Row-wise form of a scalar function of one or more vectors.

    Built-in products and norms expose a ``rows`` method that evaluates
    (N, dim) arrays row by row in closed form; any other callable is
    evaluated by a loop over its scalar calls.
    """
    rows = getattr(fn, "rows", None)
    if rows is not None:
        return rows
    return lambda *arrays: np.array([float(fn(*args)) for args in zip(*arrays)], dtype=float)


def as_uniform(u, low: float, high: float) -> np.ndarray:
    """Map ``rng.random`` draws onto [low, high) exactly as ``rng.uniform``
    does, so one block of draws reproduces a sequence of ``rng.uniform``
    calls bit for bit when laid out in their draw order."""
    return low + (high - low) * u


def first_diff_step(scale):
    """Step for first central differences: balances truncation and rounding.
    An array of scales gives one step each; a NaN scale counts as 1."""
    return np.fmax(1.0, np.abs(scale)) * _EPS ** (1.0 / 3.0)


def second_diff_step(scale):
    """Step for second differences and nested first differences."""
    return np.fmax(1.0, np.abs(scale)) * _EPS ** 0.25


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value in {what}: {value!r}")
    return value


def _finite_rows(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        _finite(values[~np.isfinite(values)][0], what)  # raises, naming the first non-finite value
    return values


def central_diff(f: Callable[[float], float], t: float, h: float) -> float:
    """Symmetric difference quotient (f(t+h) - f(t-h)) / (2h)."""
    if not h > 0:
        raise DomainError("step h must be positive")
    fp = _finite(f(t + h), "central_diff")
    fm = _finite(f(t - h), "central_diff")
    return (fp - fm) / (2.0 * h)


def central_diff_rows(f: Callable[[np.ndarray], np.ndarray], h: np.ndarray) -> np.ndarray:
    """Row-wise :func:`central_diff` at t = 0: ``f`` maps an array of offsets,
    one per row, to the values of the rows there, and ``h`` holds one step
    per row.  Raises :class:`NumericalError` on a non-finite value."""
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise DomainError("step h must be positive")
    fp = _finite_rows(f(h), "central_diff")
    fm = _finite_rows(f(-h), "central_diff")
    return (fp - fm) / (2.0 * h)


def second_diff(f: Callable[[float], float], t: float, h: float) -> float:
    """Second difference quotient (f(t+h) - 2 f(t) + f(t-h)) / h^2."""
    if not h > 0:
        raise DomainError("step h must be positive")
    fp = _finite(f(t + h), "second_diff")
    f0 = _finite(f(t), "second_diff")
    fm = _finite(f(t - h), "second_diff")
    return (fp - 2.0 * f0 + fm) / (h * h)


def simpson_weights(m: int) -> np.ndarray:
    """Composite Simpson weights on m subintervals (m even), for unit length."""
    if m < 2 or m % 2:
        raise DomainError("Simpson rule needs an even number of subintervals")
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * m)


def integrate(f: Callable[[float], float], a: float, b: float, m: int) -> float:
    """Composite Simpson estimate of the integral of f over [a, b]."""
    w = simpson_weights(m)
    ts = np.linspace(a, b, m + 1)
    vals = np.array([_finite(f(t), "integrate") for t in ts])
    return float((b - a) * (w @ vals))


def minimize(
    f: Callable[[np.ndarray], float],
    x0,
    opt_tol: float = DEFAULT_TOLERANCES.opt_tol,
    max_iter: int = 2000,
) -> tuple[np.ndarray, float]:
    """Deterministic Nelder-Mead simplex descent: the one-row call of
    :func:`minimize_rows`.

    Standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 1/2, 1/2); the initial simplex has edge 0.1 * max(1, |x0|).
    Terminates when the simplex diameter drops below ``opt_tol``.  Each
    value is checked as it is computed, so a non-finite one raises
    :class:`NumericalError` before the next is asked for.

    Returns the best vertex and its value.  Raises
    :class:`ConvergenceError` (carrying the best point found) when
    ``max_iter`` iterations were not enough.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    points, values, converged = minimize_rows(
        lambda rows, P: np.array([_finite(f(x), "minimize") for x in P]), x0[None], opt_tol, max_iter
    )
    if not converged[0]:
        raise ConvergenceError(
            f"simplex diameter did not reach {opt_tol} in {max_iter} iterations",
            best_point=points[0],
            best_value=float(values[0]),
        )
    return points[0], float(values[0])


def minimize_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    X0,
    opt_tol: float = DEFAULT_TOLERANCES.opt_tol,
    max_iter: int = 2000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Independent Nelder-Mead descents from the rows of an (N, n) array, run
    in lock-step.  Rows do not interact: each ends at the point and value
    of a call on that row alone (:func:`minimize`), bit for bit.

    ``f(rows, P)`` returns the objective values of problems ``rows`` (indices
    into ``X0``) at the points ``P``, one per row.  Each step makes one call
    for the reflections of the active rows, one for the expansion or
    contraction points of the rows that need one, and one for the shrinks;
    a row leaves the batch when its simplex converges.  Returns the best
    vertices (N, n), their values (N,) and whether each row converged; a row
    still active after ``max_iter`` iterations keeps its best vertex.
    Raises :class:`NumericalError` on a non-finite value.
    """
    X0 = np.asarray(X0, dtype=float)
    count, n = X0.shape
    edge = 0.1 * np.fmax(1.0, np.sqrt(dot_rows(X0, X0)))  # np.linalg.norm of each row, as minimize takes it
    sim = np.repeat(X0[:, None, :], n + 1, axis=1)
    sim[:, np.arange(1, n + 1), np.arange(n)] += edge[:, None]
    rows = np.arange(count)  # the problem of each active row
    fv = _finite_rows(f(np.repeat(rows, n + 1), sim.reshape(count * (n + 1), n)), "minimize").reshape(count, n + 1)
    best_x, best_f, converged = np.empty_like(X0), np.empty(count), np.ones(count, dtype=bool)
    at = rows[:, None]

    for _ in range(max_iter):
        order = fv.argsort(axis=1, kind="stable")
        sim, fv = sim[at, order], fv[at, order]
        # a zero-length start has no vertex offsets: its diameter is the initial 0
        done = np.maximum.reduce(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2), initial=0.0) < opt_tol
        if done.any():
            best_x[rows[done]], best_f[rows[done]] = sim[done, 0], fv[done, 0]
            active = ~done
            rows, sim, fv = rows[active], sim[active], fv[active]
            at = np.arange(len(rows))[:, None]
        if not rows.size:
            break
        centroid = np.add.reduce(sim[:, :-1], axis=1) / n
        worst = sim[:, -1]
        away = centroid - worst
        xr = centroid + away
        fr = _finite_rows(f(rows, xr), "minimize")
        expand = fr < fv[:, 0]
        contract = ~(expand | (fr < fv[:, -2]))
        # the expansion point, or the contraction point towards the worse of worst and xr
        inward = np.where((fr >= fv[:, -1])[:, None], worst, xr)
        x2 = np.where(expand[:, None], centroid + 2.0 * away, centroid + 0.5 * (inward - centroid))
        f2 = fr.copy()
        second = expand | contract
        if second.any():
            f2[second] = _finite_rows(f(rows[second], x2[second]), "minimize")
        take2 = (expand & (f2 < fr)) | (contract & (f2 < np.minimum(fr, fv[:, -1])))
        shrink = contract & ~take2
        shrunk = sim[shrink]
        sim[:, -1] = np.where(take2[:, None], x2, xr)
        fv[:, -1] = np.where(take2, f2, fr)
        if shrink.any():
            shrunk[:, 1:] = shrunk[:, :1] + 0.5 * (shrunk[:, 1:] - shrunk[:, :1])
            values = f(np.repeat(rows[shrink], n), shrunk[:, 1:].reshape(-1, n))
            sim[shrink] = shrunk
            fv[shrink, 1:] = _finite_rows(values, "minimize").reshape(-1, n)

    at, best = np.arange(len(rows)), np.argmin(fv, axis=1)
    best_x[rows], best_f[rows], converged[rows] = sim[at, best], fv[at, best], False
    return best_x, best_f, converged


def sample_vectors(seed, n: int, count: int, radius: float = 1.0) -> list[np.ndarray]:
    """Deterministic vectors with coordinates uniform in [-radius, radius].

    Never returns the zero vector (resamples on an exact zero draw).
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    if n < 1:
        raise DomainError("dimension must be at least 1")
    rng = as_seed(seed).rng()
    out: list[np.ndarray] = []
    while len(out) < count:
        v = rng.uniform(-radius, radius, size=n)
        if np.all(v == 0.0):
            continue
        out.append(v)
    return out


@dataclass(frozen=True)
class Check:
    """Outcome of one axiom/property check: max residual plus the worst witness."""

    name: str
    residual: float
    witness: tuple = ()
    passed: bool = True


@dataclass(frozen=True)
class AxiomReport:
    """Collection of named residual checks with pass flags at a fixed tolerance."""

    checks: tuple[Check, ...]
    tol: float

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def residual(self, name: str) -> float:
        return self.check(name).residual

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> Check:
        return max(self.checks, key=lambda c: c.residual)


class ResidualTracker:
    """Accumulates the max residual and its witness for one named check.

    A non-finite residual counts as ``inf``, so a NaN fails the check
    instead of slipping past every comparison.
    """

    def __init__(self, name: str):
        self.name = name
        self.residual = 0.0
        self.witness: tuple = ()

    def update(self, residual: float, *witness):
        residual = abs(float(residual))
        if math.isnan(residual):
            residual = math.inf
        if residual > self.residual:
            self.residual = residual
            self.witness = witness

    def update_rows(self, residuals, *witness):
        """Same as calling :meth:`update` once per row, in row order.

        Each witness argument holds one entry per row: vectors as an
        (N, dim) array, scalars as a length-N array.
        """
        r = np.abs(np.asarray(residuals, dtype=float))
        if not r.size:
            return
        r[np.isnan(r)] = np.inf
        i = int(np.argmax(r))  # the first row attaining the maximum
        if r[i] > self.residual:
            self.residual = float(r[i])
            self.witness = tuple(w[i].copy() if np.ndim(w) > 1 else float(w[i]) for w in witness)

    def check(self, tol: float) -> Check:
        return Check(self.name, self.residual, self.witness, self.residual <= tol)


def build_report(trackers: Sequence[ResidualTracker], tol: float) -> AxiomReport:
    return AxiomReport(tuple(t.check(tol) for t in trackers), tol)
