"""Shared numerical kernels: finite differences, Simpson quadrature,
derivative-free minimization, and seeded sampling.

Everything here is a pure function of its inputs; all randomness flows
through :class:`Seed`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


class DrawStream:
    """``rng.random`` draws handed out in stream order.  A trial loop that
    skips or rejects draws peeks at a block its run could use, works out
    how far the scalar loop would have drawn, and takes only that; the rest
    stays for the next peek.  Any split into peeks and takes reproduces one
    ``rng.random`` block bit for bit."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buffer = np.empty(0)

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` draws, left in the stream."""
        if count > len(self._buffer):
            self._buffer = np.concatenate((self._buffer, self._rng.random(count - len(self._buffer))))
        return self._buffer[:count]

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` draws, removed from the stream."""
        draws = self.peek(count)
        self._buffer = self._buffer[count:]
        return draws

    def kept_trials(self, trials: int, head: int, d: int, tail: int, low: float, high: float) -> np.ndarray:
        """The draws of the trials a loop keeps, one row each.  Each of
        ``trials`` trials draws ``head`` values, the last ``d`` of them a
        vector uniform on [low, high); a zero vector skips the trial and its
        ``tail`` further draws.  Takes the draws the loop used."""
        draws = self.peek(trials * (head + tail))  # the longest possible run
        nonzero = np.any(as_uniform(sliding_window_view(draws, d), low, high), axis=1).tolist()
        starts = []
        p = 0
        for _ in range(trials):
            if nonzero[p + head - d]:
                starts.append(p)
                p += head + tail
            else:
                p += head
        kept = draws[np.array(starts, dtype=np.intp)[:, None] + np.arange(head + tail)]
        self.take(p)
        return kept


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


def reduce_last(ufunc: np.ufunc, A, out=None, nonnegative: bool = False) -> np.ndarray:
    """``ufunc.reduce(A, axis=-1)`` for ``np.add``, ``np.maximum`` or
    ``np.minimum``, bit for bit, with one ufunc call per column when the last
    axis is short; written to ``out`` when given.

    numpy reduces a short contiguous last axis one row at a time, which on a
    batch of two-vectors costs far more than the arithmetic.  Below 8 terms
    numpy's pairwise add is sequential, so adding the columns in order gives
    the same sums; numpy starts from the identity, so a row of -0.0 sums to
    +0.0, and adding the identity last does the same (skipped when no entry
    is -0.0: ``nonnegative``).  A 1-D input is one row and goes straight to
    ``ufunc.reduce``, as does a last axis of fewer than 2 or more than 7 entries.
    """
    A = np.asarray(A)
    if A.ndim < 2 or not 2 <= A.shape[-1] < 8:
        return ufunc.reduce(A, axis=-1, out=out)
    out = ufunc(A[..., 0], A[..., 1], out=out)
    for j in range(2, A.shape[-1]):
        ufunc(out, A[..., j], out=out)
    if ufunc.identity is not None and not nonnegative:
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


def span_rows(basis, C) -> np.ndarray:
    """The combinations sum_i C[t, i] * basis[i] of an (N, len(basis)) block
    of coefficients, one row each.  Every row is summed from 0 in basis
    order, as ``sum`` adds one vector's terms, so it is that scalar
    combination bit for bit."""
    C = np.asarray(C, dtype=float)
    return sum(C[:, i, None] * np.asarray(b, dtype=float) for i, b in enumerate(basis))


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
    """Symmetric difference quotient (f(t+h) - f(t-h)) / (2h): the one-row
    call of :func:`central_diff_rows`, with ``f`` asked for f(t+h) first."""
    return float(central_diff_rows(lambda d: [float(f(t + float(d[0])))], [h])[0])


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
    Terminates when the simplex diameter drops below ``opt_tol``.  ``f`` is
    asked only for the points the descent uses, in its order, and each
    value is checked as it is computed, so a non-finite one raises
    :class:`NumericalError` before the next is asked for.

    Returns the best vertex and its value.  Raises
    :class:`ConvergenceError` (carrying the best point found) when
    ``max_iter`` iterations were not enough.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    points, values, converged = _nelder_mead(
        lambda rows, P: np.array([_finite(f(x), "minimize") for x in P]), x0[None], opt_tol, max_iter, speculate=False
    )
    raise_unconverged(points, values, converged, opt_tol, max_iter)
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
    into ``X0``) at the points ``P``, one per row; a problem's value must
    not depend on the rest of the batch.  Each step makes one call, on
    4 + n points of every active row: the reflection, the expansion, the
    contractions towards the reflection and towards the worst vertex, and
    the n shrink points (for n = 1 the last contraction); the step's rules
    take the values they use.  A step whose call raises, gives a non-finite
    value or trips an overflow, division or invalid-operation flag is
    redone as the sequential descent asks for its points (the reflections,
    the second points, the shrinks), so it raises only what that descent
    raises, and a value at a point the rules do not use is ignored.  A row
    leaves the batch when its simplex converges.  Returns the best vertices
    (N, n), their values (N,) and whether each row converged; a row still
    active after ``max_iter`` iterations keeps its best vertex.  Raises
    :class:`NumericalError` on a non-finite value the rules use.
    """
    return _nelder_mead(f, X0, opt_tol, max_iter, speculate=True)


def raise_unconverged(points, values, converged, opt_tol: float, max_iter: int) -> None:
    """Raise :class:`ConvergenceError` for the first row of a
    :func:`minimize_rows` result that did not converge, carrying that row's
    best vertex and value; the message names the row when there are several."""
    if converged.all():
        return
    r = int(np.argmin(converged))
    where = f" (row {r})" if len(converged) > 1 else ""
    raise ConvergenceError(
        f"simplex diameter did not reach {opt_tol} in {max_iter} iterations{where}",
        best_point=points[r].copy(),
        best_value=float(values[r]),
    )


_VALUE = operator.itemgetter(0)


def _trial_points(verts, opt_tol):
    """The 4 + n points one step may evaluate, from a simplex sorted by
    value, as a flat list of coordinates: the reflection, the expansion, the
    contractions towards the reflection and towards the worst vertex, and
    the shrinks of vertices 1..n towards the best.  None when the simplex
    diameter is below ``opt_tol``.  The centroid adds the kept vertices in
    order and divides by n; _trial_points_2 is this function written out,
    term for term, and so is _trial_points_1 less the shrink point, which
    for n = 1 is the contraction towards the worst vertex, bit for bit."""
    b, w = verts[0][1], verts[-1][1]
    if all(abs(v - bj) < opt_tol for _, p in verts[1:] for v, bj in zip(p, b)):
        return None
    n = len(b)
    c = list(b)
    for _, p in verts[1:-1]:
        c = [cj + pj for cj, pj in zip(c, p)]
    c = [cj / n for cj in c]
    away = [cj - wj for cj, wj in zip(c, w)]
    xr = [cj + aj for cj, aj in zip(c, away)]
    out = xr + [cj + 2.0 * aj for cj, aj in zip(c, away)]
    out += [cj + 0.5 * (rj - cj) for cj, rj in zip(c, xr)]
    out += [cj + 0.5 * (wj - cj) for cj, wj in zip(c, w)]
    for _, p in verts[1:]:
        out += [bj + 0.5 * (pj - bj) for bj, pj in zip(b, p)]
    return out


def _trial_points_1(verts, opt_tol):
    (_, (b,)), (_, (w,)) = verts
    if abs(w - b) < opt_tol:
        return None
    c = b  # b / 1
    a = c - w
    r = c + a
    return [r, c + 2.0 * a, c + 0.5 * (r - c), c + 0.5 * (w - c)]  # the shrink b + 0.5 * (w - b) is the last


def _trial_points_2(verts, opt_tol):
    (_, (x0, y0)), (_, (x1, y1)), (_, (x2, y2)) = verts
    if abs(x1 - x0) < opt_tol and abs(y1 - y0) < opt_tol and abs(x2 - x0) < opt_tol and abs(y2 - y0) < opt_tol:
        return None
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    ax, ay = cx - x2, cy - y2
    rx, ry = cx + ax, cy + ay
    return [
        rx, ry,
        cx + 2.0 * ax, cy + 2.0 * ay,
        cx + 0.5 * (rx - cx), cy + 0.5 * (ry - cy),
        cx + 0.5 * (x2 - cx), cy + 0.5 * (y2 - cy),
        x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0),
        x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0),
    ]  # fmt: skip


def _second_point(fr, verts) -> int:
    """The trial point a step evaluates after a reflection of value ``fr``:
    1 the expansion, 2 or 3 the contraction towards the reflection or
    towards the worst vertex, 0 none."""
    if fr < verts[0][0]:
        return 1
    if fr < verts[-2][0]:
        return 0
    return 3 if fr >= verts[-1][0] else 2


def _outcome(vals, verts):
    """The trial point that replaces the worst vertex (an index as in
    :func:`_second_point`, 0 the reflection), or None for a shrink; reads
    only the values of the points the step evaluates."""
    fr = vals[0]
    k = _second_point(fr, verts)
    if k == 1:
        return 1 if vals[1] < fr else 0
    if k and not vals[k] < min(fr, verts[-1][0]):
        return None
    return k


def _sequential_values(f, rows, batch, n, s0):
    """One step's values, asked for as the sequential descent asks: one call
    for the reflections of all rows, one for the second points of the rows
    that need one, one for the shrinks (points s0 on); each call's values
    are checked before the next.  Unevaluated entries stay NaN, unread."""
    vals = [[math.nan] * (s0 + n) for _ in batch]
    fr = _finite_rows(f(rows, np.array([pts[:n] for _, _, pts in batch])), "minimize")
    for v, x in zip(vals, fr.tolist()):
        v[0] = x
    second = [(i, k) for i, ((_, verts, _), v) in enumerate(zip(batch, vals)) if (k := _second_point(v[0], verts))]
    if second:
        P = np.array([batch[i][2][k * n : (k + 1) * n] for i, k in second])
        for (i, k), x in zip(second, _finite_rows(f(rows[[i for i, _ in second]], P), "minimize").tolist()):
            vals[i][k] = x
    shrink = [i for i, _ in second if _outcome(vals[i], batch[i][1]) is None]
    if shrink:
        P = np.array([batch[i][2][s0 * n :] for i in shrink]).reshape(-1, n)
        values = _finite_rows(f(np.repeat(rows[shrink], n), P), "minimize").reshape(-1, n)
        for i, row in zip(shrink, values.tolist()):
            vals[i][s0:] = row
    return vals


def _nelder_mead(f, X0, opt_tol, max_iter, speculate):
    """:func:`minimize_rows`; with ``speculate`` false every step takes the
    sequential calls, as :func:`minimize` needs for an objective that pays
    per point.  Each row's simplex is a list of (value, point) pairs in
    Python floats."""
    X0 = np.asarray(X0, dtype=float)
    count, n = X0.shape
    edge = 0.1 * np.fmax(1.0, np.sqrt(dot_rows(X0, X0)))  # np.linalg.norm of each row, as minimize takes it
    sim = np.repeat(X0[:, None, :], n + 1, axis=1)
    sim[:, np.arange(1, n + 1), np.arange(n)] += edge[:, None]
    fv = _finite_rows(f(np.repeat(np.arange(count), n + 1), sim.reshape(count * (n + 1), n)), "minimize")
    fv = fv.reshape(count, n + 1).tolist()
    live = [(r, [(v, tuple(p)) for v, p in zip(vs, ps)]) for r, (vs, ps) in enumerate(zip(fv, sim.tolist()))]
    best_x, best_f, converged = np.empty_like(X0), np.empty(count), np.ones(count, dtype=bool)
    trial = {1: _trial_points_1, 2: _trial_points_2}.get(n, _trial_points)
    s0 = 3 if n == 1 else 4  # the first shrink point; for n = 1 it is the contraction towards the worst vertex
    per, rows = s0 + n, np.arange(0)
    caller = np.geterr()  # a speculative call raises where the caller's state would warn or raise
    quiet = {key: "ignore" if state == "ignore" else "raise" for key, state in caller.items()}

    with np.errstate(**quiet):  # only the speculative calls run in this state
        for _ in range(max_iter):
            batch, coords = [], []  # (row, simplex, trial points) of each row still active
            for r, verts in live:
                verts.sort(key=_VALUE)
                pts = trial(verts, opt_tol)
                if pts is None:
                    best_f[r], best_x[r] = verts[0]
                else:
                    batch.append((r, verts, pts))
                    coords += pts
            live = [(r, verts) for r, verts, _ in batch]
            if not batch:
                break
            if len(rows) != len(batch):  # rows only leave the batch
                rows = np.array([r for r, _ in live])
                spread = np.repeat(rows, per)
            vals = None
            if speculate:
                try:
                    spec = np.asarray(f(spread, np.array(coords).reshape(-1, n)), dtype=float).tolist()
                    if math.isfinite(sum(spec)):  # a sum that overflows only costs the redo
                        vals = [spec[i : i + per] for i in range(0, len(spec), per)]
                except Exception:  # redone below in the sequential order, which raises what that order raises
                    pass
            if vals is None:
                with np.errstate(**caller):
                    vals = _sequential_values(f, rows, batch, n, s0)
            for (_, verts, pts), v in zip(batch, vals):
                k = _outcome(v, verts)
                if k is None:
                    verts[1:] = [(v[s0 + i], tuple(pts[(s0 + i) * n : (s0 + 1 + i) * n])) for i in range(n)]
                else:
                    verts[-1] = (v[k], tuple(pts[k * n : (k + 1) * n]))

    for r, verts in live:
        best_f[r], best_x[r] = min(verts, key=_VALUE)
        converged[r] = False
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
        self.update(r[i], *(w[i].copy() if np.ndim(w) > 1 else float(w[i]) for w in witness))

    def check(self, tol: float) -> Check:
        return Check(self.name, self.residual, self.witness, self.residual <= tol)


def build_report(trackers: Sequence[ResidualTracker], tol: float) -> AxiomReport:
    return AxiomReport(tuple(t.check(tol) for t in trackers), tol)
