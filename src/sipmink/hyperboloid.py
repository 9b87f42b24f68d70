"""The imaginary unit sphere H+ of a space-time model and its geometry.

H = {v : [v, v]^+ = -1} is a two-sheet hyperboloid in the auxiliary
norm; the upper sheet H+ is the graph of s -> sqrt(1 + [s, s]) over the
S block.  Tangent spaces of H+ are positive for the Minkowski product,
which therefore restricts to a Finsler-type semi-metric; curve length is
its arc-length integral, and distance is the infimum of curve lengths.

Curves are discretized by their S-coordinates and lifted nodewise, so
every discrete path lies exactly on H+; the distance minimization
relaxes interior nodes, coarse-to-fine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    NumericalError,
    PathError,
    TangentError,
    UnsupportedError,
)
from .minkowski import GeneralizedMinkowskiSpace, embed, product_plus, product_plus_rows, split
from .norms import MAX, norm_batch, norm_rows, sip_rows
from .numerics import DEFAULT_TOLERANCES, Tolerances, check_dim, minimize_rows, reduce_last, simpson_weights

_EPS3 = float(np.finfo(float).eps) ** (1.0 / 3.0)
_GRADIENT_STEP = 1e-6  # the +-h of every central difference in _energy_gradient
_QUAD_M = 4  # the Simpson subintervals of every chord-lift length the geodesic solver takes
_PAIR_BUDGET = 1000  # drawn pairs per pair asked of sample_pairs without a cap; the stock spaces need 1 or 2


def _require_spacetime(space: GeneralizedMinkowskiSpace):
    if not space.is_spacetime_model:
        raise UnsupportedError("the imaginary unit sphere needs a one-dimensional T block")


@dataclass(frozen=True)
class HPoint:
    """A point on the upper sheet: S-coordinates plus tau = sqrt(1 + [s, s])."""

    space: GeneralizedMinkowskiSpace
    s: np.ndarray
    tau: float

    @property
    def vector(self) -> np.ndarray:
        return embed(self.space, s=self.s, t=[self.tau])


def _hpoint(space: GeneralizedMinkowskiSpace, v: np.ndarray) -> HPoint:
    """The point of H+ of one row (s, tau) of :func:`lift_rows`."""
    return HPoint(space, v[: space.k].copy(), float(v[space.k]))


def lift(space: GeneralizedMinkowskiSpace, s) -> HPoint:
    """Lift S-coordinates onto H+: the one-row call of :func:`lift_rows`."""
    _require_spacetime(space)
    s = np.asarray(s, dtype=float)
    if s.shape != (space.k,):
        raise DimensionError(f"expected S-coordinates of dimension {space.k}")
    return _hpoint(space, lift_rows(space, s[None])[0])


def as_hpoint(space: GeneralizedMinkowskiSpace, v) -> HPoint:
    """Interpret a full vector as a point of H+ (checked).  [v, v]^+ cancels
    two terms of size tau^2, so |[v, v]^+ + 1| may be 1e-8 * max(1, tau^2)."""
    _require_spacetime(space)
    s, t = split(space, v)
    if not (np.isfinite(s).all() and 0.0 < t[0] < np.inf):  # a nan fails every comparison
        raise DomainError("vector lies on the lower sheet" if t[0] <= 0 else "vector has a non-finite coordinate")
    q = product_plus(space, v, v)
    if abs(q + 1.0) > 1e-8 * max(1.0, float(t[0]) ** 2):
        raise DomainError(f"vector is not on the imaginary unit sphere: [v,v]+ = {q}")
    return HPoint(space, s, float(t[0]))


def lift_rows(space: GeneralizedMinkowskiSpace, S) -> np.ndarray:
    """Lift each row of an (N, k) array of S-coordinates onto H+: the (N, n)
    array of vectors (s, tau), with tau = sqrt(1 + [s, s]).  Raises :class:`DomainError`
    for a non-finite coordinate, :class:`NumericalError` when [s, s] overflows."""
    _require_spacetime(space)
    S = check_dim(S, space.k, rows=True)
    if not np.isfinite(S).all():
        raise DomainError("vector has a non-finite coordinate")
    with np.errstate(over="ignore"):  # an overflow raises below
        tau = np.sqrt(1.0 + sip_rows(space.s_space, S, S))
    if not np.isfinite(tau).all():
        raise NumericalError("the lift sqrt(1 + [s, s]) is not finite: [s, s] overflows")
    return np.concatenate([S, tau[:, None]], axis=1)


def f_directional_rows(space: GeneralizedMinkowskiSpace, S, E) -> np.ndarray:
    """Directional derivative of s -> sqrt(1 + [s, s]) at S[i] along the unit
    direction E[i]: [e, s] / sqrt(1 + [s, s])."""
    _require_spacetime(space)
    S = check_dim(S, space.k, rows=True)
    E = check_dim(E, space.k, rows=True)
    if np.any(np.abs(norm_rows(space.s_space, E) - 1.0) > 1e-8):
        raise DomainError("direction must be a unit vector of the S block")
    return sip_rows(space.s_space, E, S) / lift_rows(space, S)[:, -1]


def f_directional(space: GeneralizedMinkowskiSpace, s, e) -> float:
    """:func:`f_directional_rows` of one base point and direction."""
    S, E = (np.asarray(a, dtype=float)[None] for a in (s, e))
    return float(f_directional_rows(space, S, E)[0])


@dataclass(frozen=True)
class TangentFrame:
    base: HPoint
    vectors: tuple


def tangent_frame_rows(space: GeneralizedMinkowskiSpace, V) -> np.ndarray:
    """Frames u_j = e_j + ([e_j, s]/tau) e_n spanning the tangent spaces at the
    rows (s, tau) of an (N, n) array of points of H+, as an (N, k, n) array.

    Each u_j satisfies [u_j, v]^+ = 0 identically (the T block is
    one-dimensional, so the product of the tau components cancels the
    S-side product exactly); a frame vector that misses this check by more
    than rounding raises :class:`NumericalError`.
    """
    _require_spacetime(space)
    V = check_dim(V, space.n, rows=True)
    k = space.k
    S, tau = V[:, :k], V[:, k]
    bound = 10.0 * DEFAULT_TOLERANCES.eq_tol * np.fmax(1.0, tau)
    frames = np.zeros((len(V), k, space.n))
    for j in range(k):
        frames[:, j, j] = 1.0
        frames[:, j, k] = sip_rows(space.s_space, frames[:, j, :k], S) / tau
        if np.any(np.abs(product_plus_rows(space, frames[:, j], V)) > bound):
            raise NumericalError("tangent frame vector failed its orthogonality check")
    return frames


def tangent_frame(space: GeneralizedMinkowskiSpace, v: HPoint) -> TangentFrame:
    """The frame of :func:`tangent_frame_rows` at one point of H+."""
    return TangentFrame(v, tuple(tangent_frame_rows(space, v.vector[None])[0]))


def ds2_rows(
    space: GeneralizedMinkowskiSpace,
    V,
    U1,
    U2,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Semi-metric values [U1[i], U2[i]]^+ for tangent vectors at the points
    V[i] of H+.

    Evaluates both the direct Minkowski product and its tangential
    closed form ([s1,s2] - [s1,s_v][s2,s_v]/(1+[s_v,s_v])) and insists
    they agree; either is the semi-metric.  A vector that is not tangent
    raises :class:`TangentError`.
    """
    _require_spacetime(space)
    V, U1, U2 = (check_dim(A, space.n, rows=True) for A in (V, U1, U2))
    k = space.k
    S, tau = V[:, :k], V[:, k]
    for U in (U1, U2):
        scale = np.fmax(1.0, reduce_last(np.maximum, np.abs(U))) * np.fmax(1.0, tau)
        if np.any(np.abs(product_plus_rows(space, U, V)) > tolerances.fd_tol * scale):
            raise TangentError("vector is not tangent to H+ at the base point")
    direct = product_plus_rows(space, U1, U2)
    block = space.s_space
    S1, S2 = U1[:, :k], U2[:, :k]
    qv = sip_rows(block, S, S)
    closed = sip_rows(block, S1, S2) - sip_rows(block, S1, S) * sip_rows(block, S2, S) / (1.0 + qv)
    if np.any(np.abs(direct - closed) > tolerances.fd_tol * np.fmax(1.0, np.abs(direct))):
        raise NumericalError("tangential product forms disagree beyond tolerance")
    return direct


def ds2(
    space: GeneralizedMinkowskiSpace,
    v: HPoint,
    u1,
    u2,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Semi-metric value [u1, u2]^+ for tangent vectors at v (see :func:`ds2_rows`)."""
    U1, U2 = (np.asarray(u, dtype=float)[None] for u in (u1, u2))
    return float(ds2_rows(space, v.vector[None], U1, U2, tolerances)[0])


@dataclass(frozen=True)
class Path:
    """Discrete curve on H+: m+1 points on a uniform parameter grid.

    Degenerate (repeated) consecutive nodes are allowed and contribute
    zero length.
    """

    space: GeneralizedMinkowskiSpace
    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) < 3:
            raise DomainError("a path needs at least two segments")

    @property
    def m(self) -> int:
        return len(self.nodes) - 1

    @property
    def s_matrix(self) -> np.ndarray:
        return np.array([p.s for p in self.nodes])

    @classmethod
    def from_s_nodes(cls, space: GeneralizedMinkowskiSpace, s_nodes) -> "Path":
        return cls(space, tuple(_hpoint(space, v) for v in lift_rows(space, s_nodes)))


def linear_path(space: GeneralizedMinkowskiSpace, a: HPoint, b: HPoint, m: int) -> Path:
    """Path whose S-coordinates interpolate linearly between the endpoints."""
    ts = np.linspace(0.0, 1.0, _check_count("m", m) + 1)
    return Path.from_s_nodes(space, a.s[None, :] + ts[:, None] * (b.s - a.s)[None, :])


def _check_count(name: str, value, even: bool = False) -> int:
    """A segment count ``m`` or an (``even``) Simpson subinterval count
    ``quad_m`` as an int of at least 2, else DomainError; a float is no
    count.  Every public entry point checks its counts before any work."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < 2 or (even and count % 2):
        raise DomainError(f"{name} must be {'even and ' if even else ''}at least 2")
    return count


def _quadrature_grid(quad_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Chord parameters and Simpson weights for quad_m subintervals (an int,
    see _check_count), built once per _ChordPlan."""
    return np.linspace(0.0, 1.0, quad_m + 1), simpson_weights(quad_m)


class _ChordPlan:
    """The work arrays of _segment_lengths calls on n segments of k
    coordinates at quad_m, and every view the kernel takes of them.

    ``coef`` is the column [sigma..., eps, -eps] spread over (nq + 2, k, n),
    so one contiguous multiply by the deltas D gives every sigma D and both
    shifts in ``scaled``, whose first nq planes then take the Simpson points
    P = S + sigma D.  ``B`` holds P + eps D and P - eps D, from one add, then
    D itself: a caller that writes D into ``delta`` and passes ``deltas``
    saves the copy.  ``sq`` holds the squared norms of B's planes, then the
    lifts at the shifted points; the radicands go to its backward half, read
    as the (n, nq) Simpson rows."""

    def __init__(self, k: int, n: int, quad_m: int):
        sig, self.weights = _quadrature_grid(quad_m)
        nq = sig.size
        self.coef = np.repeat(np.concatenate([sig, [_EPS3, -_EPS3]]), k * n).reshape(nq + 2, k, n)
        self.scaled = np.empty((nq + 2, k, n))
        self.points, self.shifts = self.scaled[:nq], self.scaled[nq:, None]
        self.B = np.empty((2 * nq + 1, k, n))
        self.shifted, self.delta = self.B[:-1].reshape(2, nq, k, n), self.B[-1]
        self.deltas = self.delta.T
        self.first, self.last, self.middle = self.B[:, 0], self.B[:, -1], [self.B[:, j] for j in range(1, k - 1)]
        self.row_view = self.B.transpose(0, 2, 1)
        self.sq = np.empty((2 * nq + 1, n))
        self.tau, self.fwd, self.bwd, self.speed2 = self.sq[:-1], self.sq[:nq], self.sq[nq:-1], self.sq[-1]
        self.simpson = self.bwd.reshape(n, nq)  # so the Simpson sum is one row-major matrix-vector product
        self.radicands, self.low = self.simpson.T, self.simpson.reshape(-1)  # (nq, n), and flat


def _segment_lengths(space, seg_starts: np.ndarray, seg_deltas: np.ndarray, quad_m: int, buf=None, groups: int = 1) -> np.ndarray:
    """Arc lengths of the chord lifts of n segments, given as (n, k) starts
    and deltas: S runs straight from start to start+delta, tau follows the
    lift.  Velocities use a central difference of the lifted tau along the
    chord parameter; the S velocity is the constant delta.  Simpson grid
    from _quadrature_grid; PathError if a velocity turns time-like.

    The kernel runs coordinate-major: it reads the starts and deltas as their
    (k, n) transposes, so a caller that fills contiguous (k, n) buffers and
    passes their ``.T`` pays no strided reads.  ``buf`` is a _ChordPlan for
    (k, n, quad_m): the work arrays and their views, built once by the level
    that owns it (_relax_gradient's one per level, _relax_simplex's one per
    batch size) and rewritten by every call; without one the call builds its
    own.  A max norm squares B and takes the np.maximum of its k coordinate
    planes, exact and so norm_batch's bits squared; any other norm takes one
    norm_batch call on the row view.  Segment j belongs to group j % ``groups``
    (a node-wise candidate), and each group has its own space-like floor, so
    its lengths do not depend on the rest of the batch."""
    plan = _ChordPlan(seg_starts.shape[1], len(seg_starts), quad_m) if buf is None else buf
    if seg_deltas is not plan.deltas:
        plan.delta[...] = seg_deltas.T
    np.multiply(plan.coef, plan.delta, out=plan.scaled)  # sigma D, eps D, -eps D
    P = np.add(seg_starts.T, plan.points, out=plan.points)
    np.add(P, plan.shifts, out=plan.shifted)  # P + eps D, then P + -eps D, which is P - eps D bit for bit
    sq = plan.sq
    if space.s_space.kind == MAX:  # the np.maximum of the coordinate planes of B squared; B is not read again
        np.square(plan.B, out=plan.B)  # rounding is monotone, so the largest square is the square of the largest |entry|
        np.maximum(plan.first, plan.last, out=sq)  # at k = 1, max(x, x) = x
        for plane in plan.middle:
            np.maximum(sq, plane, out=sq)
    else:
        np.square(norm_batch(space.s_space, plan.row_view, sq), out=sq)
    tau = plan.tau  # the lift at P + eps D, then at P - eps D
    np.sqrt(np.add(tau, 1.0, out=tau), out=tau)
    dtau = np.subtract(plan.fwd, plan.bwd, out=plan.fwd)
    dtau /= 2.0 * _EPS3
    rad = np.subtract(plan.speed2, np.square(dtau, out=dtau), out=plan.radicands)
    g = plan.simpson
    low = plan.low  # below the highest floor, or a nan: check each group's (argmin costs less than fmin.reduce)
    if not low[low.argmin()] >= -1e-11:
        floor = -1e-11 * np.fmax(1.0, np.maximum.reduce(plan.speed2.reshape(-1, groups), axis=0, initial=0.0))
        if (rad.reshape(len(rad), -1, groups) < floor).any():
            raise PathError("curve velocity left the space-like regime")
    np.maximum(g, 0.0, out=g)
    return np.sqrt(g, out=g).dot(plan.weights)


def _chord_lengths(space, s_nodes: np.ndarray, quad_m: int) -> np.ndarray:
    """The _segment_lengths of the m segments of a path's (m + 1, k) nodes."""
    return _segment_lengths(space, s_nodes[:-1], s_nodes[1:] - s_nodes[:-1], quad_m)


def path_length(space: GeneralizedMinkowskiSpace, path: Path, quad_m: int = _QUAD_M) -> float:
    """Sum of per-segment Simpson integrals of the tangential speed."""
    _require_spacetime(space)
    quad_m = _check_count("quad_m", quad_m, even=True)
    return float(np.sum(_chord_lengths(space, path.s_matrix, quad_m)))


def _path_energy(space, s_nodes: np.ndarray, quad_m: int) -> float:
    L = _chord_lengths(space, s_nodes, quad_m)
    return float((s_nodes.shape[0] - 1) * np.sum(L * L))


def _gradient_indices(m: int, k: int) -> np.ndarray:
    """The (2, k, 4k(m-1) + m) indices of the starts and the ends of the
    segments of an _energy_gradient call, coordinate-major, into the flat
    nodes followed by the interior coordinates moved by +h, then by -h.
    First every left segment of a moved node, then every right segment,
    each ordered (node, coordinate, sign), then the m path segments."""
    node = np.arange((m + 1) * k).reshape(m + 1, k)
    moved = np.repeat(node[1:-1, None, :, None], k, axis=1).repeat(2, axis=3)  # [node - 1, c, coordinate, sign]
    moved[:, np.arange(k), np.arange(k)] = node[:-2, :, None] + [(m + 1) * k, 2 * m * k]
    moved, rep = moved.transpose(0, 1, 3, 2).reshape(-1, k), np.repeat(node, 2 * k, axis=0)
    return np.stack([np.concatenate([rep[: -4 * k], moved, node[:-1]]).T, np.concatenate([moved, rep[4 * k :], node[1:]]).T])


class _GradientPlan(_ChordPlan):
    """The _ChordPlan of the _energy_gradient calls of one level at m
    segments, with their gather arrays: the flat [x, x+h, x-h] (``nodes``,
    ``up``, ``down``) and the (2, k, R) starts and ends it is gathered into."""

    def __init__(self, m: int, k: int):
        size, q = (m + 1) * k, k * (m - 1)
        super().__init__(k, 4 * q + m, _QUAD_M)
        self.indices = _gradient_indices(m, k)
        self.gather = np.empty(size + 2 * q)
        self.nodes, self.up, self.down = self.gather[:size], self.gather[size : size + q], self.gather[size + q :]
        self.starts_ends = np.empty((2, k, 4 * q + m))
        self.starts = self.starts_ends[0].T


def _energy_gradient(space, s_nodes: np.ndarray, plan=None, out=None) -> tuple[np.ndarray, float]:
    """Central-difference gradient of the path energy w.r.t. interior nodes
    (in ``out`` when given), and the energy itself (equal to _path_energy).
    A moved node changes only its two segments, so all 4k(m-1) perturbed ones
    and the m path segments take one length call, gathered by _gradient_indices;
    only the moved coordinate gets +h or -h, the others are copied.  ``plan``:
    the level's _GradientPlan."""
    m, k, h = s_nodes.shape[0] - 1, s_nodes.shape[1], _GRADIENT_STEP
    x, q = s_nodes.ravel(), 2 * k * (m - 1)
    plan = _GradientPlan(m, k) if plan is None else plan
    plan.nodes[...] = x
    np.add(x[k:-k], h, out=plan.up)
    np.subtract(x[k:-k], h, out=plan.down)
    starts, ends = plan.gather.take(plan.indices, None, plan.starts_ends, "clip")
    np.subtract(ends, starts, out=plan.delta)
    L = _segment_lengths(space, plan.starts, plan.deltas, _QUAD_M, buf=plan)
    L *= L
    pair = np.add(L[:q], L[q : 2 * q], out=L[:q])  # (node, coordinate, sign), flat
    np.multiply(m, pair, out=pair)
    g = np.empty((m - 1, k)) if out is None else out
    diff = np.subtract(pair[0::2], pair[1::2], out=g.reshape(-1))
    diff /= 2.0 * h
    return g, float(m * np.add.reduce(L[2 * q :]))


def _relax_gradient(space, s_nodes: np.ndarray, max_iter: int) -> np.ndarray:
    """Barzilai-Borwein descent on the path energy (smooth S norms).  The
    level owns the _GradientPlan of its _energy_gradient calls, the two live
    gradients and the last point; each step writes the nodes in place."""
    inner = s_nodes[1:-1]
    plan = _GradientPlan(s_nodes.shape[0] - 1, s_nodes.shape[1])
    x, (work, g, g_new) = inner.copy(), (np.empty_like(inner) for _ in range(3))
    s, w = x.ravel(), work.ravel()  # flat views: the step; the gradient change, then |g|
    g, e = _energy_gradient(space, s_nodes, plan, g)
    alpha = 1e-3 / max(1e-12, float(w[np.abs(g, out=work).argmax()]))  # argmax: cheaper than a reduction, nan wins
    for _ in range(max_iter):
        np.subtract(x, np.multiply(alpha, g, out=work), out=inner)  # the new point x - alpha g
        g_new, e_new = _energy_gradient(space, s_nodes, plan, g_new)
        np.subtract(inner, x, out=x)
        np.subtract(g_new, g, out=work)
        sy = float(s.dot(w))
        alpha = float(s.dot(s)) / sy if sy > 0 else alpha * 0.5
        x[...] = inner
        g, g_new = g_new, g
        if w[np.abs(g, out=work).argmax()] < 1e-11 or abs(e - e_new) < 1e-15 * max(1.0, e_new):
            break
        e = e_new
    return s_nodes


class _NodePlan(_ChordPlan):
    """The _ChordPlan of _NodeObjective calls on N candidates, with the
    (k, 3N) block [lo | P | hi] of the candidates P and their problems'
    neighbours: the starts [lo | P] and the ends [P | hi] of the 2N segments
    are two views of it, so one subtract writes every delta."""

    def __init__(self, k: int, N: int):
        super().__init__(k, 2 * N, _QUAD_M)
        block = np.empty((k, 3 * N))
        self.lo, self.nodes, self.hi = block[:, :N], block[:, N : 2 * N], block[:, 2 * N :]
        self.earlier, self.later = block[:, : 2 * N], block[:, N:]
        self.starts = self.earlier.T


class _NodeObjective:
    """The objective of one _relax_simplex step for minimize_rows: at each
    candidate P of problem r, the squared lengths of the segments lo[r] -> P
    and P -> hi[r], summed, every left segment then every right one.  The
    _NodePlan of each batch size comes from ``plans``, which the level keeps
    across its steps; minimize_rows passes one rows array until a row leaves
    the batch, so lo[rows] and hi[rows] are gathered into the plan once per
    rows array."""

    def __init__(self, space, lo: np.ndarray, hi: np.ndarray, plans: dict):
        self.space, self.lo, self.hi, self.plans, self.rows = space, lo.T, hi.T, plans, None

    def _gather(self, rows: np.ndarray, k: int):
        N = len(rows)
        plan = self.plans.get(N)
        if plan is None:
            plan = self.plans[N] = _NodePlan(k, N)
        self.lo.take(rows, 1, plan.lo, "clip")
        self.hi.take(rows, 1, plan.hi, "clip")
        self.rows, self.plan = rows, plan

    def __call__(self, rows: np.ndarray, P: np.ndarray) -> np.ndarray:
        if rows is not self.rows:
            self._gather(rows, P.shape[1])
        plan, N = self.plan, len(rows)
        plan.nodes[...] = P.T
        np.subtract(plan.later, plan.earlier, out=plan.delta)  # [P - lo | hi - P]
        L = _segment_lengths(self.space, plan.starts, plan.deltas, _QUAD_M, plan, N)
        L *= L
        return np.add(L[:N], L[N:], out=L[:N])  # as np.add.reduce sums two squares


def _relax_simplex(space, s_nodes: np.ndarray, sweeps: int, opt_tol: float) -> np.ndarray:
    """Node-wise simplex relaxation (works for non-smooth S norms too).

    Gauss-Seidel sweeps: in sweep s, node i starts from its sweep s-1 value
    and minimizes the squared lengths of its two segments, between node i-1
    of sweep s and node i+1 of sweep s-1; a sweep that moves no node by
    opt_tol is the last.  Node i of sweep s runs at step i + lag*s.  At lag 2
    the nodes due at one step are independent and share one minimize_rows
    call; later sweeps start before an earlier one's stopping test, and a
    stop returns the nodes as the stopping sweep left them.  On PathError or
    NumericalError the level reruns at lag m-1, one node per step in the
    loop's own order, so it raises what that loop raises.
    """
    m, plans = s_nodes.shape[0] - 1, {}  # the _NodePlan of each batch size
    for lag in (2, m - 1):
        hist = np.repeat(s_nodes[None], sweeps + 1, axis=0)  # hist[s]: the nodes after s sweeps
        moved, last = np.zeros(sweeps), sweeps
        try:
            for t in range(1, m + lag * (sweeps - 1)):
                s = np.arange(sweeps)
                s = s[(t - lag * s >= 1) & (t - lag * s < m)]
                i = t - lag * s
                x0, local = hist[s, i], _NodeObjective(space, hist[s + 1, i - 1], hist[s, i + 1], plans)
                best, _, _ = minimize_rows(local, x0, opt_tol=max(opt_tol, 1e-8), max_iter=300)  # out of budget: the best point
                hist[s + 1, i] = best
                moved[s] = np.fmax(moved[s], np.max(np.abs(best - x0), axis=1))
                ended = (t - m + 1) // lag  # the sweep whose last node ran at step t, if any
                if (t - m + 1) % lag == 0 and ended >= 0 and moved[ended] < opt_tol:
                    last = ended + 1
                    break
        except (PathError, NumericalError):
            if lag == m - 1:
                raise
            continue
        s_nodes[:] = hist[last]
        return s_nodes


def geodesic_path(
    space: GeneralizedMinkowskiSpace,
    a: HPoint,
    b: HPoint,
    m: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[Path, float]:
    """Shortest discrete path from a to b with m segments, and its length.

    Starts from the linear S-interpolation and relaxes interior nodes
    coarse-to-fine, halving the segment count while it is even and above 4
    (m = 32 runs 4, 8, 16, 32; m = 6 starts at 3; an odd m runs one level).  Smooth S
    norms use a vectorized gradient descent on the path energy; other
    norms fall back to node-wise simplex relaxation.  Every length is
    path_length's at its default Simpson rule of 4 subintervals.  The search
    is local: the infimum is taken over the basin of the initial path.
    """
    _require_spacetime(space)
    m = _check_count("m", m)
    if np.array_equal(a.s, b.s):
        return Path(space, tuple([a] * (m + 1))), 0.0
    levels = [m]
    while levels[-1] > 4 and levels[-1] % 2 == 0:
        levels.append(levels[-1] // 2)
    levels.reverse()
    ts = np.linspace(0.0, 1.0, levels[0] + 1)
    sn = a.s[None, :] + ts[:, None] * (b.s - a.s)[None, :]
    smooth = space.s_space.is_smooth
    for li, ml in enumerate(levels):
        if li > 0:
            doubled = np.empty((2 * (sn.shape[0] - 1) + 1, sn.shape[1]))
            doubled[::2] = sn
            doubled[1::2] = 0.5 * (sn[:-1] + sn[1:])
            sn = doubled
        if smooth:
            sn = _relax_gradient(space, sn, max_iter=300 if ml == m else 80)
        else:
            sn = _relax_simplex(space, sn, sweeps=8 if ml == m else 3, opt_tol=tolerances.opt_tol)
    length = float(np.sum(_chord_lengths(space, sn, _QUAD_M)))
    if not np.isfinite(length):
        raise ConvergenceError("path relaxation produced a non-finite length", best_value=length)
    return Path.from_s_nodes(space, sn), length


def geodesic_distance(
    space: GeneralizedMinkowskiSpace,
    a: HPoint,
    b: HPoint,
    m: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Length of the shortest discrete path from a to b (see geodesic_path)."""
    return geodesic_path(space, a, b, m, tolerances)[1]


def path_to_csv(path: Path) -> str:
    """CSV rows (t, S-coordinates, tau) of a discrete path."""
    k = path.space.k
    header = "t," + ",".join(f"s{i + 1}" for i in range(k)) + ",tau"
    ts = np.linspace(0.0, 1.0, path.m + 1)
    lines = [header]
    for t, node in zip(ts, path.nodes):
        cells = ["%.17g" % t] + ["%.17g" % x for x in node.s] + ["%.17g" % node.tau]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sample_pairs(space: GeneralizedMinkowskiSpace, rng, count: int, window=(0.2, 2.5), radius=1.2, attempts=None) -> list:
    """Seeded pairs (a, b) of H+ with arccosh(max(1, -[a, b]^+)) in the closed
    ``window``.  Each attempt lifts ``rng.uniform(-radius, radius, k)`` for a,
    then for b; sampling stops after ``count`` kept or ``attempts`` drawn pairs.
    Without ``attempts``, ConvergenceError once 1000 * ``count`` drawn pairs
    kept fewer than ``count``: a drawn pair's distance grows with k, so the
    chance that it falls in the window drops exponentially."""
    low, high = window
    cap = _PAIR_BUDGET * count if attempts is None else attempts
    pairs, drawn = [], 0
    while len(pairs) < count and drawn < cap:
        drawn += 1
        a = lift(space, rng.uniform(-radius, radius, space.k))
        b = lift(space, rng.uniform(-radius, radius, space.k))
        if low <= float(np.arccosh(max(1.0, -product_plus(space, a.vector, b.vector)))) <= high:
            pairs.append((a, b))
    if attempts is None and len(pairs) < count:
        raise ConvergenceError(
            f"sample_pairs: {len(pairs)} of {count} pairs in the window [{low}, {high}] "
            f"within its budget of {cap} drawn pairs"
        )
    return pairs


def cosh_residual(
    space: GeneralizedMinkowskiSpace, a: HPoint, b: HPoint, m: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """| [a, b]^+ + cosh(distance(a, b)) | -- zero in spaces whose linear
    isometries act transitively on H+ (the pseudo-Euclidean case)."""
    d = geodesic_distance(space, a, b, m, tolerances=tolerances)
    return abs(product_plus(space, a.vector, b.vector) + float(np.cosh(d)))
