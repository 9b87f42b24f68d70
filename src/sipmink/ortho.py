"""Orthogonality relations, orthogonal companions, indefinite Gram-Schmidt,
Auerbach bases, and the Pythagorean subspace scan.

Orthogonality is written ``x | y`` = "y is orthogonal to x"; relations
that test a product therefore evaluate it as [y, x].  Birkhoff
orthogonality is decided by a one-dimensional minimization of
``t -> |x + t y|`` (a convex function, so a seeded local descent is
global).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateError,
    DimensionError,
    DomainError,
    NeutralPivotError,
    NumericalError,
    UnsupportedError,
)
from .minkowski import GeneralizedMinkowskiSpace, embed, product_plus_rows
from .norms import NormSpec, SipSpace, norm_batch, norm_rows, sip_rows
from .numerics import DEFAULT_TOLERANCES, Tolerances, as_seed, as_uniform, dot_rows, minimize_rows, pow_rows
from .numerics import raise_unconverged, row_kernel, span_rows


class OrthoRelation(enum.Enum):
    ROBERTS = "roberts"
    BIRKHOFF = "birkhoff"
    ISOSCELES = "isosceles"
    PYTHAGOREAN = "pythagorean"
    SINGER = "singer"
    SIP = "sip"


_ROBERTS_GRID = [s * 2.0**j for j in range(-5, 4) for s in (1.0, -1.0)]


@dataclass(frozen=True)
class OrthoResult:
    related: bool
    residual: float
    lam: float | None = None


def birkhoff_margin_rows(space, X, Y, opt_tol: float = DEFAULT_TOLERANCES.opt_tol):
    """Row-wise :func:`birkhoff_margin` of two (N, dim) arrays: the margins
    and the minimizing parameters, as two arrays.  The simplex descents of
    all rows run in lock-step (:func:`~sipmink.numerics.minimize_rows`)."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    nx, ny = norm_rows(space, X), norm_rows(space, Y)
    margin, lam = nx.copy(), np.zeros(len(nx))
    live = (nx != 0.0) & (ny != 0.0)
    nx, ny = nx[live], ny[live]
    Xh, Yh = X[live] / nx[:, None], Y[live] / ny[:, None]
    grid = np.linspace(-8.0, 8.0, 33)
    on_grid = Xh[:, None, :] + grid[None, :, None] * Yh[:, None, :]
    vals = norm_rows(space, on_grid.reshape(-1, X.shape[1])).reshape(-1, grid.size)  # f on every grid point
    i0 = np.argmin(vals, axis=1)
    t0, v0 = grid[i0], vals[np.arange(len(i0)), i0]
    pt, best_v, converged = minimize_rows(
        lambda rows, T: norm_rows(space, Xh[rows] + T * Yh[rows]), t0[:, None], opt_tol=opt_tol, max_iter=500
    )
    raise_unconverged(pt, best_v, converged, opt_tol, 500)
    best_t = pt[:, 0]
    on_grid_better = v0 < best_v
    best_t, best_v = np.where(on_grid_better, t0, best_t), np.where(on_grid_better, v0, best_v)
    margin[live] = nx * best_v
    lam[live] = best_t * nx / ny
    return margin, lam


def birkhoff_margin(space, x, y, opt_tol: float = DEFAULT_TOLERANCES.opt_tol):
    """(min over t of |x + t y|, minimizing t).

    Works on normalized copies (the margin is scale invariant), seeding a
    one-dimensional simplex descent from a 33-point grid on [-8, 8]; the
    one-row call of :func:`birkhoff_margin_rows`.
    """
    X, Y = (np.asarray(v, dtype=float)[None] for v in (x, y))
    margin, lam = birkhoff_margin_rows(space, X, Y, opt_tol)
    return float(margin[0]), float(lam[0])


def relation_rows(space, rel: OrthoRelation, X, Y, opt_tol: float = DEFAULT_TOLERANCES.opt_tol):
    """Residuals of one orthogonality relation on the rows of two (N, dim)
    arrays, and for Birkhoff the minimizing parameters (else None); each row
    as :func:`relation_report` gives it."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise DimensionError("vectors must share a dimension")
    if rel is OrthoRelation.ROBERTS:
        tY = (np.array(_ROBERTS_GRID)[None, :, None] * Y[:, None, :]).reshape(-1, X.shape[1])
        Xg = np.repeat(X, len(_ROBERTS_GRID), axis=0)
        D = np.abs(norm_rows(space, Xg + tY) - norm_rows(space, Xg - tY)).reshape(len(X), -1)
        res = D[:, 0]
        for d in D.T[1:]:
            res = np.where(d > res, d, res)  # as max() over the grid: a later NaN never wins
        return res, None
    if rel is OrthoRelation.BIRKHOFF:
        mn, lam = birkhoff_margin_rows(space, X, Y, opt_tol)
        d = norm_rows(space, X) - mn
        return np.where(d > 0.0, d, 0.0), lam
    if rel is OrthoRelation.ISOSCELES:
        return np.abs(norm_rows(space, X + Y) - norm_rows(space, X - Y)), None
    if rel is OrthoRelation.PYTHAGOREAN:
        squares = [pow_rows(norm_rows(space, A), 2.0) for A in (X, Y, X - Y)]
        return np.abs(squares[0] + squares[1] - squares[2]), None
    if rel is OrthoRelation.SINGER:
        nx, ny = norm_rows(space, X), norm_rows(space, Y)
        live = (nx != 0.0) & (ny != 0.0)  # a zero vector is Singer orthogonal to everything
        Xh = X / np.where(live, nx, 1.0)[:, None]
        Yh = Y / np.where(live, ny, 1.0)[:, None]
        return np.where(live, np.abs(norm_rows(space, Xh + Yh) - norm_rows(space, Xh - Yh)), 0.0), None
    if rel is OrthoRelation.SIP:
        return np.abs(sip_rows(space, Y, X)), None  # "y orthogonal to x" tests [y, x]
    raise DomainError(f"unknown relation {rel!r}")


def relation_report(
    space, rel: OrthoRelation, x, y, tol: float = 1e-9, opt_tol: float = DEFAULT_TOLERANCES.opt_tol
) -> OrthoResult:
    """Decide one orthogonality relation and report its residual
    (and the minimizing parameter for Birkhoff): the one-row call of
    :func:`relation_rows`."""
    res, lam = relation_rows(space, rel, np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None], opt_tol)
    return OrthoResult(bool(res[0] <= tol), float(res[0]), None if lam is None else float(lam[0]))


def is_orthogonal(space, rel: OrthoRelation, x, y, tol: float = 1e-9) -> bool:
    return relation_report(space, rel, x, y, tol).related


def orthogonal_companion_basis_rows(product, U, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Bases of the orthogonal companions {w : product(w, u) = 0} of the rows
    u of an (N, n) array, as an (N, n - 1, n) array.

    The product must be linear in its first argument, so a companion is
    the kernel of the row functional r_i = product(e_i, u), found with one
    row-kernel call per basis vector e_i; each row's basis pivots on its
    largest entry.  Raises :class:`DegenerateError` if the functional of
    any row vanishes (nondegeneracy would be violated).
    """
    U = np.asarray(U, dtype=float)
    if not np.all(np.any(U, axis=1)):
        raise DomainError("companion of the zero vector is the whole space")
    count, n = U.shape
    P = row_kernel(product)
    R = np.empty_like(U)
    for i in range(n):
        E = np.zeros_like(U)
        E[:, i] = 1.0
        R[:, i] = P(E, U)
    rows = np.arange(count)[:, None]
    m = np.argmax(np.abs(R), axis=1)[:, None]
    pivot = R[rows, m]
    if np.any(np.abs(pivot) <= tolerances.eq_tol):
        raise DegenerateError("the product functional of u vanishes on the basis")
    slots = np.arange(n - 1)
    j = slots + (slots >= m)  # every index but the pivot, in order
    W = np.zeros((count, n - 1, n))
    W[rows, slots, j] = 1.0
    W[rows, slots, m] = -R[rows, j] / pivot
    return W


def orthogonal_companion_basis(product, u, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """The basis of :func:`orthogonal_companion_basis_rows` for one vector u,
    as a list of n - 1 vectors."""
    return list(orthogonal_companion_basis_rows(product, np.asarray(u, dtype=float)[None], tolerances)[0])


def gram_matrix_rows(product, V) -> np.ndarray:
    """Gram matrices ``G[t, i, j] = product(V[t, i], V[t, j])`` of the k
    vectors in each row of an (N, k, dim) array, as an (N, k, k) array, from
    one row-kernel call of the product."""
    V = np.asarray(V, dtype=float)
    count, k, dim = V.shape
    left = np.repeat(V, k, axis=1).reshape(-1, dim)  # V[t, i] against V[t, j], row-major in (i, j)
    right = np.tile(V, (1, k, 1)).reshape(-1, dim)
    return row_kernel(product)(left, right).reshape(count, k, k)


def gram_matrix(product, vectors) -> np.ndarray:
    """The Gram matrix of a list of vectors: the one-row call of
    :func:`gram_matrix_rows`."""
    return gram_matrix_rows(product, np.asarray(vectors, dtype=float)[None])[0]


def gram_determinant(product, vectors) -> float:
    if len(vectors) > 6:
        raise DomainError("Gram determinant limited to at most six vectors")
    return float(np.linalg.det(gram_matrix(product, vectors)))


def regular_orthogonalization_rows(product, V, tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """:func:`regular_orthogonalization` of the vectors V[i, 0], V[i, 1], ...
    of every row i of an (N, k, dim) array, as an (N, k, dim) array, with
    one row-kernel call of the product per term.  Raises
    :class:`NeutralPivotError` at the first position where the pivot of
    any row is neutral."""
    V = np.asarray(V, dtype=float)
    P = row_kernel(product)
    U = np.empty_like(V)
    Q = np.empty(V.shape[:2])
    for i in range(V.shape[1]):
        v = V[:, i]
        u = v
        for j in range(i):
            u = u - (P(v, U[:, j]) / Q[:, j])[:, None] * U[:, j]
        q = P(u, u)
        if np.any(np.abs(q) <= tolerances.eq_tol * np.fmax(1.0, dot_rows(u, u))):
            raise NeutralPivotError(f"neutral pivot at position {i + 1}", index=i + 1)
        U[:, i], Q[:, i] = u, q
    return U


def regular_orthogonalization(product, vectors, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Gram-Schmidt in an indefinite symmetric product.

    u_k = v_k - sum_{i<k} ([v_k, u_i] / [u_i, u_i]) u_i.  A pivot with
    (relative) zero scalar square aborts with :class:`NeutralPivotError`
    carrying the 1-based index: the leading principal Gram determinant
    vanishes there, so no regular orthogonalization exists.  The one-row
    call of :func:`regular_orthogonalization_rows`.
    """
    V = np.array([np.asarray(v, dtype=float) for v in vectors])
    return list(regular_orthogonalization_rows(product, V[None], tolerances)[0])


def _unit_vectors(norm_spec: NormSpec, thetas: np.ndarray) -> np.ndarray:
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return dirs / norm_batch(norm_spec, dirs)[:, None]


_DET_BLOCK = 64  # grid rows per block of a pair search: 64 x 720 doubles is 369 kB


def _abs_dets(U: np.ndarray, r: int) -> np.ndarray:
    """|det(U[i], U[j])| for the block of rows i = r, r + 1, ... and the
    columns j >= r."""
    B, C = U[r : r + _DET_BLOCK], U[r:]
    return np.abs(B[:, 0][:, None] * C[:, 1][None, :] - B[:, 1][:, None] * C[:, 0][None, :])


def _max_det_pair(U: np.ndarray, score=_abs_dets, slack: float = 0.0) -> tuple[int, int]:
    """(i, j) of the first entry, in row-major order, of a symmetric score
    matrix over the grid U that is within ``slack`` of its maximum, or of
    its first NaN; by default the score is |det(U[i], U[j])|, and the pair
    is the first maximum, as ``np.argmax`` over the full matrix gives it.

    ``score(U, r)`` gives the block of rows r, r + 1, ... and the columns
    from r on.  Entry (j, i) equals entry (i, j), so an entry left of the
    diagonal block is matched by one in an earlier row, and the first
    qualifying entry lies in the first block whose maximum qualifies.  One
    pass takes the maximum of every block; that first block is then
    computed again to find the entry.
    """
    starts = range(0, len(U), _DET_BLOCK)
    peaks = np.array([np.max(score(U, r)) for r in starts])
    top = np.max(peaks)  # NaN when some block holds one
    qualifies = (lambda s: np.isnan(s)) if np.isnan(top) else (lambda s: s >= top - slack)
    r = starts[int(np.argmax(qualifies(peaks)))]
    hit = qualifies(score(U, r))
    k = int(np.argmax(hit))
    return r + k // hit.shape[1], r + k % hit.shape[1]


def auerbach_basis_2d(
    norm_spec: NormSpec,
    grid: int = 720,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
):
    """Unit pair of maximal |det|: the vertex pair of a maximal-volume
    cross-polytope inscribed in the unit disc of the norm.

    Grid search over both angles plus a simplex refinement; the returned
    pair is post-verified to be mutually Birkhoff orthogonal.
    """
    pair, _ = auerbach_pair_2d(norm_spec, grid, tolerances)
    return pair[0], pair[1]


def auerbach_pair_2d(norm_spec: NormSpec, grid: int = 720, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """The pair of :func:`auerbach_basis_2d` as a (2, 2) array, and the
    Birkhoff margins of u against v and of v against u that verified it."""
    if norm_spec.dim != 2:
        raise UnsupportedError("angle parametrization only covers two dimensions")
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    i, j = _max_det_pair(_unit_vectors(norm_spec, thetas))

    def objective(rows, angles):  # -|det(u, v)| of every angle pair, from one _unit_vectors call
        u, v = _unit_vectors(norm_spec, angles.reshape(-1)).reshape(-1, 2, 2).transpose(1, 0, 2)
        return -np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    start = np.array([[thetas[i], thetas[j]]])
    best, best_v, converged = minimize_rows(objective, start, opt_tol=tolerances.opt_tol, max_iter=800)
    raise_unconverged(best, best_v, converged, tolerances.opt_tol, 800)
    pair = _unit_vectors(norm_spec, best[0])
    margins, _ = birkhoff_margin_rows(norm_spec, pair, pair[::-1], tolerances.opt_tol)
    if np.any(margins < norm_rows(norm_spec, pair) - 10.0 * tolerances.opt_tol):
        raise ConvergenceError("refined pair is not mutually Birkhoff orthogonal")
    return pair, margins


def _pair_products(space: SipSpace, angles: np.ndarray):
    """The unit vectors u, v at each row (th, ps) of an (m, 2) array of
    angles, as an (m, 2, 2) array, and their products [u,v] and [v,u], as an
    (m, 2) array, from one :func:`_unit_vectors` and one ``sip_rows`` call."""
    units = _unit_vectors(space.norm, angles.reshape(-1)).reshape(-1, 2, 2)
    U, V = units[:, 0], units[:, 1]
    return units, sip_rows(space, np.concatenate([U, V]), np.concatenate([V, U])).reshape(2, -1).T


def _refine_orthogonal_angles(space: SipSpace, angles: np.ndarray) -> np.ndarray:
    """Newton-polish angles (th, ps) so that [u,v] = [v,u] = 0 (smooth norms)."""
    fval = lambda a: _pair_products(space, a[None])[1][0]
    a = angles.astype(float).copy()
    h = 1e-7
    shifts = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])  # a +- h along each angle
    f0 = fval(a)
    for _ in range(30):
        if np.max(np.abs(f0)) < 1e-13:
            break
        fp, fm, gp, gm = _pair_products(space, a + shifts)[1]
        J = np.stack([fp - fm, gp - gm], axis=1) / (2 * h)
        try:
            step = np.linalg.solve(J, f0)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _damp in range(20):
            f1 = fval(a - scale * step)
            if np.max(np.abs(f1)) < np.max(np.abs(f0)):
                a = a - scale * step
                f0 = f1
                break
            scale *= 0.5
        else:
            break
    return a


def _sip_orthogonal_pair(space: SipSpace, tolerances: Tolerances, grid: int = 720):
    """Mutually sip-orthogonal unit pair of maximal |det| in a 2-d block.

    The s.i.p. is linear in its first argument, so [U[i], U[j]] is
    U[i] . R[j] with the functional R[j, k] = [e_k, U[j]], found once with
    one :func:`~sipmink.norms.sip_rows` call per basis vector; the grid of
    pairs is searched a block of rows at a time (:func:`_max_det_pair`).
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    U = _unit_vectors(space.norm, thetas)
    R = np.stack([sip_rows(space, np.broadcast_to(e, U.shape), U) for e in np.eye(2)], axis=1)

    def resid(rows, cols):  # max(|[U[i], U[j]]|, |[U[j], U[i]]|), symmetric bit for bit
        ij = U[rows, 0][:, None] * R[cols, 0][None, :] + U[rows, 1][:, None] * R[cols, 1][None, :]
        ji = R[rows, 0][:, None] * U[cols, 0][None, :] + R[rows, 1][:, None] * U[cols, 1][None, :]
        return np.maximum(np.abs(ij), np.abs(ji))

    def block(r):
        return slice(r, r + _DET_BLOCK), slice(r, None)

    def orthogonal_dets(U, r):
        return np.where(resid(*block(r)) <= tolerances.eq_tol, _abs_dets(U, r), -1.0)

    # ties within 1e-9 resolve to the lowest index, keeping the selection
    # canonical (axis-aligned pairs come first on the grid)
    i, j = _max_det_pair(U, orthogonal_dets, 1e-9)
    if resid([i], [j])[0, 0] <= tolerances.eq_tol:
        return U[i], U[j]
    if not space.norm.is_smooth:
        raise ConvergenceError("no product-orthogonal pair found on the angle grid")
    i, j = _max_det_pair(U, lambda U, r: -resid(*block(r)))  # the first least residual
    a = _refine_orthogonal_angles(space, np.array([thetas[i], thetas[j]]))
    (units,), (products,) = _pair_products(space, a[None])
    if not np.all(np.abs(products) <= tolerances.eq_tol):
        raise ConvergenceError("orthogonality refinement did not reach tolerance")
    return units[0], units[1]


def minkowski_auerbach(
    space: GeneralizedMinkowskiSpace,
    seed=0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
):
    """Auerbach basis of the full space split along the S/T blocks.

    Each block (at most two-dimensional) contributes unit vectors whose
    block products vanish mutually, so every basis vector is orthogonal
    to the span of all the others under the Minkowski product.  The
    returned basis is verified against sampled span vectors.
    """
    if space.k > 2 or space.t_dim > 2:
        raise UnsupportedError("block Auerbach search limited to two-dimensional blocks")

    def block_basis(block: SipSpace):
        if block.dim == 1:
            return [np.array([1.0])]
        u, v = _sip_orthogonal_pair(block, tolerances)
        return [u, v]

    basis = [embed(space, s=b) for b in block_basis(space.s_space)]
    basis += [embed(space, t=b) for b in block_basis(space.t_space)]

    rng = as_seed(seed).rng()
    for idx, e in enumerate(basis):
        others = basis[:idx] + basis[idx + 1 :]
        C = as_uniform(rng.random((100, len(others))), -2.0, 2.0)
        W = span_rows(others, C)
        bound = tolerances.eq_tol * np.maximum(1.0, np.max(np.abs(C), axis=1))
        if np.any(np.abs(product_plus_rows(space, W, np.broadcast_to(e, W.shape))) > bound):
            raise ConvergenceError("basis verification failed: span vector not orthogonal")
    return basis


def pythagorean_subspace_scan(norm_spec: NormSpec, resolution: int = 360):
    """Scan direction pairs for mutually Pythagorean-orthogonal lines.

    Directions are unit vectors on [0, pi).  Returns the first row-major pair
    of least worst residual |lam^2 + mu^2 - |lam U[i] - mu U[j]|^2| over lam,
    mu in +-{1/4, 1/2, 1, 2} if that is at most 1e-6, else None.  (-lam, -mu)
    gives -D and (mu, lam) the (j, i) entry, so 20 scale pairs in both
    orientations cover all 64.  They run as a cascade: the first over the
    pairs i <= j, a block of rows at a time, each later one over the pairs
    still at most 1e-6.  A maximum never rounds, and every least pair
    survives if at most 1e-6, so the pair is the full matrix's.  A
    non-finite norm raises :class:`NumericalError`.
    """
    if norm_spec.dim != 2:
        raise UnsupportedError("the scan covers two-dimensional norms")
    if resolution < 90:
        raise DomainError("resolution must be at least 90")
    U = _unit_vectors(norm_spec, np.linspace(0.0, np.pi, resolution, endpoint=False))
    scales = (0.25, 0.5, 1.0, 2.0)
    pairs = [(lam, s * m) for a, lam in enumerate(scales) for m in scales[a:] for s in (1.0, -1.0)]

    def residual(lam, mu, A, B):  # both orientations, element-wise
        nd = norm_batch(norm_spec, lam * A - mu * B), norm_batch(norm_spec, lam * B - mu * A)
        if not (np.isfinite(nd[0]).all() and np.isfinite(nd[1]).all()):
            raise NumericalError("the norm is not finite on a scaled direction pair")
        return np.maximum(*(np.abs(lam * lam + mu * mu - v * v) for v in nd))

    hits = []
    for r in range(0, len(U), _DET_BLOCK):
        block = residual(*pairs[0], U[r : r + _DET_BLOCK, None], U[None, r:])
        rows, cols = np.nonzero(block <= 1e-6)
        hits.append((rows + r, cols + r, block[rows, cols]))
    I, J, worst = (np.concatenate(k) for k in zip(*hits))
    for lam, mu in pairs[1:]:
        if len(I) == 0:
            break
        worst = np.maximum(worst, residual(lam, mu, U[I], U[J]))
        keep = worst <= 1e-6
        I, J, worst = I[keep], J[keep], worst[keep]
    if len(I) == 0:
        return None
    k = int(np.argmin(worst))
    return U[I[k]], U[J[k]]
