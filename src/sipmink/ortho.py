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
    UnsupportedError,
)
from .minkowski import GeneralizedMinkowskiSpace, embed, product_plus
from .norms import MAX, NormSpec, SipSpace, norm, norm_batch, norm_rows, sip, sip_matrix
from .numerics import DEFAULT_TOLERANCES, Tolerances, as_seed, minimize, row_kernel


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


def birkhoff_margin(space, x, y, opt_tol: float = DEFAULT_TOLERANCES.opt_tol):
    """(min over t of |x + t y|, minimizing t).

    Works on normalized copies (the margin is scale invariant), seeding a
    one-dimensional simplex descent from a 33-point grid on [-8, 8].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = norm(space, x)
    ny = norm(space, y)
    if nx == 0.0 or ny == 0.0:
        return nx, 0.0
    xh, yh = x / nx, y / ny

    def f(t):
        return norm(space, xh + float(t) * yh)

    grid = np.linspace(-8.0, 8.0, 33)
    vals = norm_rows(space, xh[None, :] + grid[:, None] * yh[None, :])  # f on every grid point
    i0 = int(np.argmin(vals))
    t0 = float(grid[i0])
    pt, val = minimize(lambda t: f(t[0]), np.array([t0]), opt_tol=opt_tol, max_iter=500)
    best_t, best_v = float(pt[0]), float(val)
    if vals[i0] < best_v:
        best_t, best_v = t0, float(vals[i0])
    return nx * best_v, best_t * nx / ny


def relation_report(space, rel: OrthoRelation, x, y, tol: float = 1e-9) -> OrthoResult:
    """Decide one orthogonality relation and report its residual
    (and the minimizing parameter for Birkhoff)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError("vectors must share a dimension")
    if rel is OrthoRelation.ROBERTS:
        res = max(abs(norm(space, x + t * y) - norm(space, x - t * y)) for t in _ROBERTS_GRID)
        return OrthoResult(res <= tol, res)
    if rel is OrthoRelation.BIRKHOFF:
        mn, lam = birkhoff_margin(space, x, y)
        res = max(0.0, norm(space, x) - mn)
        return OrthoResult(res <= tol, res, lam)
    if rel is OrthoRelation.ISOSCELES:
        res = abs(norm(space, x + y) - norm(space, x - y))
        return OrthoResult(res <= tol, res)
    if rel is OrthoRelation.PYTHAGOREAN:
        res = abs(norm(space, x) ** 2 + norm(space, y) ** 2 - norm(space, x - y) ** 2)
        return OrthoResult(res <= tol, res)
    if rel is OrthoRelation.SINGER:
        nx, ny = norm(space, x), norm(space, y)
        if nx == 0.0 or ny == 0.0:
            return OrthoResult(True, 0.0)
        res = abs(norm(space, x / nx + y / ny) - norm(space, x / nx - y / ny))
        return OrthoResult(res <= tol, res)
    if rel is OrthoRelation.SIP:
        res = abs(sip(space, y, x))  # "y orthogonal to x" tests [y, x]
        return OrthoResult(res <= tol, res)
    raise DomainError(f"unknown relation {rel!r}")


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


def gram_matrix(product, vectors) -> np.ndarray:
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    k = len(vectors)
    G = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            G[i, j] = product(vectors[i], vectors[j])
    return G


def gram_determinant(product, vectors) -> float:
    if len(vectors) > 6:
        raise DomainError("Gram determinant limited to at most six vectors")
    return float(np.linalg.det(gram_matrix(product, vectors)))


def regular_orthogonalization(product, vectors, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Gram-Schmidt in an indefinite symmetric product.

    u_k = v_k - sum_{i<k} ([v_k, u_i] / [u_i, u_i]) u_i.  A pivot with
    (relative) zero scalar square aborts with :class:`NeutralPivotError`
    carrying the 1-based index: the leading principal Gram determinant
    vanishes there, so no regular orthogonalization exists.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    out: list[np.ndarray] = []
    squares: list[float] = []
    for i, v in enumerate(vectors):
        u = v.copy()
        for w, q in zip(out, squares):
            u = u - (product(v, w) / q) * w
        q = product(u, u)
        if abs(q) <= tolerances.eq_tol * max(1.0, float(u @ u)):
            raise NeutralPivotError(f"neutral pivot at position {i + 1}", index=i + 1)
        out.append(u)
        squares.append(q)
    return out


def _unit_vectors(norm_spec: NormSpec, thetas: np.ndarray) -> np.ndarray:
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return dirs / norm_batch(norm_spec, dirs)[:, None]


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
    if norm_spec.dim != 2:
        raise UnsupportedError("angle parametrization only covers two dimensions")
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    U = _unit_vectors(norm_spec, thetas)
    dets = np.abs(U[:, 0][:, None] * U[:, 1][None, :] - U[:, 1][:, None] * U[:, 0][None, :])
    i, j = np.unravel_index(int(np.argmax(dets)), dets.shape)

    def objective(angles):
        u = _unit_vectors(norm_spec, np.array([angles[0]]))[0]
        v = _unit_vectors(norm_spec, np.array([angles[1]]))[0]
        return -abs(u[0] * v[1] - u[1] * v[0])

    start = np.array([thetas[i], thetas[j]])
    best, _val = minimize(objective, start, opt_tol=tolerances.opt_tol, max_iter=800)
    u = _unit_vectors(norm_spec, np.array([best[0]]))[0]
    v = _unit_vectors(norm_spec, np.array([best[1]]))[0]

    slack = 10.0 * tolerances.opt_tol
    for a, b in ((u, v), (v, u)):
        mn, _ = birkhoff_margin(norm_spec, a, b, tolerances.opt_tol)
        if mn < norm(norm_spec, a) - slack:
            raise ConvergenceError("refined pair is not mutually Birkhoff orthogonal")
    return u, v


def _refine_orthogonal_angles(space: SipSpace, angles: np.ndarray) -> np.ndarray:
    """Newton-polish angles (th, ps) so that [u,v] = [v,u] = 0 (smooth norms)."""

    def fval(a):
        u = _unit_vectors(space.norm, np.array([a[0]]))[0]
        v = _unit_vectors(space.norm, np.array([a[1]]))[0]
        return np.array([sip(space, u, v), sip(space, v, u)])

    a = angles.astype(float).copy()
    h = 1e-7
    f0 = fval(a)
    for _ in range(30):
        if np.max(np.abs(f0)) < 1e-13:
            break
        J = np.empty((2, 2))
        for c in range(2):
            ap = a.copy()
            ap[c] += h
            am = a.copy()
            am[c] -= h
            J[:, c] = (fval(ap) - fval(am)) / (2 * h)
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
    """Mutually sip-orthogonal unit pair of maximal |det| in a 2-d block."""
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    U = _unit_vectors(space.norm, thetas)
    S = sip_matrix(space, U, U)
    resid = np.maximum(np.abs(S), np.abs(S.T))
    dets = np.abs(U[:, 0][:, None] * U[:, 1][None, :] - U[:, 1][:, None] * U[:, 0][None, :])
    ok = resid <= tolerances.eq_tol
    if np.any(ok):
        scored = np.where(ok, dets, -1.0)
        # ties at float level resolve to the lowest index, keeping the
        # selection canonical (axis-aligned pairs come first on the grid)
        candidates = np.argwhere(scored >= scored.max() - 1e-9)
        i, j = candidates[0]
        return U[i], U[j]
    if not space.norm.is_smooth:
        raise ConvergenceError("no product-orthogonal pair found on the angle grid")
    i, j = np.unravel_index(int(np.argmin(resid)), resid.shape)
    a = _refine_orthogonal_angles(space, np.array([thetas[i], thetas[j]]))
    u = _unit_vectors(space.norm, np.array([a[0]]))[0]
    v = _unit_vectors(space.norm, np.array([a[1]]))[0]
    if max(abs(sip(space, u, v)), abs(sip(space, v, u))) > tolerances.eq_tol:
        raise ConvergenceError("orthogonality refinement did not reach tolerance")
    return u, v


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
        others = [b for jdx, b in enumerate(basis) if jdx != idx]
        for _ in range(100):
            c = rng.uniform(-2.0, 2.0, len(others))
            w = sum(ci * bi for ci, bi in zip(c, others))
            if abs(product_plus(space, w, e)) > tolerances.eq_tol * max(1.0, float(np.max(np.abs(c)))):
                raise ConvergenceError("basis verification failed: span vector not orthogonal")
    return basis


def pythagorean_subspace_scan(norm_spec: NormSpec, resolution: int = 360):
    """Scan direction pairs for mutually Pythagorean-orthogonal lines.

    Directions are unit vectors on [0, pi); the subspace condition is
    checked on a grid of scalings of both directions.  Returns the best
    pair when its worst residual is below 1e-6, else None.
    """
    if norm_spec.dim != 2:
        raise UnsupportedError("the scan covers two-dimensional norms")
    if resolution < 90:
        raise DomainError("resolution must be at least 90")
    U = _unit_vectors(norm_spec, np.linspace(0.0, np.pi, resolution, endpoint=False))
    worst = _pythagorean_residuals(norm_spec, U)
    i, j = np.unravel_index(int(np.argmin(worst)), worst.shape)
    if worst[i, j] <= 1e-6:
        return U[i], U[j]
    return None


def _pythagorean_residuals(norm_spec: NormSpec, U: np.ndarray) -> np.ndarray:
    """worst[i, j]: the largest |lam^2 + mu^2 - |lam U[i] - mu U[j]|^2| over
    lam, mu in +-{1/4, 1/2, 1, 2}.

    (-lam, -mu) gives -D, whose norms are the same, and (mu, lam) gives
    -D.T; so 20 of the 64 scale pairs cover all, with the transpose of
    the maximum taken at the end.
    """
    n = U.shape[0]
    worst = np.zeros((n, n))
    scales = (0.25, 0.5, 1.0, 2.0)
    for a, lam in enumerate(scales):
        for mu in (s * m for m in scales[a:] for s in (1.0, -1.0)):
            D = lam * U[:, None, :] - mu * U[None, :, :]
            nd = norm_batch(norm_spec, D.reshape(-1, 2)).reshape(n, n)
            worst = np.maximum(worst, np.abs(lam * lam + mu * mu - nd * nd))
    return np.maximum(worst, worst.T)
