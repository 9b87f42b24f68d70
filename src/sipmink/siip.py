"""Semi-indefinite-inner-product (s.i.i.p.) constructions.

An s.i.i.p. is additive and homogeneous in its first argument,
homogeneous in the second, has real scalar squares, is nondegenerate,
and satisfies Cauchy-Schwarz only on definite subspaces.  The variants
here cover the known construction routes:

* ``cross_polytope`` -- the piecewise-linear product whose scalar square
  alternates sign with the combinatorial dimension of the supporting
  cross-polytope face;
* ``sign_function``  -- a supporting-functional product over any smooth
  norm, with a user-chosen sign on the unit sphere;
* ``normsquare_hessian`` -- one half of the Hessian quadratic form of a
  degree-2 homogeneous "normsquare" function;
* ``diagonal``       -- the classic indefinite inner product with a
  +/-1 signature;
* ``weighted_plane`` -- a product associated to the Euclidean plane norm
  that is linear in the first argument and homogeneous in the second yet
  violates Cauchy-Schwarz (definiteness alone does not give the bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstantSignError, DomainError, UnsupportedError
from .norms import NormSpec, norm_rows
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
    second_diff_step,
    span_rows,
)
from .ortho import gram_matrix

CROSS_POLYTOPE = "cross_polytope"
SIGN_FUNCTION = "sign_function"
NORMSQUARE_HESSIAN = "normsquare_hessian"
DIAGONAL = "diagonal"
WEIGHTED_PLANE = "weighted_plane"

_SUPPORT_TOL = 1e-9  # cross-polytope support: |v_i| above this fraction of max |v_j|


@dataclass(frozen=True)
class SiipSpace:
    kind: str
    dim: int
    norm_spec: NormSpec | None = None
    sign_fn: Callable[[np.ndarray], float] | None = None
    gfun: Callable[[np.ndarray], float] | None = None
    signature: tuple[int, ...] | None = None

    @classmethod
    def cross_polytope(cls, dim: int) -> "SiipSpace":
        if dim < 1:
            raise DomainError("dimension must be positive")
        return cls(CROSS_POLYTOPE, dim)

    @classmethod
    def sign_function(cls, norm_spec: NormSpec, sign_fn: Callable) -> "SiipSpace":
        if not norm_spec.is_smooth:
            raise UnsupportedError(
                "sign-function products need a smooth norm; polyhedral norms "
                "have no canonical supporting functional"
            )
        return cls(SIGN_FUNCTION, norm_spec.dim, norm_spec=norm_spec, sign_fn=sign_fn)

    @classmethod
    def normsquare_hessian(cls, gfun: Callable, dim: int) -> "SiipSpace":
        return cls(NORMSQUARE_HESSIAN, dim, gfun=gfun)

    @classmethod
    def diagonal(cls, signature) -> "SiipSpace":
        sig = tuple(int(s) for s in signature)
        if not sig or any(s not in (-1, 1) for s in sig):
            raise DomainError("signature must be a nonempty tuple of +/-1")
        return cls(DIAGONAL, len(sig), signature=sig)

    @classmethod
    def weighted_plane(cls) -> "SiipSpace":
        return cls(WEIGHTED_PLANE, 2)

    def rows(self, U, V) -> np.ndarray:
        """Row kernel of the product: ``[U[i], V[i]]`` for (N, dim) arrays."""
        return siip_rows(self, U, V)


def _sign_function_rows(space: SiipSpace, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """eps(w) |v| ell(u) of each row, w = v / |v| and ell the supporting
    functional at w: the norm's central-difference gradient at w, one partial
    per row and coordinate, rescaled so ell(w) = 1 exactly."""
    spec, n = space.norm_spec, space.dim
    nv = norm_rows(spec, V)
    W = V / nv[:, None]
    eps = row_kernel(space.sign_fn)(W)
    if not np.all((eps == 1.0) | (eps == -1.0)):
        raise DomainError("sign function must return +/-1")
    moved = lambda T: (W[:, None, :] + T[:, :, None] * np.eye(n)).reshape(-1, n)  # row i moved T[i, j] along e_j
    grad = central_diff_rows(lambda T: norm_rows(spec, moved(T)).reshape(T.shape), np.full(W.shape, first_diff_step(1.0)))
    return eps * nv * dot_rows(grad / dot_rows(grad, W)[:, None], U)


def _hessian_rows(gfun: Callable, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """1/2 u^T H(v) v of each row, H the finite-difference Hessian of G at v
    with step second_diff_step(|v|): one row call of G per entry pair and sign."""
    G, n = row_kernel(gfun), V.shape[1]
    h = second_diff_step(np.sqrt(dot_rows(V, V)))
    E = h[:, None, None] * np.eye(n)  # E[:, i] holds h e_i of each row
    H = np.empty((len(V), n, n))
    for i, j in zip(*np.triu_indices(n)):
        ei, ej = E[:, i], E[:, j]
        H[:, i, j] = H[:, j, i] = (G(V + ei + ej) - G(V + ei - ej) - G(V - ei + ej) + G(V - ei - ej)) / (4.0 * h * h)
    return dot_rows(((0.5 * U)[:, None, :] @ H)[:, 0], V)


def _cross_polytope_rows(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The cross-polytope product (-1)^(k-1) |v_S|_1 sum_{i in S} sgn(v_i) u_i
    of each row, over the support S of v (the k entries above
    ``_SUPPORT_TOL`` times max |v_i|); 0 where S is empty.

    Both sums run over every coordinate in index order with +0.0 off the
    support, which leaves each nonzero partial sum as the sum over the
    support alone gives it; a zero sum is +0.0 either way.
    """
    A = np.abs(V)
    supp = A > _SUPPORT_TOL * reduce_last(np.maximum, A)[:, None]
    count = np.count_nonzero(supp, axis=1)
    one_norm, signed = reduce_last(np.add, np.where(supp, np.stack([A, np.sign(V) * U]), 0.0))
    return np.where(count > 0, np.where(count % 2, 1.0, -1.0) * one_norm * signed, 0.0)


def siip_rows(space: SiipSpace, U, V) -> np.ndarray:
    """Row-wise s.i.i.p. ``[U[i], V[i]]`` of the given variant, for two
    (N, dim) arrays.

    Every variant runs as array code.  The sign-function and Hessian products
    raise on a row with v = 0 before the sign function or G is called.
    """
    U = check_dim(U, space.dim, rows=True)
    V = check_dim(V, space.dim, rows=True)
    if space.kind == CROSS_POLYTOPE:
        return _cross_polytope_rows(U, V)
    if space.kind == DIAGONAL:
        return reduce_last(np.add, np.array(space.signature) * U * V)  # a -0.0 sum gives +0.0, as np.sum does
    if space.kind == WEIGHTED_PLANE:
        x1, y1 = U.T
        x2, y2 = V.T
        den = x2 * x2 + 2.0 * y2 * y2
        num = (x1 * x2 + 2.0 * y1 * y2) * (x2 * x2 + y2 * y2)
        return np.divide(num, den, out=np.zeros(len(V)), where=den != 0.0)  # v = 0; homogeneity forces 0
    if not np.all(np.any(V, axis=1)):
        raise DomainError("this variant is undefined at v = 0")
    if space.kind == SIGN_FUNCTION:
        return _sign_function_rows(space, U, V)
    if space.kind == NORMSQUARE_HESSIAN:
        return _hessian_rows(space.gfun, U, V)
    raise DomainError(f"unknown variant {space.kind!r}")


def siip(space: SiipSpace, u, v) -> float:
    """Evaluate the s.i.i.p. [u, v] of the given variant: the one-row call
    of :func:`siip_rows`."""
    return float(siip_rows(space, check_dim(u, space.dim)[None], check_dim(v, space.dim)[None])[0])


def siip_axiom_trials(product, dim: int, seed, trials: int, eq_tol: float):
    """The s.i.i.p. axiom checks every product shares, over seeded samples.

    ``product`` is a function of two vectors or an object with a row kernel
    (a :class:`SiipSpace`, a bound Minkowski product).  Trial t draws x, y,
    v and lambda in that order and is skipped when v = 0.  Returns the
    trackers of additivity and homogeneity in the first argument,
    homogeneity in the second (lambda = 0 skipped), real scalar squares and
    nondegeneracy, then the x and v rows of the kept trials.  Nondegeneracy
    flags a v with |[v, v]| <= eq_tol * max(1, v.v) that annihilates every
    basis vector.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    P = row_kernel(product)
    draws = as_seed(seed).rng().random((trials, 3 * dim + 1))
    X, Y, V = (as_uniform(draws[:, i * dim : (i + 1) * dim], -1.5, 1.5) for i in range(3))
    lam = as_uniform(draws[:, 3 * dim], -3.0, 3.0)
    keep = np.any(V, axis=1)
    X, Y, V, lam = X[keep], Y[keep], V[keep], lam[keep]
    lam_col = lam[:, None]
    add = ResidualTracker("additivity_first")
    hom1 = ResidualTracker("homogeneity_first")
    hom2 = ResidualTracker("homogeneity_second")
    sqreal = ResidualTracker("square_real")
    nondeg = ResidualTracker("nondegeneracy")
    pxv = P(X, V)
    q = P(V, V)
    add.update_rows(P(X + Y, V) - pxv - P(Y, V), X, Y, V)
    hom1.update_rows(P(lam_col * X, V) - lam * pxv, lam, X, V)
    nz = lam != 0.0
    hom2.update_rows(P(X[nz], lam_col[nz] * V[nz]) - lam[nz] * pxv[nz], lam[nz], X[nz], V[nz])
    sqreal.update_rows(np.where(np.isfinite(q), 0.0, np.inf), V)
    W = V[np.abs(q) <= eq_tol * np.maximum(1.0, dot_rows(V, V))]
    degenerate = np.ones(len(W), dtype=bool)
    for b in np.eye(dim):
        degenerate &= np.abs(P(np.broadcast_to(b, W.shape), W)) <= eq_tol
    nondeg.update_rows(np.where(degenerate, 1.0, 0.0), W)
    return [add, hom1, hom2, sqreal, nondeg], X, V


def siip_axiom_report(space: SiipSpace, seed, trials: int, tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Residual report for the s.i.i.p. axioms over seeded samples: the
    checks of :func:`siip_axiom_trials`, then Cauchy-Schwarz.

    Cauchy-Schwarz is only demanded where it is promised: on sampled pairs
    (x, v), x != 0, whose two-dimensional span has constant-sign scalar
    squares.  [x, x] and [v, v] must share a sign; the symmetric bilinear
    variant then needs a positive Gram determinant, and the others a fixed
    circle of 36 combinations of x and v, all scanned in one call, on which
    no square vanishes and the signs agree.  The residuals of the variants
    built on finite differences (sign function, norm-square Hessian) are
    held to ``fd_tol``, all others to ``eq_tol``.
    """
    tol = tolerances.eq_tol
    trackers, X, V = siip_axiom_trials(space, space.dim, seed, trials, tol)
    nonzero = np.any(X, axis=1)
    X, V = X[nonzero], V[nonzero]
    qx, qv, gxv = siip_rows(space, X, X), siip_rows(space, V, V), siip_rows(space, X, V)
    definite = (qx > 0) == (qv > 0)
    if space.kind == DIAGONAL:
        definite &= qx * qv - gxv * gxv > tol
    else:
        phis = np.linspace(0.0, np.pi, 36, endpoint=False)
        cos, sin = (np.array([fn(phi) for phi in phis]) for fn in (np.cos, np.sin))  # one call per angle, as a scan takes them
        W = cos[None, :, None] * X[definite, None, :] + sin[None, :, None] * V[definite, None, :]
        live = np.any(W, axis=2)  # a zero combination is skipped
        q = siip_rows(space, W[live], W[live])
        vanishes, positive = np.zeros((2, *live.shape), dtype=bool)
        vanishes[live] = np.abs(q) <= tol * np.fmax(1.0, dot_rows(W[live], W[live]))
        positive[live] = q > 0
        signs = np.count_nonzero(positive, axis=1)
        definite[definite] = ~vanishes.any(axis=1) & live.any(axis=1) & ((signs == 0) | (signs == live.sum(axis=1)))
    cs = ResidualTracker("cauchy_schwarz_definite")
    margin = pow_rows(gxv[definite], 2.0) - qx[definite] * qv[definite]
    cs.update_rows(np.where(margin > 0.0, margin, 0.0), X[definite], V[definite])
    finite_diff = space.kind in (SIGN_FUNCTION, NORMSQUARE_HESSIAN)
    return build_report(trackers + [cs], tolerances.fd_tol if finite_diff else tol)


def cauchy_schwarz_witness(
    product,
    basis,
    seed,
    trials: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
):
    """Search span(basis) for the worst Cauchy-Schwarz violation, over
    coefficients uniform in [-2, 2].

    ``product`` is a function of two vectors or an object with a row
    kernel (a :class:`SiipSpace`, a bound Minkowski product).  The subspace
    must look definite first: if sampled scalar squares change sign (or
    vanish), raises :class:`ConstantSignError`.  Returns ``(u, v, margin)``
    with margin = [u,v]^2 - [u,u][v,v] for the first of the worst violating
    pairs, or ``None`` when no violation was sampled.
    """
    P = row_kernel(product)
    basis = [np.asarray(b, dtype=float) for b in basis]
    if not basis:
        return None
    trials = max(trials, 0)  # a non-positive count samples nothing
    rng = as_seed(seed).rng()
    nb = len(basis)

    def combine(draws):
        return span_rows(basis, as_uniform(draws, -2.0, 2.0))

    V = combine(rng.random((min(trials, 200), nb)))
    V = V[np.any(V, axis=1)]
    q = P(V, V)
    vanishes = np.abs(q) <= tolerances.eq_tol * np.maximum(1.0, dot_rows(V, V))
    flips = (q > 0) != (q[:1] > 0)
    bad = vanishes | flips
    if np.any(bad):
        if vanishes[np.argmax(bad)]:
            raise ConstantSignError("sampled scalar square vanishes on the subspace")
        raise ConstantSignError("sampled scalar squares change sign on the subspace")

    draws = rng.random((trials, 2 * nb))
    U, V = combine(draws[:, :nb]), combine(draws[:, nb:])
    keep = np.any(U, axis=1) & np.any(V, axis=1)
    U, V = U[keep], V[keep]
    margin = pow_rows(P(U, V), 2.0) - P(U, U) * P(V, V)
    violating = margin > tolerances.eq_tol
    if not np.any(violating):
        return None
    i = int(np.argmax(np.where(violating, margin, -np.inf)))  # first of the largest
    return U[i].copy(), V[i].copy(), float(margin[i])


def normsquare_check(
    gfun: Callable, seed, trials: int, dim: int = 2, tolerances: Tolerances = DEFAULT_TOLERANCES
):
    """Check the normsquare contract of G: degree-2 homogeneity, and
    convexity of sqrt(G) along sampled segments where G stays nonnegative."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    G = row_kernel(gfun)
    draws = as_seed(seed).rng().random((trials, 2 * dim + 1))  # x, y and lambda of each trial
    X, Y = as_uniform(draws[:, :dim], -2.0, 2.0), as_uniform(draws[:, dim : 2 * dim], -2.0, 2.0)
    lam = as_uniform(draws[:, 2 * dim], -3.0, 3.0)
    hom = ResidualTracker("homogeneity_degree2")
    conv = ResidualTracker("sqrt_convexity")
    hom.update_rows(G(lam[:, None] * X) - lam * lam * G(X), lam, X)
    ts = np.linspace(0.0, 1.0, 5)
    vals = G((X[:, None, :] + ts[:, None] * (Y - X)[:, None, :]).reshape(-1, dim)).reshape(trials, 5)
    ok = np.all(vals >= 0.0, axis=1)
    roots = np.sqrt(vals[ok])
    gap = roots[:, 1:-1] - 0.5 * (roots[:, :-2] + roots[:, 2:])  # at ts[1], ts[2], ts[3] of each trial
    X, Y = (np.repeat(A[ok], 3, axis=0) for A in (X, Y))
    conv.update_rows(np.where(gap > 0.0, gap, 0.0).reshape(-1), X, Y, np.tile(ts[1:-1], len(roots)))
    return build_report([hom, conv], tolerances.eq_tol)


def polarization_neutral_check(
    space: SiipSpace, basis, seed, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """True iff span(basis) is neutral: every vector has zero scalar square.

    For a real symmetric bilinear product this is equivalent (by
    polarization) to all pairwise products of basis vectors vanishing,
    which is what is checked; sampled span vectors cross-check it.
    """
    if space.kind != DIAGONAL:
        raise UnsupportedError("neutrality via polarization needs a symmetric bilinear variant")
    basis = [check_dim(b, space.dim) for b in basis]
    tol = tolerances.eq_tol
    pairwise = bool(np.all(np.abs(gram_matrix(space, basis)) <= tol))
    V = span_rows(basis, as_uniform(as_seed(seed).rng().random((32, len(basis))), -2.0, 2.0))
    sampled_zero = np.abs(siip_rows(space, V, V)) <= tol * np.maximum(1.0, dot_rows(V, V))
    if np.any(sampled_zero != pairwise):
        # cannot happen for a bilinear product; guards misuse
        raise DomainError("sampled squares disagree with the pairwise criterion")
    return pairwise
