"""Linear maps on generalized Minkowski spaces: product preservation,
the adjoint identity through the J operator, Lorentz boosts, geodesic
distance preservation, and strict-convexity witnesses.

A linear isometry of H+ preserves the Minkowski product, satisfies
F^{-1} = J F^T J (verified here in the weak sampled form
[Fv, J F w]^- = [v, J w]^-, which nondegeneracy makes equivalent), and
maps the pole e_n into H+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMapError, UnsupportedError
from .hyperboloid import as_hpoint, geodesic_distance, sample_pairs
from .minkowski import (
    GeneralizedMinkowskiSpace,
    VectorClass,
    classify,
    product_minus_rows,
    product_plus,
    product_plus_rows,
)
from .norms import MAX, NormSpec, norm_rows, sip_rows
from .numerics import DEFAULT_TOLERANCES, ResidualTracker, Tolerances, as_seed, as_uniform, matvec_rows


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a square matrix from CSV (one row per line, comma separated)."""
    try:
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rows.append([float(cell) for cell in line.split(",")])
    except (OSError, ValueError) as err:
        raise DomainError(f"cannot read matrix from {path!r}: {err}") from None
    if len({len(row) for row in rows}) > 1:
        raise DomainError(f"matrix in {path!r} has rows of unequal length")
    F = np.array(rows, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DomainError(f"matrix in {path!r} is not square: shape {F.shape}")
    return F


def require_invertible(F: np.ndarray, tol: float = DEFAULT_TOLERANCES.eq_tol) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DomainError("expected a square matrix")
    if not np.all(np.isfinite(F)):
        raise SingularMapError("matrix has non-finite entries")
    if abs(np.linalg.det(F)) <= tol:
        raise SingularMapError("matrix is numerically singular")
    return F


@dataclass(frozen=True)
class IsometryReport:
    product_residual: float
    product_witness: tuple
    adjoint_residual: float
    adjoint_witness: tuple
    pole_image: np.ndarray
    pole_class: VectorClass
    pole_last_positive: bool
    pole_square_residual: float

    @property
    def pole_in_upper_sheet(self) -> bool:
        return self.pole_class is VectorClass.TIME_LIKE and self.pole_last_positive

    def passes(self, tol: float) -> bool:
        return (
            self.product_residual <= tol
            and self.adjoint_residual <= tol
            and self.pole_in_upper_sheet
            and self.pole_square_residual <= tol
        )


def isometry_report(
    space: GeneralizedMinkowskiSpace,
    F: np.ndarray,
    seed,
    trials: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> IsometryReport:
    """Sampled residuals of the isometry conditions for a linear map F.

    (a) Minkowski product preservation |[Fv,Fw]^+ - [v,w]^+|;
    (b) the adjoint identity in its weak form |[Fv, JFw]^- - [v, Jw]^-|;
    (c) the pole condition: F e_n stays on the upper sheet.
    """
    F = require_invertible(F, tolerances.eq_tol)
    if F.shape[0] != space.n:
        raise DomainError("matrix dimension does not match the space")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = as_seed(seed).rng()
    draws = as_uniform(rng.random((trials, 2 * space.n)), -1.5, 1.5)  # v then w, per trial
    V, W = draws[:, : space.n], draws[:, space.n :]
    FV, FW = matvec_rows(F, V), matvec_rows(F, W)
    JW, JFW = W.copy(), FW.copy()
    JW[:, space.k :] *= -1.0  # j_operator on each row
    JFW[:, space.k :] *= -1.0
    prod = ResidualTracker("product")
    adj = ResidualTracker("adjoint")
    prod.update_rows(product_plus_rows(space, FV, FW) - product_plus_rows(space, V, W), V, W)
    adj.update_rows(product_minus_rows(space, FV, JFW) - product_minus_rows(space, V, JW), V, W)
    e_n = np.zeros(space.n)
    e_n[-1] = 1.0
    img = F @ e_n
    return IsometryReport(
        product_residual=prod.residual,
        product_witness=prod.witness,
        adjoint_residual=adj.residual,
        adjoint_witness=adj.witness,
        pole_image=img,
        pole_class=classify(space, img, tolerances.class_tol),
        pole_last_positive=bool(img[-1] > 0),
        pole_square_residual=abs(product_plus(space, img, img) + 1.0),
    )


def lorentz_boost(space: GeneralizedMinkowskiSpace, axis: int, rapidity: float) -> np.ndarray:
    """Hyperbolic rotation in the (axis, time) plane of a pseudo-Euclidean
    space-time model; axis indexes the S block (0-based)."""
    if not (space.is_spacetime_model and space.is_pseudo_euclidean):
        raise UnsupportedError("boosts are defined for pseudo-Euclidean space-time models")
    if not 0 <= axis < space.k:
        raise DomainError("boost axis must index the S block")
    F = np.eye(space.n)
    c, s = float(np.cosh(rapidity)), float(np.sinh(rapidity))
    last = space.n - 1
    F[axis, axis] = c
    F[axis, last] = s
    F[last, axis] = s
    F[last, last] = c
    return F


@dataclass(frozen=True)
class DistancePreservationReport:
    max_deviation: float
    pairs: tuple

    def passes(self, tol: float) -> bool:
        return self.max_deviation <= tol


def distance_preservation_check(
    space: GeneralizedMinkowskiSpace,
    F: np.ndarray,
    seed,
    pairs: int,
    m: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> DistancePreservationReport:
    """Compare geodesic distances before and after applying F to sampled
    point pairs on H+ (distance filtered to at most 3)."""
    report = isometry_report(space, F, seed, 64, tolerances)
    if not report.passes(max(tolerances.eq_tol, 1e-10)):
        raise DomainError("map fails the isometry report; distance check is meaningless")
    found = sample_pairs(space, as_seed(seed).rng(), pairs, window=(0.05, 3.0), attempts=100 * pairs)
    if not found:
        raise DomainError("could not sample point pairs in the distance window")
    details = []
    for a, b in found:
        d_ab = geodesic_distance(space, a, b, m, tolerances=tolerances)
        fa, fb = (as_hpoint(space, F @ p.vector) for p in (a, b))
        details.append((a.s, b.s, d_ab, geodesic_distance(space, fa, fb, m, tolerances=tolerances)))
    return DistancePreservationReport(max(abs(d_ab - d_f) for _, _, d_ab, d_f in details), tuple(details))


def sip_preservation_residual(space: NormSpec, F: np.ndarray, seed, trials: int):
    """(max |[Fx,Fy]-[x,y]|, max ||Fx|-|x||) over samples: a map preserving
    the (unique, smooth-norm) s.i.p. preserves the norm, and conversely."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    F = np.asarray(F, dtype=float)
    rng = as_seed(seed).rng()
    draws = as_uniform(rng.random((trials, 2 * space.dim)), -1.5, 1.5)  # x then y, per trial
    X, Y = draws[:, : space.dim], draws[:, space.dim :]
    FX = matvec_rows(F, X)
    sip_res = ResidualTracker("sip")
    norm_res = ResidualTracker("norm")
    sip_res.update_rows(sip_rows(space, FX, matvec_rows(F, Y)) - sip_rows(space, X, Y))
    norm_res.update_rows(norm_rows(space, FX) - norm_rows(space, X))
    return sip_res.residual, norm_res.residual


def strict_convexity_witness(
    space: NormSpec,
    seed,
    trials: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
):
    """Search for non-parallel x, y with [x, y] = |x||y| (an equality case
    of Cauchy-Schwarz), which certifies the norm is NOT strictly convex.

    The max norm has flat unit-sphere segments, found deterministically by
    pairing vectors that share their dominant coordinate; for strictly
    convex norms the sampled search comes up empty.  Returns the first
    witness pair (x, y) or None.
    """
    eq_slack = 1e-9
    parallel_gap = 1e-3

    def is_witness(X, Y):
        nx, ny = norm_rows(space, X), norm_rows(space, Y)
        ok = (nx != 0.0) & (ny != 0.0)
        ok &= ~(np.abs(sip_rows(space, X, Y) - nx * ny) > eq_slack)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.max(np.abs(X / nx[:, None] - Y / ny[:, None]), axis=1)
        return ok & (gap > parallel_gap)

    if space.kind == MAX and space.dim >= 2:
        x = np.zeros(space.dim)
        y = np.zeros(space.dim)
        x[0] = y[0] = 1.0
        x[1], y[1] = 0.2, 0.8
        if is_witness(x[None], y[None])[0]:
            return x, y
    rng = as_seed(seed).rng()
    draws = as_uniform(rng.random((max(trials, 0), 2 * space.dim)), -2.0, 2.0)
    X, Y = draws[:, : space.dim], draws[:, space.dim :]
    found = np.any(X, axis=1) & np.any(Y, axis=1)
    found[found] = is_witness(X[found], Y[found])
    if not np.any(found):
        return None
    i = int(np.argmax(found))
    return X[i].copy(), Y[i].copy()
