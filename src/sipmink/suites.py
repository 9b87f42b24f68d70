"""Named verification suites behind the ``verify`` command.

Each suite turns one slice of the library's contract into seeded residual
checks and returns rows (suite, check, passed, residual, witness).  Rows
are deterministic functions of the run configuration, so identical
configurations produce byte-identical CSV reports.

Counterexample suites have inverted expectations: there, *finding* the
violation is the passing outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import hyperboloid as hyp
from . import isometry as iso
from . import minkowski as mink
from . import ortho
from .siip import SiipSpace as _SiipSpace, cauchy_schwarz_witness as _cs_witness, siip as _siip, siip_axiom_trials
from .config import RunConfig
from .errors import NeutralPivotError, UsageError
from .norms import (
    NormSpec,
    derivative_identity_residual_rows,
    norm_rows,
    product_axiom_report,
    sip_axiom_report,
    sip_derivative_rows,
    sip_rows,
)
from .numerics import (
    DEFAULT_TOLERANCES,
    DrawStream,
    ResidualTracker,
    Seed,
    Tolerances,
    as_seed,
    as_uniform,
    central_diff_rows,
    first_diff_step,
    matvec_rows,
)

# every float the CSV and the CLI print: 17 significant digits, so values round-trip
FMT = "%.17g"


def fmt_vec(v) -> str:
    return ",".join(FMT % x for x in np.atleast_1d(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class CheckRow:
    suite: str
    check: str
    passed: bool
    residual: float
    witness: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    worst_residual: float
    witness: str
    duration: float


def _row(suite: str, check: str, passed, residual=None, witness: str = "") -> CheckRow:
    """One CSV row.  A flag check with no residual of its own reads 0.0
    when it passes and 1.0 when it fails."""
    if residual is None:
        residual = 0.0 if passed else 1.0
    return CheckRow(suite, check, passed, residual, witness)


def _tracked(suite: str, tracker: ResidualTracker, tol: float, pick: int = 0, note: str = "") -> CheckRow:
    """The row of one tracked check: the tracker's name is the check name,
    and the witness is entry ``pick`` of the worst trial, then ``note``."""
    witness = fmt_vec(tracker.witness[pick]) if tracker.witness else ""
    return _row(suite, tracker.name, tracker.residual <= tol, tracker.residual, witness + note)


def _not_applicable(suite: str, why: str = "needs a space-time model", check: str = "not_applicable") -> list[CheckRow]:
    return [_row(suite, check, True, 0.0, why)]


def _rows_from_report(suite: str, prefix: str, report, tol: float) -> list[CheckRow]:
    rows = []
    for c in report.checks:
        witness = ";".join(fmt_vec(w) if np.ndim(w) else FMT % w for w in c.witness)
        rows.append(_row(suite, f"{prefix}{c.name}", c.residual <= tol, c.residual, witness))
    return rows


def isometry_rows(prefix: str, report: iso.IsometryReport, tol: float) -> list[CheckRow]:
    """Product, adjoint and pole rows of one map's isometry report.  The pole
    row needs F e_n on the upper sheet and |[Fe_n, Fe_n]^+ + 1| <= tol."""
    return [
        _row("isometry", f"{prefix}.product", report.product_residual <= tol, report.product_residual),
        _row("isometry", f"{prefix}.adjoint", report.adjoint_residual <= tol, report.adjoint_residual),
        _row(
            "isometry",
            f"{prefix}.pole",
            report.pole_in_upper_sheet and report.pole_square_residual <= tol,
            report.pole_square_residual,
            fmt_vec(report.pole_image),
        ),
    ]


def _blocks(cfg: RunConfig):
    space = cfg.space()
    return (("s", space.s_space), ("t", space.t_space))


def suite_sip_axioms(cfg: RunConfig) -> list[CheckRow]:
    rows = []
    for name, block in _blocks(cfg):
        report = sip_axiom_report(block, Seed(cfg.seed), cfg.trials, cfg.tolerances)
        rows += _rows_from_report("sip-axioms", f"{name}.", report, cfg.tolerances.eq_tol)
        if block.is_smooth:
            # the closed form and the norm-derivative route must agree
            d = block.dim
            draws = as_seed(cfg.seed).rng().random((min(cfg.trials, 100), 2 * d))  # x, y per trial
            X, Y = as_uniform(draws[:, :d], -1.5, 1.5), as_uniform(draws[:, d:], -1.5, 1.5)
            keep = np.any(Y, axis=1)  # trials with y = 0 are skipped
            X, Y = X[keep], Y[keep]
            track = ResidualTracker(f"{name}.mode_agreement")
            track.update_rows(sip_rows(block, X, Y) - sip_derivative_rows(block, X, Y), X, Y)
            rows.append(_tracked("sip-axioms", track, cfg.tolerances.fd_tol))
    return rows


def suite_siip_axioms(cfg: RunConfig) -> list[CheckRow]:
    """Minkowski product: additivity/homogeneity in the first argument,
    homogeneity in the second, real finite squares, sampled nondegeneracy."""
    space = cfg.space()
    tol = cfg.tolerances.eq_tol
    trackers, _, _ = siip_axiom_trials(mink.BoundProduct(space, "+"), space.n, cfg.seed, cfg.trials, tol)
    return [_tracked("siip-axioms", t, tol, pick=-1) for t in trackers]


def suite_theorem2(cfg: RunConfig) -> list[CheckRow]:
    """Nested-derivative identity of the s.i.p. on the smooth S block."""
    block = cfg.s_norm()
    smooth_enough = block.kind == "euclidean" or (block.kind == "pnorm" and block.p >= 2.0)
    if not smooth_enough:
        return _not_applicable("theorem2", "norm not twice differentiable")
    # a trial draws x, z, y and, unless y = 0 (then it is skipped), the
    # length of y
    d = block.dim
    T = DrawStream(as_seed(cfg.seed).rng()).kept_trials(100, 3 * d, d, 1, -1.0, 1.0)
    X, Z, Y = (as_uniform(T[:, i * d : (i + 1) * d], -1.0, 1.0) for i in range(3))
    Y *= (as_uniform(T[:, 3 * d], 0.5, 2.0) / norm_rows(block, Y))[:, None]
    track = ResidualTracker("identity_residual")
    track.update_rows(derivative_identity_residual_rows(block, X, Y, Z), X, Y, Z)
    return [_tracked("theorem2", track, 1e-3, pick=1)]


def suite_lemma2(cfg: RunConfig) -> list[CheckRow]:
    """The auxiliary product of the configured space is itself an s.i.p."""
    space = cfg.space()
    pm = mink.BoundProduct(space, "-")
    report = product_axiom_report(pm, space.n, Seed(cfg.seed), cfg.trials, cfg.tolerances)
    closed = all(b.kind in ("euclidean", "pnorm", "max") for _, b in _blocks(cfg))
    tol = cfg.tolerances.eq_tol if closed else cfg.tolerances.fd_tol
    return _rows_from_report("lemma2", "minus.", report, tol)


def suite_cone(cfg: RunConfig) -> list[CheckRow]:
    space = cfg.space()
    report = mink.cone_convexity_check(space, Seed(cfg.seed), min(cfg.trials, 500), cfg.tolerances)
    return [
        _row("cone", check, not found, float(len(found)), fmt_vec(found[0][0]) if found else "")
        for check, found in (
            ("tplus_convexity", report.convexity_violations),
            ("classification_scaling", report.scaling_violations),
        )
    ]


def _sample_s(space, draws):
    """S-coordinates of one trial per row of a block of ``rng.random``
    draws, as ``rng.uniform(-1.2, 1.2, k)`` gives them."""
    S = as_uniform(draws, -1.2, 1.2)
    if space.s_space.kind == "max" and space.k >= 2:
        # keep away from max-norm ties, where the s.i.p. is discontinuous
        A = np.sort(np.abs(S), axis=1)
        tied = np.flatnonzero(A[:, -1] - A[:, -2] < 1e-3)
        S[tied, np.argmax(np.abs(S[tied]), axis=1)] *= 1.1
    return S


def suite_lemma3(cfg: RunConfig) -> list[CheckRow]:
    """Closed-form directional derivative of the lift against finite differences."""
    space = cfg.space()
    k = space.k
    draws = as_seed(cfg.seed).rng().random((100, 2 * k))  # s, e per trial
    S = _sample_s(space, draws[:, :k])
    E = as_uniform(draws[:, k:], -1.0, 1.0)
    keep = np.any(E, axis=1)  # trials with e = 0 are skipped
    S, E = S[keep], E[keep]
    E = E / norm_rows(space.s_space, E)[:, None]
    closed = hyp.f_directional_rows(space, S, E)
    lift_tau = lambda t: hyp.lift_rows(space, S + t[:, None] * E)[:, -1]
    fd = central_diff_rows(lift_tau, first_diff_step(norm_rows(space.s_space, S)))
    track = ResidualTracker("derivative_residual")
    track.update_rows(closed - fd, S, E)
    note = ";tie-free sampling" if space.s_space.kind == "max" else ""
    return [_tracked("lemma3", track, cfg.tolerances.fd_tol, note=note)]


def _sample_h(space, draws):
    """Points of H+ lifted from the first k draws of each row, and their S parts."""
    V = hyp.lift_rows(space, _sample_s(space, draws[:, : space.k]))
    return V, V[:, : space.k]


def suite_lemma4(cfg: RunConfig) -> list[CheckRow]:
    """Tangent vectors are the orthogonal companion: frames are orthogonal
    to the base point, and companion vectors lie in the frame span."""
    space = cfg.space()
    k, n = space.k, space.n
    V, S = _sample_h(space, as_seed(cfg.seed).rng().random((25, k)))
    frames = hyp.tangent_frame_rows(space, V)
    ortho_track = ResidualTracker("frame_orthogonality")
    span_track = ResidualTracker("companion_in_span")
    at_frames = np.repeat(V, k, axis=0)  # the base point of each frame vector
    ortho_track.update_rows(mink.product_plus_rows(space, frames.reshape(-1, n), at_frames), at_frames[:, :k])
    bases = ortho.orthogonal_companion_basis_rows(mink.BoundProduct(space, "+"), V, cfg.tolerances)
    for frame, basis, s in zip(frames, bases, S):
        for w in basis:
            _, res, _, _ = np.linalg.lstsq(frame.T, w, rcond=None)
            span_track.update(float(np.sqrt(res[0])) if res.size else 0.0, s)
    return [_tracked("lemma4", ortho_track, 10 * cfg.tolerances.eq_tol), _tracked("lemma4", span_track, 1e-8)]


def suite_theorem10(cfg: RunConfig) -> list[CheckRow]:
    """Positivity of the Minkowski square on tangent spaces of H+.  A NaN
    square fails with residual inf, as a NaN residual does."""
    space = cfg.space()
    k = space.k
    draws = as_seed(cfg.seed).rng().random((100, 2 * k))  # s, then one coefficient per companion vector
    V, S = _sample_h(space, draws)
    bases = ortho.orthogonal_companion_basis_rows(mink.BoundProduct(space, "+"), V, cfg.tolerances)
    C = as_uniform(draws[:, k:], -2.0, 2.0)
    W = sum(C[:, i, None] * bases[:, i] for i in range(k))
    keep = np.any(W, axis=1)  # trials with w = 0 are skipped
    W, S = W[keep], S[keep]
    q = mink.product_plus_rows(space, W, W)
    q[np.isnan(q)] = -np.inf
    min_square, witness = np.inf, ""
    if q.size and q.min() < np.inf:
        i = int(np.argmin(q))  # the first trial attaining the minimum
        min_square, witness = q[i], fmt_vec(S[i])
    return [_row("theorem10", "tangent_positivity", min_square > 0.0, max(0.0, -min_square), witness)]


def suite_tangent(cfg: RunConfig) -> list[CheckRow]:
    """Tangent frames: space-like vectors, consistent and linear semi-metric."""
    space = cfg.space()
    k, n = space.k, space.n
    draws = as_seed(cfg.seed).rng().random((25, k + 1))  # s, alpha per trial
    V, S = _sample_h(space, draws)
    alpha = as_uniform(draws[:, k], -2.0, 2.0)
    frames = hyp.tangent_frame_rows(space, V)
    classes = mink.classify_rows(space, frames.reshape(-1, n), cfg.tolerances.class_tol)
    failing = np.flatnonzero(~np.all((classes == mink.VectorClass.SPACE_LIKE).reshape(-1, k), axis=1))
    witness = fmt_vec(S[failing[-1]]) if failing.size else ""  # the last failing trial
    U1, U2 = frames[:, 0], frames[:, -1]
    lin = ResidualTracker("ds2_linearity")
    scaled = hyp.ds2_rows(space, V, alpha[:, None] * U1, U2, cfg.tolerances)
    lin.update_rows(scaled - alpha * hyp.ds2_rows(space, V, U1, U2, cfg.tolerances), S)
    return [
        _row("tangent", "frame_spacelike", not failing.size, witness=witness),
        _tracked("tangent", lin, 10 * cfg.tolerances.eq_tol),
    ]


def suite_geodesic_cosh(cfg: RunConfig) -> list[CheckRow]:
    """Distance vs the arccosh law.  Asserted only where the law is proved
    (pseudo-Euclidean space-time models); exploratory elsewhere."""
    space = cfg.space()
    pairs = hyp.sample_pairs(space, as_seed(cfg.seed).rng(), 3)
    asserted = space.is_pseudo_euclidean
    rows = []
    if asserted:
        a = hyp.lift(space, np.zeros(space.k))
        b = hyp.lift(space, float(np.sinh(1.0)) * np.eye(space.k)[0])
        d = hyp.geodesic_distance(space, a, b, cfg.nodes, tolerances=cfg.tolerances)
        rows.append(_row("geodesic-cosh", "unit_distance", abs(d - 1.0) <= 1e-3, abs(d - 1.0), "pole to sinh(1)"))
    worst = ResidualTracker("cosh_law" if asserted else "cosh_law_exploratory")
    for a, b in pairs:
        worst.update(hyp.cosh_residual(space, a, b, cfg.nodes, cfg.tolerances), a.s, b.s)
    tol, note = (5e-3, "") if asserted else (np.inf, ";exploratory: transitivity unknown")
    rows.append(_tracked("geodesic-cosh", worst, tol, note=note))
    return rows


def suite_isometry(cfg: RunConfig) -> list[CheckRow]:
    space = cfg.space()
    rows = []
    if space.is_spacetime_model and space.is_pseudo_euclidean:
        for phi in (0.3, 1.2):
            F = iso.lorentz_boost(space, 0, phi)
            rep = iso.isometry_report(space, F, Seed(cfg.seed), cfg.trials, cfg.tolerances)
            rows += isometry_rows("boost_" + ("%.1f" % phi).replace(".", "_"), rep, 1e-10)
        # J F^T J F = identity (the adjoint is the matrix transpose here)
        F = iso.lorentz_boost(space, 0, 1.2)
        J = mink.j_matrix(space)
        resid = float(np.max(np.abs(J @ F.T @ J @ F - np.eye(space.n))))
        rows.append(_row("isometry", "adjoint_matrix_identity", resid <= 1e-8, resid))
        # classification preserved by the boost
        V = as_uniform(as_seed(cfg.seed).rng().random((min(cfg.trials, 200), space.n)), -1.5, 1.5)
        class_tol = cfg.tolerances.class_tol
        moved = mink.classify_rows(space, matvec_rows(F, V), class_tol) != mink.classify_rows(space, V, class_tol)
        mismatches = int(np.count_nonzero(moved))
        rows.append(_row("isometry", "boost_classification", mismatches == 0, float(mismatches)))
        # a reflection through S preserves the product but leaves H+
        R = np.eye(space.n)
        R[-1, -1] = -1.0
        rep = iso.isometry_report(space, R, Seed(cfg.seed), cfg.trials, cfg.tolerances)
        rows.append(_row("isometry", "reflection_product", rep.product_residual <= cfg.tolerances.eq_tol, rep.product_residual))
        rows.append(_row("isometry", "reflection_pole_fails", not rep.pole_in_upper_sheet, 0.0, fmt_vec(rep.pole_image)))
    else:
        rows.append(_row("isometry", "boosts_not_applicable", True, 0.0, "needs a pseudo-Euclidean space-time model"))

    # smooth-norm isometries preserve the s.i.p.; rotations certify both ways
    theta = 0.7
    R2 = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    sip_res, norm_res = iso.sip_preservation_residual(NormSpec.euclidean(2), R2, Seed(cfg.seed), min(cfg.trials, 200))
    rows.append(_row("isometry", "rotation_preserves_euclidean_sip", max(sip_res, norm_res) <= 1e-9, max(sip_res, norm_res)))
    sip_res, norm_res = iso.sip_preservation_residual(NormSpec.pnorm(3.0, 2), R2, Seed(cfg.seed), min(cfg.trials, 200))
    broken = sip_res > 1e-3 and norm_res > 1e-3
    rows.append(_row("isometry", "rotation_breaks_pnorm_sip", broken, sip_res, "rotations are not p-norm isometries"))
    return rows


def _perpendicular(X):
    """(-x2, x1) for each row x of an (N, 2) array."""
    return np.stack([-X[:, 1], X[:, 0]], axis=1)


def _leading_gram_determinants(space: _SiipSpace, V):
    """|det| of the leading principal Gram matrices of the k vectors in each
    row of an (N, k, dim) array, as an (N, k) array; each as
    ``abs(ortho.gram_determinant(...))`` gives it."""
    G = ortho.gram_matrix_rows(space, V)
    return np.abs(np.stack([np.linalg.det(G[:, : m + 1, : m + 1]) for m in range(V.shape[1])], axis=1))


def suite_orthogonality(cfg: RunConfig) -> list[CheckRow]:
    rows = []
    tol = cfg.tolerances
    euclid = NormSpec.euclidean(2)
    draws = DrawStream(as_seed(cfg.seed).rng())
    # on Euclidean planes every relation agrees with perpendicularity; a
    # trial draws x and, unless x = 0 (then it is skipped), the length of y
    T = draws.kept_trials(10, 2, 2, 1, -2.0, 2.0)
    X = as_uniform(T[:, :2], -2.0, 2.0)
    Y = _perpendicular(X) * as_uniform(T[:, 2], 0.2, 2.0)[:, None]
    agree = all([np.all(ortho.relation_rows(euclid, rel, X, Y, tol.opt_tol)[0] <= 1e-6) for rel in ortho.OrthoRelation])
    rows.append(_row("orthogonality", "euclidean_agreement", agree))

    # s.i.p. orthogonality implies Birkhoff on the configured S block
    block = cfg.s_norm()
    if block.dim < 2:
        # the companion of a vector of a one-dimensional block is {0}
        rows += _not_applicable("orthogonality", "needs an S block of dimension 2 or more", "sip_implies_birkhoff")
    else:
        X = as_uniform(draws.take(10 * block.dim).reshape(10, block.dim), -1.5, 1.5)
        X = X[~(norm_rows(block, X) < 0.3)]  # short x are skipped
        Y = ortho.orthogonal_companion_basis_rows(block, X, tol)[:, 0]
        worst = ResidualTracker("sip_implies_birkhoff")
        worst.update_rows(ortho.relation_rows(block, ortho.OrthoRelation.BIRKHOFF, X, Y, tol.opt_tol)[0], X)
        rows.append(_tracked("orthogonality", worst, 1e-6))

    # homogeneity of the unitary relations; a trial draws x and, unless
    # x = 0 (then it is skipped), lam and mu
    T = draws.kept_trials(10, 2, 2, 2, -1.5, 1.5)
    X = as_uniform(T[:, :2], -1.5, 1.5)
    Y = _perpendicular(X)
    lam, mu = as_uniform(T[:, 2], 0.2, 3.0)[:, None], as_uniform(T[:, 3], -3.0, -0.2)[:, None]
    homogeneous = True
    for rel in (ortho.OrthoRelation.SIP, ortho.OrthoRelation.SINGER):
        related = ortho.relation_rows(euclid, rel, X, Y, tol.opt_tol)[0] <= 1e-8
        scaled = ortho.relation_rows(euclid, rel, lam * X, mu * Y, tol.opt_tol)[0] <= 1e-6
        homogeneous &= not np.any(related & ~scaled)
    rows.append(_row("orthogonality", "unitary_homogeneity", homogeneous))

    # regular orthogonalization in the 2+1 pseudo-Euclidean product; an
    # attempt draws three vectors and is rejected when a leading Gram
    # determinant is below 1e-2
    diag = _SiipSpace.diagonal((1, 1, -1))
    V = np.empty((0, 3, 3))
    while len(V) < 20:
        attempts = as_uniform(draws.peek(9 * 32).reshape(32, 3, 3), -2.0, 2.0)
        accepted = ~(_leading_gram_determinants(diag, attempts).min(axis=1) < 1e-2)
        needed = np.flatnonzero(accepted)[: 20 - len(V)]
        used = needed[-1] + 1 if len(needed) == 20 - len(V) else len(attempts)
        draws.take(9 * used)
        V = np.concatenate((V, attempts[:used][accepted[:used]]))
    U = ortho.regular_orthogonalization_rows(diag, V, tol)
    pair_res = ResidualTracker("gs_pairwise")
    span_res = ResidualTracker("gs_span")
    pair_res.update_rows(np.stack([diag.rows(U[:, i], U[:, j]) for i, j in ((0, 1), (0, 2), (1, 2))], axis=1).ravel())
    for us, vecs in zip(U, V):
        A = us.T
        for k in range(2):  # a third check solves a square system, for which lstsq returns no residual
            _, res, _, _ = np.linalg.lstsq(A[:, : k + 1], vecs[k], rcond=None)
            span_res.update(float(np.sqrt(res[0])) if res.size else 0.0)
    rows += [_tracked("orthogonality", pair_res, 1e-9), _tracked("orthogonality", span_res, 1e-9)]
    try:
        ortho.regular_orthogonalization(diag, [np.array([1.0, 0.0, 1.0])], tol)
        neutral_ok = False
    except NeutralPivotError as err:
        neutral_ok = err.index == 1
    rows.append(_row("orthogonality", "gs_neutral_start_raises", neutral_ok))

    # Auerbach pair of the S block (two-dimensional blocks only)
    if block.dim == 2:
        pair, mn = ortho.auerbach_pair_2d(block, tolerances=tol)
        deficiency = max(0.0, *(norm_rows(block, pair) - mn).tolist())
        rows.append(_row("orthogonality", "auerbach_mutual_birkhoff", deficiency <= 1e-5, deficiency, fmt_vec(pair[0])))

    # Pythagorean subspace scan: an inner-product exclusive
    found = ortho.pythagorean_subspace_scan(NormSpec.euclidean(2), 120)
    rows.append(_row("orthogonality", "pythagorean_scan_euclidean", found is not None))
    for name, spec in (("max", NormSpec.max_norm(2)), ("pnorm4", NormSpec.pnorm(4.0, 2))):
        found = ortho.pythagorean_subspace_scan(spec, 120)
        rows.append(_row("orthogonality", f"pythagorean_scan_{name}_empty", found is None))
    return rows


@dataclass(frozen=True)
class Counterexamples:
    """The stock negative results, each computed once for the
    ``counterexamples`` suite and the ``counterexample`` command."""

    plane_value: float  # [(1,2), (1,1)] of the weighted plane: 10/3
    plane_squares: tuple  # [u,u] and [v,v] of that pair
    plane_margin: float  # [u,v]^2 - [u,u][v,v]: 10/9
    plane_witness: tuple | None  # seeded search of the weighted plane (always Seed(3))
    max_plane_witness: tuple | None  # positive plane x3 = x2/2 of the max-norm space-time
    flat_witness: tuple | None  # flat piece of the max-norm unit sphere
    pnorm_flat_witness: tuple | None  # None: the p=3 norm is strictly convex


def stock_counterexamples(seed, tolerances: Tolerances = DEFAULT_TOLERANCES) -> Counterexamples:
    plane = _SiipSpace.weighted_plane()
    u, v = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    value = _siip(plane, u, v)
    squares = (_siip(plane, u, u), _siip(plane, v, v))
    plane_basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    max_plane = mink.BoundProduct(mink.max_norm_spacetime(), "+")
    max_basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.5])]
    return Counterexamples(
        plane_value=value,
        plane_squares=squares,
        plane_margin=value**2 - squares[0] * squares[1],
        plane_witness=_cs_witness(plane, plane_basis, Seed(3), 2000, tolerances),
        max_plane_witness=_cs_witness(max_plane, max_basis, seed, 2000, tolerances),
        flat_witness=iso.strict_convexity_witness(NormSpec.max_norm(2), seed, 2000, tolerances),
        pnorm_flat_witness=iso.strict_convexity_witness(NormSpec.pnorm(3.0, 2), seed, 2000, tolerances),
    )


def suite_counterexamples(cfg: RunConfig) -> list[CheckRow]:
    """Inverted-expectation suites: the violations must be found."""
    found = stock_counterexamples(Seed(cfg.seed), cfg.tolerances)
    value_err = abs(found.plane_value - 10.0 / 3.0)
    margin_err = abs(found.plane_margin - 10.0 / 9.0)
    cs, max_cs = found.plane_witness, found.max_plane_witness  # (u, v, margin) or None
    flat, none_found = found.flat_witness, found.pnorm_flat_witness
    return [
        _row("counterexamples", "plane_value", value_err <= 1e-12, value_err, "[(1,2),(1,1)]"),
        _row("counterexamples", "plane_margin", margin_err <= 1e-9, margin_err),
        _row(
            "counterexamples",
            "plane_witness_found",
            cs is not None and cs[2] >= 10.0 / 9.0,
            cs[2] if cs else 0.0,
            fmt_vec(cs[0]) if cs else "no violation found",
        ),
        _row(
            "counterexamples",
            "max_plane_witness_found",
            max_cs is not None,
            max_cs[2] if max_cs else 0.0,
            fmt_vec(max_cs[0]) if max_cs else "no violation found",
        ),
        _row("counterexamples", "max_norm_flat_witness", flat is not None, 0.0, fmt_vec(flat[0]) if flat else "no witness"),
        _row("counterexamples", "pnorm_strictly_convex", none_found is None, 0.0, fmt_vec(none_found[0]) if none_found else ""),
    ]


SUITES = {
    "sip-axioms": suite_sip_axioms,
    "siip-axioms": suite_siip_axioms,
    "theorem2": suite_theorem2,
    "lemma2": suite_lemma2,
    "cone": suite_cone,
    "tangent": suite_tangent,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "theorem10": suite_theorem10,
    "geodesic-cosh": suite_geodesic_cosh,
    "isometry": suite_isometry,
    "orthogonality": suite_orthogonality,
    "counterexamples": suite_counterexamples,
}


# the suites that read H+ or the time cone, which exist only for a one-dimensional T block
SPACETIME_SUITES = frozenset({"cone", "tangent", "lemma3", "lemma4", "theorem10", "geodesic-cosh"})


def iter_suites(names, cfg: RunConfig):
    """Run suites one at a time in deterministic (name-sorted for 'all')
    order, yielding (result, rows) as each finishes.  Off a space-time
    model a suite of SPACETIME_SUITES is not called: its one row reads
    not applicable."""
    if names == ["all"] or names == "all":
        names = sorted(SUITES)
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or 'all'")
    spacetime = cfg.space().is_spacetime_model
    for name in names:
        start = time.perf_counter()
        rows = SUITES[name](cfg) if spacetime or name not in SPACETIME_SUITES else _not_applicable(name)
        duration = time.perf_counter() - start
        worst = max(rows, key=lambda r: r.residual, default=None)
        failed = [r for r in rows if not r.passed]
        yield SuiteResult(
            suite=name,
            passed=not failed,
            worst_residual=worst.residual if worst else 0.0,
            witness=(failed[0].witness or failed[0].check) if failed else "",
            duration=duration,
        ), rows


def run_suites(names, cfg: RunConfig):
    """Every suite of :func:`iter_suites`, run to the end.

    Returns (results, rows)."""
    results, all_rows = [], []
    for result, rows in iter_suites(names, cfg):
        results.append(result)
        all_rows.extend(rows)
    return results, all_rows


def rows_to_csv(rows) -> str:
    """Deterministic CSV (17 significant digits, no timing columns)."""
    lines = ["suite,check,passed,residual,witness"]
    for r in rows:
        witness = r.witness.replace('"', "'")
        if any(ch in witness for ch in ",\n"):
            witness = f'"{witness}"'
        lines.append(f"{r.suite},{r.check},{str(r.passed).lower()},{FMT % r.residual},{witness}")
    return "\n".join(lines) + "\n"
