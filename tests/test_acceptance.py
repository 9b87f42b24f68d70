"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with ``pytest -s`` to see them)."""

import time

import numpy as np
import pytest

import sipmink as sk
from sipmink.cli import main
from sipmink.errors import NeutralPivotError
from sipmink.norms import product_axiom_report
from sipmink.numerics import Seed, central_diff, first_diff_step

PSEUDO21 = sk.GeneralizedMinkowskiSpace.pseudo_euclidean(2)
PSEUDO31 = sk.GeneralizedMinkowskiSpace.pseudo_euclidean(3)
REMARK = sk.max_norm_spacetime()
P3SPACE = sk.GeneralizedMinkowskiSpace.from_norms(sk.NormSpec.pnorm(3.0, 2), sk.NormSpec.euclidean(1))


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_01_weighted_plane_counterexample():
    plane = sk.SiipSpace.weighted_plane()
    u, v = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    val = sk.siip(plane, u, v)
    squares = sk.siip(plane, u, u) * sk.siip(plane, v, v)
    margin = val * val - squares
    ok = abs(val - 10.0 / 3.0) <= 1e-12 and squares == 10.0 and abs(margin - 10.0 / 9.0) <= 1e-9
    report(1, "Cauchy-Schwarz counterexample on the weighted plane", ok, f"value={val:.12f} margin={margin:.12f}")


def test_02_max_norm_positive_subspace_violation():
    start = time.perf_counter()
    pp = lambda a, b: sk.product_plus(REMARK, a, b)
    basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.5])]
    witness = sk.cauchy_schwarz_witness(pp, basis, Seed(42), 2000)
    elapsed = time.perf_counter() - start
    ok = witness is not None and witness[2] > 0 and elapsed < 1.0
    report(2, "violation found on the positive max-norm subspace", ok, f"margin={witness[2]:.4f} in {elapsed:.2f}s")


def test_03_derivative_identity():
    start = time.perf_counter()
    worst_overall = 0.0
    for p in (2.0, 3.0, 4.0):
        space = sk.NormSpec.pnorm(p, 3)
        gen = Seed(11).rng()
        for _ in range(100):
            x, z = gen.uniform(-1, 1, 3), gen.uniform(-1, 1, 3)
            y = gen.uniform(-1, 1, 3)
            if not np.any(y):
                continue
            y *= gen.uniform(0.5, 2.0) / sk.norm(space, y)
            worst_overall = max(worst_overall, sk.derivative_identity_residual(space, x, y, z))
    elapsed = time.perf_counter() - start
    ok = worst_overall <= 1e-3 and elapsed < 5.0
    report(3, "second-derivative identity for p in {2,3,4}", ok, f"worst={worst_overall:.2e} in {elapsed:.2f}s")


def test_04_sip_matches_norm_derivative():
    start = time.perf_counter()
    worst = 0.0
    families = [sk.NormSpec.euclidean(2), sk.NormSpec.pnorm(2.5, 2), sk.NormSpec.pnorm(3.0, 2), sk.NormSpec.pnorm(4.0, 2)]
    for space in families:
        gen = Seed(7).rng()
        done = 0
        while done < 200:
            x, y = gen.uniform(-2, 2, 2), gen.uniform(-2, 2, 2)
            ny = sk.norm(space, y)
            if ny < 0.1:
                continue
            done += 1
            fd = ny * central_diff(lambda t: sk.norm(space, y + t * x), 0.0, first_diff_step(ny))
            resid = abs(sk.sip(space, x, y) - fd) / max(1.0, sk.norm(space, x) * ny)
            worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 2.0
    report(4, "s.i.p. equals norm-derivative form on smooth families", ok, f"worst={worst:.2e} in {elapsed:.2f}s")


def test_05_auxiliary_product_is_sip():
    start = time.perf_counter()
    pm_e = lambda u, v: sk.product_minus(PSEUDO31, u, v)
    rep_e = product_axiom_report(pm_e, 4, Seed(42), 500)
    pm_p = lambda u, v: sk.product_minus(P3SPACE, u, v)
    rep_p = product_axiom_report(pm_p, 3, Seed(42), 500)
    elapsed = time.perf_counter() - start
    ok = rep_e.worst.residual <= 1e-9 and rep_p.worst.residual <= 1e-5 and elapsed < 3.0
    report(5, "auxiliary product satisfies the s.i.p. axioms", ok,
           f"euclid={rep_e.worst.residual:.2e} pnorm={rep_p.worst.residual:.2e} in {elapsed:.2f}s")


def test_06_time_cone_convexity():
    start = time.perf_counter()
    rep1 = sk.cone_convexity_check(PSEUDO21, Seed(42), 500)
    rep2 = sk.cone_convexity_check(REMARK, Seed(42), 500)
    elapsed = time.perf_counter() - start
    ok = rep1.passed and rep2.passed and elapsed < 1.0
    report(6, "upper time cone convex in 500 trials (both spaces)", ok, f"in {elapsed:.2f}s")


def test_07_lift_derivatives_and_tangent_spaces():
    start = time.perf_counter()
    worst_fd = 0.0
    worst_orth = 0.0
    all_spacelike = True
    for space in (PSEUDO21, P3SPACE):
        block = space.s_space
        gen = Seed(42).rng()
        for _ in range(100):
            s = gen.uniform(-1.5, 1.5, 2)
            e = gen.uniform(-1, 1, 2)
            if not np.any(e):
                continue
            e = e / sk.norm(block, e)
            f = lambda t: float(np.sqrt(1.0 + sk.sip(block, s + t * e, s + t * e)))
            fd = central_diff(f, 0.0, first_diff_step(sk.norm(block, s)))
            worst_fd = max(worst_fd, abs(sk.f_directional(space, s, e) - fd))
            v = sk.lift(space, s)
            for u in sk.tangent_frame(space, v).vectors:
                worst_orth = max(worst_orth, abs(sk.product_plus(space, u, v.vector)))
                if sk.classify(space, u) is not sk.VectorClass.SPACE_LIKE:
                    all_spacelike = False
    elapsed = time.perf_counter() - start
    ok = worst_fd <= 1e-5 and worst_orth <= 1e-8 and all_spacelike and elapsed < 5.0
    report(7, "lift derivative, tangent orthogonality, tangent positivity", ok,
           f"fd={worst_fd:.2e} orth={worst_orth:.2e} in {elapsed:.2f}s")


def test_08_distance_matches_arccosh_law():
    start = time.perf_counter()
    worst = 0.0
    pairs_done = 0
    for space, k in ((PSEUDO21, 2), (PSEUDO31, 3)):
        gen = Seed(42).rng()
        done = 0
        while done < 5:
            a = sk.lift(space, gen.uniform(-1.2, 1.2, k))
            b = sk.lift(space, gen.uniform(-1.2, 1.2, k))
            d_true = float(np.arccosh(-sk.product_plus(space, a.vector, b.vector)))
            if not 0.1 <= d_true <= 3.0:
                continue
            done += 1
            pairs_done += 1
            d = sk.geodesic_distance(space, a, b, 32)
            worst = max(worst, abs(d - d_true))
    # the reference instance: distance one, product -cosh(1)
    a = sk.lift(PSEUDO21, [0.0, 0.0])
    b = sk.lift(PSEUDO21, [np.sinh(1.0), 0.0])
    prod = sk.product_plus(PSEUDO21, a.vector, b.vector)
    exact_ok = abs(prod + np.cosh(1.0)) <= 1e-12 and abs(prod + 1.5430806348) <= 1e-9
    resid = sk.cosh_residual(PSEUDO21, a, b, 32)
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and exact_ok and resid <= 1e-3 and pairs_done == 10 and elapsed < 60.0
    report(8, "geodesic distance matches -cosh law (10 pairs, m=32)", ok,
           f"worst={worst:.2e} unit-instance={resid:.2e} in {elapsed:.1f}s")


def test_09_boosts_are_isometries():
    start = time.perf_counter()
    reports_ok = True
    for phi in (0.3, 1.2):
        F = sk.lorentz_boost(PSEUDO21, 0, phi)
        rep = sk.isometry_report(PSEUDO21, F, Seed(42), 300)
        if not (rep.product_residual <= 1e-10 and rep.adjoint_residual <= 1e-10 and rep.pole_in_upper_sheet):
            reports_ok = False
    worst_dev = 0.0
    for phi in (0.3, 1.2):
        F = sk.lorentz_boost(PSEUDO21, 0, phi)
        rep = sk.distance_preservation_check(PSEUDO21, F, Seed(42), pairs=5, m=32)
        worst_dev = max(worst_dev, rep.max_deviation)
    R = np.diag([1.0, 1.0, -1.0])
    refl = sk.isometry_report(PSEUDO21, R, Seed(42), 300)
    reflection_ok = (
        refl.product_residual <= 1e-10 and refl.adjoint_residual <= 1e-10 and not refl.pole_in_upper_sheet
    )
    elapsed = time.perf_counter() - start
    ok = reports_ok and worst_dev <= 5e-3 and reflection_ok and elapsed < 60.0
    report(9, "boosts pass the isometry law and preserve distances", ok,
           f"max-deviation={worst_dev:.2e} in {elapsed:.1f}s")


def test_10_indefinite_gram_schmidt():
    start = time.perf_counter()
    diag = sk.SiipSpace.diagonal((1, 1, -1))
    product = lambda u, v: sk.siip(diag, u, v)
    gen = Seed(42).rng()
    done = 0
    worst_pair = 0.0
    worst_span = 0.0
    while done < 50:
        vecs = [gen.uniform(-2, 2, 3) for _ in range(3)]
        if min(abs(sk.gram_determinant(product, vecs[: k + 1])) for k in range(3)) < 1e-2:
            continue
        done += 1
        out = sk.regular_orthogonalization(product, vecs)
        for i in range(3):
            for j in range(3):
                if i != j:
                    worst_pair = max(worst_pair, abs(product(out[i], out[j])))
        A = np.array(out).T
        for k in range(3):
            _, res, _, _ = np.linalg.lstsq(A[:, : k + 1], vecs[k], rcond=None)
            worst_span = max(worst_span, float(np.sqrt(res[0])) if res.size else 0.0)
    try:
        sk.regular_orthogonalization(product, [np.array([1.0, 0.0, 1.0])])
        neutral_raises = False
    except NeutralPivotError:
        neutral_raises = True
    elapsed = time.perf_counter() - start
    ok = worst_pair <= 1e-9 and worst_span <= 1e-9 and neutral_raises and elapsed < 1.0
    report(10, "regular orthogonalization on 50 admissible triples", ok,
           f"pairwise={worst_pair:.2e} span={worst_span:.2e} in {elapsed:.2f}s")


def test_11_auerbach_bases():
    start = time.perf_counter()
    basis = sk.minkowski_auerbach(REMARK, Seed(42))
    gen = Seed(42).rng()
    worst = 0.0
    for idx, e in enumerate(basis):
        others = [b for j, b in enumerate(basis) if j != idx]
        for _ in range(100):
            c = gen.uniform(-2.0, 2.0, len(others))
            w = sum(ci * bi for ci, bi in zip(c, others))
            worst = max(worst, abs(sk.product_plus(REMARK, w, e)))
    u, v = sk.auerbach_basis_2d(sk.NormSpec.max_norm(2))
    max2 = sk.NormSpec.max_norm(2)
    birkhoff_ok = True
    for x, y in ((u, v), (v, u)):
        mn, _ = sk.birkhoff_margin(max2, x, y)
        if mn < sk.norm(max2, x) - 1e-5:
            birkhoff_ok = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and birkhoff_ok and elapsed < 5.0
    report(11, "Auerbach bases: block basis orthogonal, max-norm pair Birkhoff", ok,
           f"span-residual={worst:.2e} in {elapsed:.2f}s")


def test_12_pythagorean_subspace_scan():
    start = time.perf_counter()
    found_euclid = sk.pythagorean_subspace_scan(sk.NormSpec.euclidean(2), 360)
    none_max = sk.pythagorean_subspace_scan(sk.NormSpec.max_norm(2), 360)
    none_p4 = sk.pythagorean_subspace_scan(sk.NormSpec.pnorm(4.0, 2), 360)
    elapsed = time.perf_counter() - start
    ok = found_euclid is not None and none_max is None and none_p4 is None and elapsed < 10.0
    report(12, "mutually Pythagorean lines exist only in the inner-product plane", ok, f"in {elapsed:.1f}s")


def test_13_verify_all_is_deterministic(tmp_path):
    start = time.perf_counter()
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = main(["verify", "all", "--seed", "42", "--out", str(out1)])
    code2 = main(["verify", "all", "--seed", "42", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    ok = code1 == 0 and code2 == 0 and identical
    report(13, "verify all twice: exit 0 and byte-identical CSV", ok, f"in {elapsed:.1f}s")
