"""Row forms against copies of the scalar loops they replaced.

``central_diff``, the sign-function and norm-square Hessian products, the
two span checks (``polarization_neutral_check`` and the basis check of
``minkowski_auerbach``) and ``normsquare_check`` once looped over scalar
calls.  Each loop is kept here as written, and the row form must give its
values and witnesses bit for bit (compared as bytes, so a -0.0 counts) and
leave the generator at the same next draw.
"""

import importlib
import math

import numpy as np
import pytest

from sipmink import ortho
from sipmink.errors import ConvergenceError, DomainError, NumericalError
from sipmink.minkowski import GeneralizedMinkowskiSpace, embed, max_norm_spacetime, product_plus, product_plus_rows
from sipmink.norms import NormSpec, norm
from sipmink.numerics import (
    Seed,
    Tolerances,
    as_uniform,
    central_diff,
    first_diff_step,
    second_diff_step,
    span_rows,
)
from sipmink.siip import SIGN_FUNCTION, SiipSpace, normsquare_check, polarization_neutral_check, siip, siip_rows

siip_module = importlib.import_module("sipmink.siip")  # the package binds the name siip to the function

SMOOTH_NORMS = {
    "euclidean2": NormSpec.euclidean(2),
    "euclidean3": NormSpec.euclidean(3),
    "pnorm1.5": NormSpec.pnorm(1.5, 2),
    "pnorm3": NormSpec.pnorm(3.0, 2),
    "pnorm4x3": NormSpec.pnorm(4.0, 3),
    "gauge": NormSpec.custom_gauge(lambda v: float(math.hypot(v[0], 2.0 * v[1])), 2),
}


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class _KeptSeed(Seed):
    """A seed that keeps the last generator it made, so a test can read the
    draw that follows what the code under test took."""

    def rng(self):
        generator = super().rng()
        object.__setattr__(self, "generator", generator)
        return generator


def _loop_central_diff(f, t, h):
    if not h > 0:
        raise DomainError("step h must be positive")
    fp = float(f(t + h))
    if not math.isfinite(fp):
        raise NumericalError(f"non-finite value in central_diff: {fp!r}")
    fm = float(f(t - h))
    if not math.isfinite(fm):
        raise NumericalError(f"non-finite value in central_diff: {fm!r}")
    return (fp - fm) / (2.0 * h)


class TestCentralDiff:
    FUNCTIONS = {
        "cubic": lambda t: 0.3 * t**3 - 2.0 * t + 1.0,
        "exp": math.exp,
        "abs": abs,
        "sin": math.sin,
        "norm": lambda t: norm(NormSpec.pnorm(3.0, 2), np.array([1.0 + t, -0.4 + 0.5 * t])),
    }

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_matches_the_scalar_quotient(self, name):
        f = self.FUNCTIONS[name]
        rng = np.random.default_rng(11)
        for t, h in zip(rng.uniform(-2.0, 2.0, 60), 10.0 ** rng.uniform(-9.0, -1.0, 60)):
            assert _bits(central_diff(f, float(t), float(h))) == _bits(_loop_central_diff(f, float(t), float(h)))

    def test_asks_for_f_at_t_plus_h_first(self):
        asked = []
        central_diff(lambda t: asked.append(t) or t * t, 0.7, 1e-3)
        assert asked == [0.7 + 1e-3, 0.7 - 1e-3]

    @pytest.mark.parametrize("diff", [central_diff, _loop_central_diff], ids=["rows", "loop"])
    def test_stops_at_the_first_non_finite_value(self, diff):
        asked = []
        with pytest.raises(NumericalError, match="non-finite value in central_diff: inf"):
            diff(lambda t: asked.append(t) or math.inf, 0.0, 1e-3)
        assert asked == [1e-3]  # f(t-h) is not asked for
        with pytest.raises(NumericalError, match="non-finite value in central_diff: nan"):
            diff(lambda t: math.nan if t < 0 else 1.0, 0.0, 1e-3)
        with pytest.raises(DomainError, match="step h must be positive"):
            diff(math.exp, 0.0, 0.0)


def _loop_supporting_functional(norm_spec, unit_v):
    def basis(i):
        e = np.zeros(norm_spec.dim)
        e[i] = 1.0
        return e

    h = first_diff_step(1.0)
    grad = np.array(
        [
            _loop_central_diff(lambda t, i=i: norm(norm_spec, unit_v + t * basis(i)), 0.0, h)
            for i in range(norm_spec.dim)
        ]
    )
    return grad / float(grad @ unit_v)


def _loop_hessian(gfun, v):
    n = v.size
    h = second_diff_step(float(np.linalg.norm(v)))
    H = np.empty((n, n))
    E = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            ei, ej = E[i], E[j]
            val = (
                gfun(v + h * ei + h * ej)
                - gfun(v + h * ei - h * ej)
                - gfun(v - h * ei + h * ej)
                + gfun(v - h * ei - h * ej)
            ) / (4.0 * h * h)
            H[i, j] = H[j, i] = val
    return H


def _loop_siip_vector(space, u, v):
    """[u, v] of the sign-function and norm-square Hessian variants, one
    pair of vectors at a time."""
    if not np.any(v):
        raise DomainError("this variant is undefined at v = 0")
    if space.kind == SIGN_FUNCTION:
        nv = norm(space.norm_spec, v)
        unit_v = v / nv
        eps = float(space.sign_fn(unit_v))
        if eps not in (-1.0, 1.0):
            raise DomainError("sign function must return +/-1")
        ell = _loop_supporting_functional(space.norm_spec, unit_v)
        return float(eps * nv * (ell @ u))
    H = _loop_hessian(space.gfun, v)
    return float(0.5 * u @ H @ v)


def _sign_space(name):
    """A sign-function product over one of SMOOTH_NORMS; the gauge is not
    smooth to the constructor, so its space is built directly."""
    spec = SMOOTH_NORMS[name]
    sign = lambda u: 1.0 if u[-1] >= 0 else -1.0
    return SiipSpace(SIGN_FUNCTION, spec.dim, norm_spec=spec, sign_fn=sign)


class TestSupportingFunctional:
    @pytest.mark.parametrize("name", sorted(SMOOTH_NORMS))
    def test_matches_the_per_coordinate_loop(self, name):
        space = _sign_space(name)
        spec = space.norm_spec
        rng = np.random.default_rng(5)
        U, V = rng.uniform(-2.0, 2.0, (2, 40, spec.dim))
        V[:4] = np.eye(spec.dim)[np.arange(4) % spec.dim] * np.array([1.0, -1.0, 3.0, -0.5])[:, None]
        got = siip_module._sign_function_rows(space, U, V)
        for row, u, v in zip(got, U, V):
            nv = norm(spec, v)
            eps = float(space.sign_fn(v / nv))
            assert _bits(row) == _bits(eps * nv * (_loop_supporting_functional(spec, v / nv) @ u))

    @pytest.mark.parametrize("name", sorted(SMOOTH_NORMS))
    def test_the_product_matches_the_loop(self, name):
        space = _sign_space(name)
        rng = np.random.default_rng(9)
        for u, v in rng.uniform(-2.0, 2.0, (30, 2, space.dim)):
            assert _bits(siip(space, u, v)) == _bits(_loop_siip_vector(space, u, v))


class TestSiipRows:
    """The sign-function and Hessian rows against the per-row loop, on G = |x|^3,
    G = x0^2 + x1^2 - x2^2, p = 3 with a sign flip and Euclidean with sign -1."""

    SPACES = {
        "cube": SiipSpace.normsquare_hessian(lambda x: float(x @ x) ** 1.5, 3),
        "lorentz": SiipSpace.normsquare_hessian(lambda x: float(x[0] ** 2 + x[1] ** 2 - x[2] ** 2), 3),
        "square4": SiipSpace.normsquare_hessian(lambda x: float(x @ x), 4),
        "pnorm3_flip": SiipSpace.sign_function(SMOOTH_NORMS["pnorm3"], lambda u: 1.0 if u[1] >= 0 else -1.0),
        "euclidean_minus": SiipSpace.sign_function(SMOOTH_NORMS["euclidean3"], lambda u: -1.0),
        "gauge": _sign_space("gauge"),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_the_per_row_loop(self, name):
        space = self.SPACES[name]
        rng = np.random.default_rng(3)
        U, V = rng.uniform(-2.0, 2.0, (2, 300, space.dim))
        U[:10] = 0.0  # u = 0, then u = -0
        U[10:20] = -0.0
        V[20:30] *= 1e-6
        V[30:40] *= 1e4
        V[40:50] = np.eye(space.dim)[np.arange(10) % space.dim] * -2.0
        expected = [_loop_siip_vector(space, u, v) for u, v in zip(U, V)]
        assert _bits(siip_rows(space, U, V)) == _bits(expected)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_an_empty_block_gives_no_rows(self, name):
        space = self.SPACES[name]
        assert siip_rows(space, np.empty((0, space.dim)), np.empty((0, space.dim))).shape == (0,)


def _loop_span(basis, rng, count, radius):
    out = []
    for _ in range(count):
        c = rng.uniform(-radius, radius, len(basis))
        out.append(sum(ci * bi for ci, bi in zip(c, basis)))
    return np.array(out)


class TestSpanRows:
    BASES = {
        "one": [np.array([1.0, 0.0, 0.0])],
        "two": [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.5])],
        "signed_zeros": [np.array([0.0, -0.0, 2.0]), np.array([-0.0, 0.0, -1.0]), np.array([0.3, 0.0, 0.0])],
        "dense": [np.array([0.7, -1.3]), np.array([2.1, 0.4])],
        "dense3": [np.array([0.7, -1.3, 0.1]), np.array([2.1, 0.4, -0.3]), np.array([-1.1, 0.9, 1.7])],
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_matches_the_per_vector_sum(self, name):
        basis = self.BASES[name]
        rng, ref = Seed(3).rng(), Seed(3).rng()
        got = span_rows(basis, as_uniform(rng.random((50, len(basis))), -2.0, 2.0))
        assert _bits(got) == _bits(_loop_span(basis, ref, 50, 2.0))
        assert rng.random() == ref.random()


def _loop_polarization_neutral_check(space, basis, seed, tol=1e-9):
    pairwise = bool(np.all(np.abs(np.array([[siip(space, a, b) for b in basis] for a in basis])) <= tol))
    rng = Seed(seed).rng()
    for _ in range(32):
        c = rng.uniform(-2.0, 2.0, len(basis))
        v = sum(ci * bi for ci, bi in zip(c, basis))
        sampled_zero = abs(siip(space, v, v)) <= tol * max(1.0, float(v @ v))
        if sampled_zero != pairwise:
            raise DomainError("sampled squares disagree with the pairwise criterion")
    return pairwise, rng


class TestPolarizationNeutralCheck:
    # near_null is neutral to 1.5 tolerances: its gram entry fails, some sampled squares pass;
    # the steep lines fail both, the sampled squares by a relative margin of 1.5
    CASES = {
        "null_line": ((1, -1), [np.array([1.0, 1.0])]),
        "space_line": ((1, -1), [np.array([1.0, 0.0])]),
        "null_plane": ((1, 1, -1, -1), [np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0])]),
        "mixed_plane": ((1, 1, -1), [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]),
        "near_null": ((1, -1), [np.array([1.0, math.sqrt(1.0 + 1.5e-9)])]),
        "steep_time_like": ((1, -1), [100.0 * np.array([1.0, math.sqrt(1.0 + 3e-9)])]),
        "steep_space_like": ((1, -1), [100.0 * np.array([math.sqrt(1.0 + 3e-9), 1.0])]),
    }

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_scalar_loop(self, case, seed):
        signature, basis = self.CASES[case]
        space = SiipSpace.diagonal(signature)
        kept = _KeptSeed(seed)
        try:
            expected, ref = _loop_polarization_neutral_check(space, basis, seed)
        except DomainError:
            with pytest.raises(DomainError, match="sampled squares disagree"):
                polarization_neutral_check(space, basis, kept)
            return
        assert polarization_neutral_check(space, basis, kept) is expected
        assert kept.generator.random() == ref.random()

    def test_the_near_null_basis_disagrees(self):
        with pytest.raises(DomainError):
            _loop_polarization_neutral_check(SiipSpace.diagonal((1, -1)), self.CASES["near_null"][1], 1)


def _loop_basis_check(space, basis, rng, eq_tol):
    """The former check; returns (w, [w, e]^+, max(1, max|c|)) of every
    sample, in draw order."""
    samples = []
    for idx, e in enumerate(basis):
        others = [b for jdx, b in enumerate(basis) if jdx != idx]
        for _ in range(100):
            c = rng.uniform(-2.0, 2.0, len(others))
            w = sum(ci * bi for ci, bi in zip(c, others))
            samples.append((w, product_plus(space, w, e), max(1.0, float(np.max(np.abs(c))))))
            if abs(samples[-1][1]) > eq_tol * samples[-1][2]:
                raise ConvergenceError("basis verification failed: span vector not orthogonal")
    return samples


class TestAuerbachBasisCheck:
    SPACES = {
        "euclidean": GeneralizedMinkowskiSpace.pseudo_euclidean(2),
        "pnorm3": GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1)),
        "max": max_norm_spacetime(),
        "dim1": GeneralizedMinkowskiSpace.pseudo_euclidean(1),
        "two_by_two": GeneralizedMinkowskiSpace(NormSpec.pnorm(4.0, 2), NormSpec.euclidean(2)),
    }
    # an S pair 1e-8 off orthogonal makes the products small but nonzero
    TILTED = (np.array([1.0, 0.0]), np.array([math.sin(1e-8), math.cos(1e-8)]))

    @staticmethod
    def _recorded(monkeypatch):
        """The span vectors and products of every ``product_plus_rows`` call in ortho."""
        calls = []

        def product_rows(space, W, E):
            out = product_plus_rows(space, W, E)
            calls.append((np.array(W), out))
            return out

        monkeypatch.setattr(ortho, "product_plus_rows", product_rows)
        return calls

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_the_scalar_loop(self, monkeypatch, name, seed):
        space = self.SPACES[name]
        calls = self._recorded(monkeypatch)
        kept = _KeptSeed(seed)
        basis = ortho.minkowski_auerbach(space, kept)
        ref = Seed(seed).rng()
        samples = _loop_basis_check(space, basis, ref, 1e-9)  # passes, as the row check did
        assert len(calls) == len(basis)  # one call of 100 span vectors per basis vector
        assert _bits(np.concatenate([W for W, _ in calls])) == _bits([w for w, _, _ in samples])
        assert kept.generator.random() == ref.random()

    def test_tilted_span_vectors_and_products_match_the_loop(self, monkeypatch):
        space = self.SPACES["euclidean"]
        monkeypatch.setattr(ortho, "_sip_orthogonal_pair", lambda block, tolerances: self.TILTED)
        calls = self._recorded(monkeypatch)
        basis = ortho.minkowski_auerbach(space, Seed(23), Tolerances(eq_tol=1e-7))
        samples = _loop_basis_check(space, basis, Seed(23).rng(), 1e-7)
        assert _bits(np.concatenate([W for W, _ in calls])) == _bits([w for w, _, _ in samples])
        assert _bits(np.concatenate([p for _, p in calls])) == _bits([p for _, p, _ in samples])

    def test_decides_as_the_loop_at_every_tolerance(self, monkeypatch):
        # at seed 23 the largest coefficient of both S checks is a T one, so a bound on the
        # block's largest |c| instead of each row's would pass at 0.999 times the largest ratio
        space = self.SPACES["euclidean"]
        monkeypatch.setattr(ortho, "_sip_orthogonal_pair", lambda block, tolerances: self.TILTED)
        basis = [embed(space, s=b) for b in self.TILTED] + [embed(space, t=[1.0])]
        samples = _loop_basis_check(space, basis, Seed(23).rng(), math.inf)
        ratios = sorted({abs(p) / m for _, p, m in samples})[-6:]
        assert ratios[-1] > 0.0
        for eq_tol in [r * f for r in ratios for f in (0.5, 0.999, 1.0 - 2e-16, 1.0, 1.0 + 2e-16)]:
            try:
                _loop_basis_check(space, basis, Seed(23).rng(), eq_tol)
                expected = None
            except ConvergenceError as err:
                expected = str(err)
            try:
                got = [b.tolist() for b in ortho.minkowski_auerbach(space, Seed(23), Tolerances(eq_tol=eq_tol))]
            except ConvergenceError as err:
                got = str(err)
            assert got == ([b.tolist() for b in basis] if expected is None else expected)


def _loop_normsquare_check(gfun, seed, trials, dim=2, eq_tol=1e-9):
    rng = Seed(seed).rng()
    hom, conv = [0.0, ()], [0.0, ()]

    def update(tracker, residual, *witness):
        residual = abs(float(residual))
        if math.isnan(residual):
            residual = math.inf
        if residual > tracker[0]:
            tracker[:] = [residual, witness]

    for _ in range(trials):
        x = rng.uniform(-2.0, 2.0, dim)
        y = rng.uniform(-2.0, 2.0, dim)
        lam = float(rng.uniform(-3.0, 3.0))
        update(hom, gfun(lam * x) - lam * lam * gfun(x), lam, x)
        ts = np.linspace(0.0, 1.0, 5)
        pts = [x + t * (y - x) for t in ts]
        vals = [gfun(p) for p in pts]
        if all(v >= 0.0 for v in vals):
            roots = np.sqrt(vals)
            for i in range(1, len(ts) - 1):
                update(conv, max(0.0, roots[i] - 0.5 * (roots[i - 1] + roots[i + 1])), x, y, ts[i])
    return [("homogeneity_degree2", *hom), ("sqrt_convexity", *conv)], rng


class TestNormsquareCheck:
    GFUNS = {
        "square": (lambda x: float(x @ x), 2),
        "lorentz": (lambda x: float(x[0] ** 2 - x[1] ** 2), 2),
        "pnorm3": (lambda x: float(norm(NormSpec.pnorm(3.0, 2), x) ** 2), 2),
        "cubic": (lambda x: float(x[0] ** 3 + x[1] * x[1]), 2),  # not homogeneous, often negative
        "nan_off_ball": (lambda x: float(x @ x) if x @ x < 3.0 else math.nan, 2),
        "signature3": (lambda x: float(x[0] ** 2 + x[1] ** 2 - 0.5 * x[2] ** 2), 3),
    }

    @pytest.mark.parametrize("seed", [2, 42])
    @pytest.mark.parametrize("name", sorted(GFUNS))
    def test_matches_the_scalar_loop(self, name, seed):
        gfun, dim = self.GFUNS[name]
        kept = _KeptSeed(seed)
        report = normsquare_check(gfun, kept, 150, dim)
        expected, ref = _loop_normsquare_check(gfun, seed, 150, dim)
        for check, (check_name, residual, witness) in zip(report.checks, expected):
            assert (check.name, _bits(check.residual)) == (check_name, _bits(residual))
            assert check.passed == (residual <= 1e-9)
            assert [_bits(w) for w in check.witness] == [_bits(w) for w in witness]
        assert kept.generator.random() == ref.random()
