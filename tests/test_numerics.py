import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sipmink.errors import ConvergenceError, DomainError, NumericalError, PathError
from sipmink.hyperboloid import _segment_lengths
from sipmink.minkowski import max_norm_spacetime
from sipmink.numerics import (
    DrawStream,
    Seed,
    Tolerances,
    as_uniform,
    central_diff,
    integrate,
    minimize,
    minimize_rows,
    raise_unconverged,
    sample_vectors,
    second_diff,
)

from references import reference_minimize


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.eq_tol == 1e-9 and tol.fd_tol == 1e-5
        assert tol.opt_tol == 1e-7 and tol.class_tol == 1e-9

    def test_positive_required(self):
        with pytest.raises(DomainError):
            Tolerances(eq_tol=0.0)

    def test_fd_dominates_eq(self):
        with pytest.raises(DomainError):
            Tolerances(eq_tol=1e-3, fd_tol=1e-4)

    @pytest.mark.parametrize("class_tol", [1.0, 2.5, float("inf"), float("nan")])
    def test_class_band_below_one(self, class_tol):
        # |[v,v]^+| <= [v,v]^-, so a band of 1 calls every vector light-like
        with pytest.raises(DomainError):
            Tolerances(class_tol=class_tol)
        assert Tolerances(class_tol=0.999).class_tol == 0.999


class TestCentralDiff:
    def test_quadratic_exact(self):
        assert central_diff(lambda t: t * t, 1.0, 1e-5) == pytest.approx(2.0, abs=1e-9)

    def test_abs_at_zero(self):
        assert central_diff(abs, 0.0, 1e-5) == 0.0

    def test_exp_against_analytic(self):
        assert central_diff(math.exp, 0.0, 1e-5) == pytest.approx(1.0, abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            central_diff(lambda t: float("nan"), 0.0, 1e-5)

    @given(
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        c=st.floats(-10, 10),
        t=st.floats(-5, 5),
    )
    def test_polynomials_up_to_degree_two(self, a, b, c, t):
        # symmetric differences are exact on quadratics up to rounding
        d = central_diff(lambda s: a * s * s + b * s + c, t, 1e-4)
        assert d == pytest.approx(2 * a * t + b, abs=1e-6 * max(1.0, abs(a), abs(b), abs(c)))


class TestSecondDiff:
    def test_quadratic(self):
        assert second_diff(lambda t: t * t, 0.0, 1e-4) == pytest.approx(2.0, abs=1e-6)

    def test_affine(self):
        for t in (-2.0, 0.0, 1.5):
            assert second_diff(lambda s: 3.0 * s - 1.0, t, 1e-4) == pytest.approx(0.0, abs=1e-7)

    def test_quartic_against_analytic(self):
        assert second_diff(lambda t: t**4, 1.0, 1e-4) == pytest.approx(12.0, abs=1e-4)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: 1.0, 0.0, 1.0, 4) == pytest.approx(1.0, abs=1e-15)

    def test_simpson_exact_for_cubics(self):
        assert integrate(lambda t: t * t, 0.0, 1.0, 8) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert integrate(lambda t: t**3 - 2 * t, -1.0, 2.0, 2) == pytest.approx(0.75, abs=1e-12)

    def test_cosh(self):
        assert integrate(math.cosh, 0.0, 1.0, 64) == pytest.approx(math.sinh(1.0), abs=1e-8)

    def test_odd_subdivision_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda t: t, 0.0, 1.0, 3)


class TestMinimize:
    def test_quadratic_bowl(self):
        _, val = minimize(lambda x: float(x @ x), np.array([1.0, 1.0]))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_shifted_argmin(self):
        pt, _ = minimize(lambda x: (x[0] - 3) ** 2 + (x[1] + 2) ** 2, np.array([0.0, 0.0]))
        assert pt == pytest.approx([3.0, -2.0], abs=1e-5)

    def test_max_norm_section_against_grid_oracle(self):
        # independent oracle: exhaustive scan of t -> |(1,0) + t (1,1)|_inf
        f = lambda t: max(abs(1 + t), abs(t))
        grid = np.linspace(-2.0, 2.0, 4001)
        oracle_val = min(f(t) for t in grid)
        oracle_arg = float(grid[int(np.argmin([f(t) for t in grid]))])
        assert oracle_val == pytest.approx(0.5, abs=1e-12)
        assert oracle_arg == pytest.approx(-0.5, abs=1e-3)
        pt, val = minimize(lambda x: f(float(x[0])), np.array([0.0]))
        assert val == pytest.approx(oracle_val, abs=1e-7)
        assert pt[0] == pytest.approx(-0.5, abs=1e-6)

    def test_translation_invariance(self):
        f = lambda x: (x[0] - 1.0) ** 2 + 0.5 * (x[1] + 0.5) ** 2
        c = np.array([0.7, -0.3])
        p1, _ = minimize(f, np.array([0.0, 0.0]))
        p2, _ = minimize(lambda x: f(x - c), np.array([0.0, 0.0]) + c)
        assert p2 - c == pytest.approx(p1, abs=1e-6)

    def test_determinism(self):
        f = lambda x: math.sin(x[0]) + x[0] ** 2
        a = minimize(f, np.array([2.0]))
        b = minimize(f, np.array([2.0]))
        assert a[0][0] == b[0][0] and a[1] == b[1]

    def test_budget_exhaustion_carries_best(self):
        with pytest.raises(ConvergenceError) as err:
            minimize(lambda x: float(x @ x), np.array([5.0, 5.0]), max_iter=3)
        assert err.value.best_point is not None
        assert err.value.best_value is not None


def _two_segment_max_objective():
    """The node-wise local objective of the max-norm geodesic relaxation."""
    space = max_norm_spacetime()
    lo, hi = np.array([0.3673, -0.8078]), np.array([-0.2391, 0.2903])

    def local(sv):
        L = _segment_lengths(space, np.array([lo, sv]), np.array([sv - lo, hi - sv]), 4)
        return float(np.sum(L * L))

    return local


REFERENCE_OBJECTIVES = pytest.mark.parametrize(
    "f, x0",
    [
        (lambda x: float(x @ x), [1.0, 1.0]),
        (lambda x: max(abs(1 + x[0]), abs(x[0])), [0.0]),
        (_two_segment_max_objective(), [0.1, -0.3]),
    ],
    ids=["quadratic-bowl", "max-norm-section", "two-segment-max"],
)


class TestMinimizeMatchesReference:
    @REFERENCE_OBJECTIVES
    def test_same_point_and_value(self, f, x0):
        pt, val = minimize(f, np.array(x0), opt_tol=1e-8, max_iter=300)
        ref_pt, ref_val = reference_minimize(f, np.array(x0), opt_tol=1e-8, max_iter=300)
        assert np.array_equal(pt, ref_pt) and val == ref_val

    @REFERENCE_OBJECTIVES
    def test_budget_exhaustion_carries_the_same_best(self, f, x0):
        with pytest.raises(ConvergenceError) as err:
            minimize(f, np.array(x0), max_iter=5)
        with pytest.raises(ConvergenceError) as ref:
            reference_minimize(f, np.array(x0), max_iter=5)
        assert np.array_equal(err.value.best_point, ref.value.best_point)
        assert err.value.best_value == ref.value.best_value

    @pytest.mark.parametrize(
        "f",
        [lambda x: float("nan"), lambda x: float(x @ x) if x[0] > 0.9 else math.nan],
        ids=["at-start", "mid-descent"],
    )
    def test_nan_objective_raises(self, f):
        with pytest.raises(NumericalError):
            reference_minimize(f, np.array([1.0, 1.0]))
        with pytest.raises(NumericalError):
            minimize(f, np.array([1.0, 1.0]))

    def test_nan_at_a_later_vertex_stops_where_the_reference_stops(self):
        # the second vertex of the start simplex gives NaN and the third inf:
        # the NaN is reported, and the third vertex is never evaluated
        def recorded(calls):
            def f(x):
                calls.append(x.copy())
                return math.nan if x[0] > 1.0 else (math.inf if x[1] > 1.0 else float(x @ x))
            return f

        got, ref = [], []
        with pytest.raises(NumericalError) as err:
            minimize(recorded(got), np.array([1.0, 1.0]))
        with pytest.raises(NumericalError) as ref_err:
            reference_minimize(recorded(ref), np.array([1.0, 1.0]))
        assert str(err.value) == str(ref_err.value) == "non-finite value in minimize: nan"
        assert len(got) == len(ref) == 2 and all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_zero_length_start(self):
        f = lambda x: 2.5 + float(np.sum(x))
        pt, val = minimize(f, np.zeros(0))
        ref_pt, ref_val = reference_minimize(f, np.zeros(0))
        assert pt.shape == ref_pt.shape == (0,) and val == ref_val == 2.5


def _row_objective(problems, calls=None):
    """The ``minimize_rows`` objective of a list of scalar objectives; each
    call's problem indices are appended to ``calls``."""

    def f(rows, P):
        if calls is not None:
            calls.append(rows.tolist())
        return np.array([problems[i](p) for i, p in zip(rows.tolist(), P)])

    return f


def _shifted_bowl(c, a=1.0):
    return lambda x: float(a * np.sum(np.abs(x - c) ** 1.5) + math.sin(x[0]))


ROW_PROBLEMS = {
    "1-d": (
        [_shifted_bowl(np.array([c]), a) for c, a in ((0.3, 1.0), (-4.0, 0.5), (25.0, 2.0), (0.0, 3.0), (-0.7, 1.0))]
        + [lambda x: max(abs(1 + x[0]), abs(x[0])), lambda x: abs(x[0] - 2.5)],
        [[0.0], [1.0], [-3.0], [0.0], [2.0], [0.0], [-8.0]],
    ),
    "2-d": (
        [_shifted_bowl(np.array([1.0, -2.0])), _shifted_bowl(np.array([30.0, 4.0]), 0.2), lambda x: float(x @ x),
         _two_segment_max_objective(),
         # a staircase: equal values send the contraction to either side
         lambda x: float(np.floor(abs(x[0]) * 8) + np.floor(abs(x[1] + 0.5) * 8))],
        [[0.0, 0.0], [-1.0, 2.0], [1.0, 1.0], [0.1, -0.3], [1.0, 1.0]],
    ),
}


class TestMinimizeRows:
    """Lock-step descents against :func:`minimize` and the reference, row by row."""

    @pytest.mark.parametrize("name", sorted(ROW_PROBLEMS))
    def test_rows_match_minimize(self, name):
        problems, X0 = ROW_PROBLEMS[name]
        calls = []
        P, V, converged = minimize_rows(_row_objective(problems, calls), np.array(X0), opt_tol=1e-8, max_iter=500)
        assert converged.all()
        for i, (f, x0) in enumerate(zip(problems, X0)):
            pt, val = minimize(f, np.array(x0), opt_tol=1e-8, max_iter=500)
            ref_pt, ref_val = reference_minimize(f, np.array(x0), opt_tol=1e-8, max_iter=500)
            assert np.array_equal(P[i], pt) and V[i] == val
            assert np.array_equal(P[i], ref_pt) and V[i] == ref_val
        last_call = [max(k for k, rows in enumerate(calls) if i in rows) for i in range(len(problems))]
        assert len(set(last_call)) > 2  # rows leave the batch at different iterations

    def test_budget_exhaustion_carries_the_first_failing_rows_best(self):
        # rows 0 and 2 converge within 50 iterations, rows 1 and 3 do not
        problems = [(lambda x, c=c: float((x[0] - c) ** 2)) for c in (1.0, 1e6, 3.0, 1e9)]
        P, V, converged = minimize_rows(_row_objective(problems), np.zeros((4, 1)), max_iter=50)
        assert converged.tolist() == [True, False, True, False]
        for i, f in enumerate(problems):
            if converged[i]:
                pt, val = minimize(f, np.zeros(1), max_iter=50)
            else:
                with pytest.raises(ConvergenceError) as err:
                    minimize(f, np.zeros(1), max_iter=50)
                pt, val = err.value.best_point, err.value.best_value
            assert np.array_equal(P[i], pt) and V[i] == val

    def test_raise_unconverged_carries_the_first_failing_rows_best(self):
        problems = [(lambda x, c=c: float((x[0] - c) ** 2)) for c in (1.0, 1e6, 3.0, 1e9)]
        P, V, converged = minimize_rows(_row_objective(problems), np.zeros((4, 1)), max_iter=50)
        raise_unconverged(P[::2], V[::2], converged[::2], 1e-7, 50)  # rows 0 and 2 converged
        with pytest.raises(ConvergenceError, match=r"^simplex diameter did not reach 1e-07 in 50 iterations \(row 1\)$") as err:
            raise_unconverged(P, V, converged, 1e-7, 50)
        assert np.array_equal(err.value.best_point, P[1]) and err.value.best_value == V[1]
        with pytest.raises(ConvergenceError, match=r"^simplex diameter did not reach 1e-07 in 50 iterations$") as err:
            raise_unconverged(P[3:], V[3:], converged[3:], 1e-7, 50)  # one row: not named
        assert np.array_equal(err.value.best_point, P[3]) and err.value.best_value == V[3]

    @pytest.mark.parametrize("budget", [70, 85])
    def test_mixed_batch_keeps_the_reference_best_of_the_row_out_of_budget(self, budget):
        # the node-wise geodesic objective needs 90 iterations, the bowl 64
        # and the staircase 43
        problems, X0 = ROW_PROBLEMS["2-d"]
        problems, X0 = [problems[2], problems[3], problems[4]], [X0[2], X0[3], X0[4]]
        P, V, converged = minimize_rows(_row_objective(problems), np.array(X0), opt_tol=1e-8, max_iter=budget)
        assert converged.tolist() == [True, False, True]
        with pytest.raises(ConvergenceError) as ref:
            reference_minimize(problems[1], np.array(X0[1]), opt_tol=1e-8, max_iter=budget)
        assert np.array_equal(P[1], ref.value.best_point) and V[1] == ref.value.best_value
        for i in (0, 2):
            pt, val = reference_minimize(problems[i], np.array(X0[i]), opt_tol=1e-8, max_iter=budget)
            assert np.array_equal(P[i], pt) and V[i] == val

    @pytest.mark.parametrize("at", ["start", "mid-descent"])
    def test_non_finite_value_raises(self, at):
        bowl = lambda x: float(x @ x)
        bad = (lambda x: math.nan) if at == "start" else (lambda x: float(x @ x) if x[0] > 0.9 else math.nan)
        with pytest.raises(NumericalError):
            minimize(bad, np.array([1.0, 1.0]))
        with pytest.raises(NumericalError):
            minimize_rows(_row_objective([bowl, bad]), np.ones((2, 2)))

    def test_no_rows(self):
        P, V, converged = minimize_rows(_row_objective([]), np.zeros((0, 2)))
        assert P.shape == (0, 2) and V.shape == (0,) and converged.shape == (0,)


def _start_objective(n, kinked, C):
    """A vectorized ``minimize_rows`` objective on R^n centred at the rows of
    C: a smooth bowl plus a cosine, or a max-norm cone plus a staircase."""
    if kinked:
        return lambda rows, P: np.max(np.abs(P - C[rows]), axis=1) + np.floor(4.0 * np.abs(P[:, 0])) / 4.0
    return lambda rows, P: sum((P[:, j] - C[rows, j]) ** 2 for j in range(n)) + np.cos(P[:, 0])


class TestMinimizeRowsNeverRises:
    """The start row is the first simplex vertex and a step never replaces
    the best vertex, so no descent ends above its start value, converged or
    not; ``ortho.birkhoff_margin_rows`` keeps the descent's value over the
    grid point it starts from on this ground."""

    @given(n=st.sampled_from([1, 2, 3]), kinked=st.booleans(), data=st.data())
    def test_best_value_is_at_most_the_start_value(self, n, kinked, data):
        count = data.draw(st.integers(1, 4))
        coords = st.lists(st.floats(-20.0, 20.0), min_size=count * n, max_size=count * n)
        X0 = np.array(data.draw(coords)).reshape(count, n)
        C = X0.copy() if data.draw(st.booleans()) else np.array(data.draw(coords)).reshape(count, n)
        f = _start_objective(n, kinked, C)
        budget = data.draw(st.sampled_from([1, 7, 500]))
        P, V, _ = minimize_rows(f, X0, opt_tol=1e-8, max_iter=budget)
        assert np.all(V <= f(np.arange(count), X0))
        assert np.array_equal(V, f(np.arange(count), P))  # the value is the returned vertex's


def _reference_rows(problems, X0, opt_tol, max_iter):
    """``reference_minimize`` on each problem: the points, values and
    converged flags, and the set of points each problem was asked for."""
    points, values, converged, asked = [], [], [], []
    for f, x0 in zip(problems, X0):
        seen = set()

        def recorded(x, f=f, seen=seen):
            seen.add(tuple(x.tolist()))
            return f(x)

        try:
            pt, val = reference_minimize(recorded, np.array(x0, dtype=float), opt_tol=opt_tol, max_iter=max_iter)
            converged.append(True)
        except ConvergenceError as err:
            pt, val = err.best_point, err.best_value
            converged.append(False)
        points.append(pt)
        values.append(val)
        asked.append(seen)
    return np.array(points).reshape(len(problems), -1), np.array(values), np.array(converged), asked


def _guarded_objective(problems, asked, elsewhere):
    """The ``minimize_rows`` objective of the problems, which calls
    ``elsewhere()`` for its value at any point the reference never asked
    that problem for; counts those calls."""

    def f(rows, P):
        out = []
        for i, p in zip(rows.tolist(), P):
            if tuple(p.tolist()) in asked[i]:
                out.append(problems[i](p))
            else:
                f.unasked += 1
                out.append(elsewhere())
        return np.array(out)

    f.unasked = 0
    return f


def _raise_path_error():
    raise PathError("curve velocity left the space-like regime")


def _overflow():
    return float(np.multiply(np.float64(1e308), 10.0) * 0.0)  # nan, after numpy warns of the overflow


def _staircase(x):
    """Plateaus: equal values send the contraction to either side, and a
    contraction that does not improve shrinks the simplex."""
    return float(np.sum(np.floor(np.abs(x + 0.5) * 8)))


# one batch per simplex size n, each form of the trial points: n = 1 and 2
# written out, 0 and 3 generic; every batch with a step shrinks
DIM_PROBLEMS = {
    0: ([lambda x: 2.5, lambda x: -1.0], [[], []]),
    1: (ROW_PROBLEMS["1-d"][0] + [_staircase], ROW_PROBLEMS["1-d"][1] + [[1.0]]),
    2: ROW_PROBLEMS["2-d"],
    3: (
        [_shifted_bowl(np.array([1.0, -2.0, 0.5])), _shifted_bowl(np.array([-3.0, 4.0, 10.0]), 0.3),
         lambda x: float(np.max(np.abs(x - 0.25)) + 0.1 * x[0]), lambda x: float(x @ x), _staircase],
        [[0.0, 0.0, 0.0], [1.0, -1.0, 2.0], [2.0, 0.0, -1.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]],
    ),
}


class TestSpeculativeSteps:
    """``minimize_rows`` evaluates every point a step may use in one call;
    only the values the step's rules use may reach its result."""

    @pytest.mark.parametrize("budget", [40, 500])
    @pytest.mark.parametrize("n", sorted(DIM_PROBLEMS))
    @pytest.mark.parametrize("elsewhere", [_raise_path_error, lambda: math.nan, _overflow], ids=["raise", "nan", "overflow"])
    def test_unasked_points_do_not_matter(self, n, budget, elsewhere):
        problems, X0 = DIM_PROBLEMS[n]
        X0 = np.array(X0, dtype=float).reshape(len(problems), n)
        ref_P, ref_V, ref_converged, asked = _reference_rows(problems, X0, 1e-8, budget)
        f = _guarded_objective(problems, asked, elsewhere)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            P, V, converged = minimize_rows(f, X0, opt_tol=1e-8, max_iter=budget)
        assert not caught  # no warning from a point the reference never asked for
        assert np.array_equal(P, ref_P) and np.array_equal(V, ref_V)
        assert np.array_equal(converged, ref_converged)
        assert (f.unasked > 0) == (n > 0)  # a zero-length simplex converges before any step

    @pytest.mark.parametrize("n", sorted(DIM_PROBLEMS))
    def test_reference_problems(self, n):
        problems, X0 = DIM_PROBLEMS[n]
        X0 = np.array(X0, dtype=float).reshape(len(problems), n)
        ref_P, ref_V, ref_converged, _ = _reference_rows(problems, X0, 1e-8, 500)
        P, V, converged = minimize_rows(_row_objective(problems), X0, opt_tol=1e-8, max_iter=500)
        assert ref_converged.all() and converged.all()
        assert np.array_equal(P, ref_P) and np.array_equal(V, ref_V)

    def test_a_used_non_finite_value_raises_the_reference_error(self):
        # the bowl's reflections are finite; the second problem's first
        # expansion point gives NaN, which its step uses
        bowl, flat = lambda x: float(x @ x), lambda x: -float(x[0]) if x[0] < 1.25 else math.nan
        with pytest.raises(NumericalError) as ref:
            reference_minimize(flat, np.array([1.0, 1.0]))
        with pytest.raises(NumericalError) as err:
            minimize_rows(_row_objective([bowl, flat]), np.ones((2, 2)))
        assert str(err.value) == str(ref.value) == "non-finite value in minimize: nan"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimize_asks_for_the_reference_points_in_order(self, n):
        # the whole descent, expansions, contractions and shrinks included
        problems, X0 = DIM_PROBLEMS[n]
        for f, x0 in zip(problems, X0):
            got, ref = [], []
            pt, val = minimize(lambda x: got.append(x.copy()) or f(x), np.array(x0, dtype=float), opt_tol=1e-8)
            ref_pt, ref_val = reference_minimize(lambda x: ref.append(x.copy()) or f(x), np.array(x0, dtype=float), opt_tol=1e-8)
            assert np.array_equal(pt, ref_pt) and val == ref_val
            assert len(got) == len(ref) and all(np.array_equal(a, b) for a, b in zip(got, ref))


class _FixedDraws:
    """An ``rng.random`` stand-in that hands out a fixed sequence."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def random(self, count):
        self.used += count
        return self.values[self.used - count : self.used]


def _loop_kept_trials(values, trials, head, d, tail, low, high):
    """The scalar loop :meth:`DrawStream.kept_trials` replays: the draws of
    each kept trial, and the first draw after the loop."""
    draws, kept = iter(values), []
    for _ in range(trials):
        row = [next(draws) for _ in range(head)]
        if np.any(as_uniform(np.array(row[-d:]), low, high)):
            kept.append(row + [next(draws) for _ in range(tail)])
    return kept, next(draws)


class TestDrawStream:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=12))
    def test_any_split_reproduces_one_block(self, calls):
        stream = DrawStream(Seed(5).rng())
        block = Seed(5).rng().random(sum(count for take, count in calls) + 10)
        at = 0
        for take, count in calls:
            got = stream.take(count) if take else stream.peek(count)
            assert got.tobytes() == block[at : at + count].tobytes()
            at += count if take else 0
        assert stream.take(10).tobytes() == block[at : at + 10].tobytes()

    def test_peek_consumes_nothing(self):
        stream = DrawStream(Seed(5).rng())
        first = stream.peek(7).copy()
        assert stream.peek(3).tobytes() == first[:3].tobytes()
        assert stream.peek(12)[:7].tobytes() == first.tobytes()
        assert stream.take(7).tobytes() == first.tobytes()
        assert stream.take(5).tobytes() == Seed(5).rng().random(12)[7:].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("head, d, tail", [(3, 2, 1), (2, 2, 2), (2, 1, 0), (4, 1, 3)])
    def test_kept_trials_follow_the_scalar_loop(self, seed, head, d, tail):
        # on [0, 1) a coordinate is 0 exactly where its draw is, so planted
        # zeros make the loop skip trials
        rng = Seed(seed).rng()
        values = np.where(rng.random(200) < 0.6, 0.0, rng.random(200))
        stream = DrawStream(_FixedDraws(values))
        kept = stream.kept_trials(12, head, d, tail, 0.0, 1.0)
        ref, following = _loop_kept_trials(values, 12, head, d, tail, 0.0, 1.0)
        assert 0 < len(ref) < 12
        assert kept.shape == (len(ref), head + tail) and kept.tobytes() == np.array(ref).tobytes()
        assert stream.take(1)[0] == following


class TestSampleVectors:
    def test_determinism(self):
        assert repr(sample_vectors(Seed(1), 2, 3, 1.0)) == repr(sample_vectors(1, 2, 3, 1.0))

    def test_bounds(self):
        for v in sample_vectors(Seed(9), 4, 50, 0.7):
            assert np.max(np.abs(v)) <= 0.7
            assert np.any(v)

    def test_different_seeds_differ(self):
        a = sample_vectors(Seed(1), 2, 3, 1.0)
        b = sample_vectors(Seed(2), 2, 3, 1.0)
        assert any(np.any(x != y) for x, y in zip(a, b))

    def test_seed_range_checked(self):
        with pytest.raises(DomainError):
            Seed(-1)
