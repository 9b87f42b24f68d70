"""Scalar references that tests compare the library against.

They are written out independently of the code under test, so a test that
checks a row kernel or a one-row call against them never compares that
code with itself.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sipmink import minkowski as mink
from sipmink.errors import ConvergenceError, NumericalError
from sipmink.norms import norm_batch
from sipmink.numerics import DrawStream, as_seed, as_uniform


def reference_minimize(f, x0, opt_tol=1e-7, max_iter=2000):
    """Reference: the Nelder-Mead descent with numpy's isfinite, mean and max."""

    def finite(value):
        value = float(value)
        if not np.isfinite(value):
            raise NumericalError(f"non-finite value in minimize: {value!r}")
        return value

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    edge = 0.1 * max(1.0, float(np.linalg.norm(x0)))
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for i in range(n):
        sim[i + 1] = x0
        sim[i + 1, i] += edge
    fv = np.array([finite(f(v)) for v in sim])
    for _ in range(max_iter):
        order = np.argsort(fv, kind="stable")
        sim, fv = sim[order], fv[order]
        diam = float(np.max(np.abs(sim[1:] - sim[0]))) if n else 0.0
        if diam < opt_tol:
            return sim[0].copy(), float(fv[0])
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = finite(f(xr))
        if fr < fv[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = finite(f(xe))
            if fe < fr:
                sim[-1], fv[-1] = xe, fe
            else:
                sim[-1], fv[-1] = xr, fr
        elif fr < fv[-2]:
            sim[-1], fv[-1] = xr, fr
        else:
            inside = fr >= fv[-1]
            xc = centroid + 0.5 * ((sim[-1] if inside else xr) - centroid)
            fc = finite(f(xc))
            if fc < min(fr, fv[-1]):
                sim[-1], fv[-1] = xc, fc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fv[1:] = [finite(f(v)) for v in sim[1:]]
    best = int(np.argmin(fv))
    raise ConvergenceError("budget", best_point=sim[best].copy(), best_value=float(fv[best]))


def reference_pythagorean_scan(norm_spec, resolution):
    """Reference: the Pythagorean subspace scan over the full matrix of worst
    residuals, 20 scale pairs folded with the transpose, and the first
    ``np.argmin``; returns the pair when its residual is at most 1e-6."""
    thetas = np.linspace(0.0, np.pi, resolution, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    U = dirs / norm_batch(norm_spec, dirs)[:, None]
    n = U.shape[0]
    worst = np.zeros((n, n))
    scales = (0.25, 0.5, 1.0, 2.0)
    for a, lam in enumerate(scales):
        for mu in (s * m for m in scales[a:] for s in (1.0, -1.0)):
            D = lam * U[:, None, :] - mu * U[None, :, :]
            nd = norm_batch(norm_spec, D.reshape(-1, 2)).reshape(n, n)
            worst = np.maximum(worst, np.abs(lam * lam + mu * mu - nd * nd))
    worst = np.maximum(worst, worst.T)
    i, j = np.unravel_index(int(np.argmin(worst)), worst.shape)
    return (U[i], U[j]) if worst[i, j] <= 1e-6 else None


def reference_cone_convexity_check(space, seed, trials, tolerances):
    """Reference: the cone sampler's block walk that classifies the candidate
    at every offset of each block of draws, and raises on the same budget
    (``minkowski._CONE_BUDGET`` blocks) with the same message."""
    stream = DrawStream(as_seed(seed).rng())
    tol = tolerances.class_tol
    n = space.n
    tail = 3 + n
    block = trials * (10 * n + tail)
    budget = mink._CONE_BUDGET * block
    pairs, tails, carry, done, drawn = [], [], np.empty((0, n)), 0, 0
    while done < trials:
        if drawn >= budget:
            raise ConvergenceError(
                f"cone_convexity_check: {done} of {trials} trials found a time-like pair within its budget of {budget} draws"
            )
        U = stream.peek(block)
        C = as_uniform(sliding_window_view(U, n), -1.0, 1.0)
        C[:, -1] = np.abs(C[:, -1]) + 0.05
        ok = ((mink.classify_rows(space, C, tol) == mink.VectorClass.TIME_LIKE) & (C[:, -1] > 0)).tolist()
        found, ends, p = [], [], 0
        while done + len(ends) < trials:
            if len(carry) + len(found) < 2 * (len(ends) + 1):
                while p < len(ok) and not ok[p]:
                    p += n
                if p >= len(ok):
                    break
                found.append(p)
                p += n
            elif p + tail <= len(U):
                ends.append(p)
                p += tail
            else:
                break
        stream.take(p)
        drawn += p
        rows = np.concatenate([carry, C[np.array(found, dtype=np.intp)]])
        pairs.append(rows[: 2 * len(ends)])
        tails.append(U[np.array(ends, dtype=np.intp)[:, None] + np.arange(tail)])
        carry, done = rows[2 * len(ends) :], done + len(ends)
    AB, T = np.concatenate(pairs), np.concatenate(tails)
    A, B = AB[0::2], AB[1::2]
    mu = as_uniform(T[:, 0], 0.0, 1.0)
    lam = as_uniform(T[:, 1], 0.1, 3.0) * np.where(T[:, 2] < 0.5, 1.0, -1.0)
    V = as_uniform(T[:, 3:], -1.5, 1.5)
    mix = mu[:, None] * A + (1.0 - mu)[:, None] * B
    left = (mink.classify_rows(space, mix, tol) != mink.VectorClass.TIME_LIKE) | ~(mix[:, -1] > 0)
    rescaled = mink.classify_rows(space, lam[:, None] * V, tol) != mink.classify_rows(space, V, tol)
    convexity = tuple((A[i].copy(), B[i].copy(), float(mu[i])) for i in np.flatnonzero(left))
    scaling = tuple((V[i].copy(), float(lam[i])) for i in np.flatnonzero(rescaled))
    return mink.ConeReport(trials, convexity, scaling)
