"""Scalar references that tests compare the library against.

They are written out independently of the code under test, so a test that
checks a row kernel or a one-row call against them never compares that
code with itself.
"""

import numpy as np

from sipmink.errors import ConvergenceError, NumericalError
from sipmink.norms import norm_batch


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
