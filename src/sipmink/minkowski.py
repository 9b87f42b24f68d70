"""Generalized Minkowski spaces: a positive block S and a negative block T,
each carrying its own norm and s.i.p.

Two products live on the direct sum.  The auxiliary product

    [u, v]^- = [s1, s2]_S + [t1, t2]_T

is a genuine s.i.p. (it represents the norm sqrt(max-part^2 + ...)), while
the Minkowski product

    [u, v]^+ = [s1, s2]_S - [t1, t2]_T

is indefinite and classifies vectors as space-, light- or time-like.
Coordinates 1..k belong to S, the rest to T.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, UnsupportedError
from .norms import EUCLIDEAN, NormSpec, sip_rows
from .numerics import DEFAULT_TOLERANCES, DrawStream, Tolerances, as_seed, as_uniform, check_dim


_CONE_BUDGET = 1000  # blocks of draws cone_convexity_check may take; the stock 2+1 spaces take under one


class VectorClass(enum.Enum):
    SPACE_LIKE = "space-like"
    TIME_LIKE = "time-like"
    LIGHT_LIKE = "light-like"


class ConePart(enum.Enum):
    T_PLUS = "T+"
    T_MINUS = "T-"
    NOT_TIME_LIKE = "not-time-like"


@dataclass(frozen=True)
class GeneralizedMinkowskiSpace:
    s_space: NormSpec
    t_space: NormSpec

    @property
    def k(self) -> int:
        return self.s_space.dim

    @property
    def t_dim(self) -> int:
        return self.t_space.dim

    @property
    def n(self) -> int:
        return self.k + self.t_dim

    @property
    def is_spacetime_model(self) -> bool:
        """One-dimensional negative block."""
        return self.t_dim == 1

    @property
    def is_pseudo_euclidean(self) -> bool:
        return self.s_space.kind == EUCLIDEAN and self.t_space.kind == EUCLIDEAN

    @classmethod
    def pseudo_euclidean(cls, k: int, t_dim: int = 1) -> "GeneralizedMinkowskiSpace":
        return cls(NormSpec.euclidean(k), NormSpec.euclidean(t_dim))

    @classmethod
    def from_norms(cls, s_norm: NormSpec, t_norm: NormSpec) -> "GeneralizedMinkowskiSpace":
        return cls(s_norm, t_norm)


def max_norm_spacetime() -> GeneralizedMinkowskiSpace:
    """The 2+1 space over the max-norm plane.

    Its positive subspaces need not have convex unit balls, which makes
    it the stock counterexample for Cauchy-Schwarz on positive subspaces
    of the Minkowski product.
    """
    return GeneralizedMinkowskiSpace(NormSpec.max_norm(2), NormSpec.euclidean(1))


def split(space: GeneralizedMinkowskiSpace, v) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate blocks (s, t) of v with v = s (+) t."""
    v = check_dim(v, space.n)
    return v[: space.k].copy(), v[space.k :].copy()


def embed(space: GeneralizedMinkowskiSpace, s=None, t=None) -> np.ndarray:
    """Assemble a full vector from block coordinates (missing block is zero)."""
    v = np.zeros(space.n)
    if s is not None:
        v[: space.k] = np.asarray(s, dtype=float)
    if t is not None:
        v[space.k :] = np.asarray(t, dtype=float)
    return v


def _as_rows(space: GeneralizedMinkowskiSpace, *vectors):
    """Single vectors of the direct sum as (1, n) arrays, for the row kernels."""
    return (check_dim(v, space.n)[None] for v in vectors)


def product_minus_rows(space: GeneralizedMinkowskiSpace, U, V) -> np.ndarray:
    """Row-wise ``[U[i], V[i]]^-`` of two (N, n) arrays."""
    U = check_dim(U, space.n, rows=True)
    V = check_dim(V, space.n, rows=True)
    k = space.k
    return sip_rows(space.s_space, U[:, :k], V[:, :k]) + sip_rows(space.t_space, U[:, k:], V[:, k:])


def product_plus_rows(space: GeneralizedMinkowskiSpace, U, V) -> np.ndarray:
    """Row-wise ``[U[i], V[i]]^+`` of two (N, n) arrays."""
    U = check_dim(U, space.n, rows=True)
    V = check_dim(V, space.n, rows=True)
    k = space.k
    return sip_rows(space.s_space, U[:, :k], V[:, :k]) - sip_rows(space.t_space, U[:, k:], V[:, k:])


def product_minus(space: GeneralizedMinkowskiSpace, u, v) -> float:
    """Auxiliary s.i.p.: S-product plus T-product (positive definite).  The
    one-row call of :func:`product_minus_rows`."""
    return float(product_minus_rows(space, *_as_rows(space, u, v))[0])


def product_plus(space: GeneralizedMinkowskiSpace, u, v) -> float:
    """Minkowski product: S-product minus T-product (indefinite).  The
    one-row call of :func:`product_plus_rows`."""
    return float(product_plus_rows(space, *_as_rows(space, u, v))[0])


@dataclass(frozen=True)
class BoundProduct:
    """``[., .]^+`` (sign "+") or ``[., .]^-`` (sign "-") of one space as a
    product handle: callable on two vectors, ``rows`` on two (N, n) arrays."""

    space: GeneralizedMinkowskiSpace
    sign: str = "+"

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise DomainError(f"product sign must be '+' or '-', got {self.sign!r}")

    def __call__(self, u, v) -> float:
        if self.sign == "+":
            return product_plus(self.space, u, v)
        return product_minus(self.space, u, v)

    def rows(self, U, V) -> np.ndarray:
        if self.sign == "+":
            return product_plus_rows(self.space, U, V)
        return product_minus_rows(self.space, U, V)


def j_operator(space: GeneralizedMinkowskiSpace, v) -> np.ndarray:
    """Identity on S, negation on T; intertwines the two products."""
    v = check_dim(v, space.n)
    out = v.copy()
    out[space.k :] *= -1.0
    return out


def j_matrix(space: GeneralizedMinkowskiSpace) -> np.ndarray:
    d = np.ones(space.n)
    d[space.k :] = -1.0
    return np.diag(d)


_CLASSES = np.array([VectorClass.TIME_LIKE, VectorClass.LIGHT_LIKE, VectorClass.SPACE_LIKE], dtype=object)


def classify_rows(space: GeneralizedMinkowskiSpace, V, class_tol: float | None = None) -> np.ndarray:
    """Sign of the Minkowski scalar square of each row of an (N, n) array,
    with a relative light-like band, as an object array of
    :class:`VectorClass` members (compare with ``==``).

    The band is scaled by the auxiliary (definite) square so the
    classification is stable under rescaling of v.
    """
    if class_tol is None:
        class_tol = DEFAULT_TOLERANCES.class_tol
    V = check_dim(V, space.n, rows=True)
    S, T = V[:, : space.k], V[:, space.k :]
    qs, qt = sip_rows(space.s_space, S, S), sip_rows(space.t_space, T, T)  # one square per block
    q = qs - qt
    scale = np.maximum(1.0, qs + qt)
    code = np.where(np.abs(q) <= class_tol * scale, 1, np.where(q > 0, 2, 0))
    return _CLASSES[code]


def classify(space: GeneralizedMinkowskiSpace, v, class_tol: float | None = None) -> VectorClass:
    """The :class:`VectorClass` member of one vector (compare with ``is``):
    the one-row call of :func:`classify_rows`."""
    return classify_rows(space, *_as_rows(space, v), class_tol)[0]


def cone_part(space: GeneralizedMinkowskiSpace, v, class_tol: float | None = None) -> ConePart:
    """Which sheet of the time-like double cone v lies on (space-time model)."""
    if not space.is_spacetime_model:
        raise UnsupportedError("cone decomposition needs a one-dimensional T block")
    v = check_dim(v, space.n)
    if classify(space, v, class_tol) is not VectorClass.TIME_LIKE:
        return ConePart.NOT_TIME_LIKE
    return ConePart.T_PLUS if v[-1] > 0 else ConePart.T_MINUS


@dataclass(frozen=True)
class ConeReport:
    trials: int
    convexity_violations: tuple
    scaling_violations: tuple

    @property
    def passed(self) -> bool:
        return not self.convexity_violations and not self.scaling_violations


def cone_convexity_check(
    space: GeneralizedMinkowskiSpace,
    seed,
    trials: int,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ConeReport:
    """Sampled convexity of the upper time-like cone, plus the cone property.

    Draws pairs a, b in T+ by rejection, mixes them with a random weight,
    and records any mixture that leaves T+.  Also checks that classification
    is invariant under nonzero scaling.

    A trial draws, in this order: candidates for a (n draws each) until one
    lies in T+, the same for b, the weight mu, the scale |lam|, its sign and
    v (n draws).  The draws come from a :class:`~sipmink.numerics.DrawStream`
    in rounds of one block: a round walks the rejections of the next block
    in plain Python and takes what it walked, carrying a trial that runs past
    the block into the next round.  A rejection moves the walk by n draws and
    a trial's tail by 3 + n, so it reads one residue class of offsets mod n
    until a tail shifts it; the round classifies the candidates of a class in
    one call when the walk first enters it.  After 1000 blocks of draws short
    of ``trials`` it raises :class:`ConvergenceError`: T+ fills a share of the
    candidates' cube that shrinks exponentially with the dimension.
    """
    if not space.is_spacetime_model:
        raise UnsupportedError("cone decomposition needs a one-dimensional T block")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    stream = DrawStream(as_seed(seed).rng())
    tol = tolerances.class_tol
    n = space.n
    tail = 3 + n  # mu, |lam|, sign, v
    block = trials * (10 * n + tail)  # 1.4-1.7 times what the stock 2+1 spaces use
    budget = _CONE_BUDGET * block
    pairs, tails, carry, done, drawn = [], [], np.empty((0, n)), 0, 0  # carry: the a (and b) of a trial in progress
    while done < trials:
        if drawn >= budget:
            raise ConvergenceError(
                f"cone_convexity_check: {done} of {trials} trials found a time-like pair within its budget of {budget} draws"
            )
        U = stream.peek(block)
        classes = {}  # residue r mod n: the candidates at offsets r, r + n, ... of U, and which lie in T+
        found, ends, p = [], [], 0  # the a's and b's, and the offsets in U of the tails
        while done + len(ends) < trials:
            if len(carry) + len(found) < 2 * (len(ends) + 1):
                r = p % n  # a rejection moves p by n, so the walk stays in its residue class
                if r not in classes:
                    C = as_uniform(U[r : r + (len(U) - r) // n * n].reshape(-1, n), -1.0, 1.0)
                    C[:, -1] = np.abs(C[:, -1]) + 0.05
                    classes[r] = C, ((classify_rows(space, C, tol) == VectorClass.TIME_LIKE) & (C[:, -1] > 0)).tolist()
                C, ok = classes[r]
                i = p // n
                while i < len(ok) and not ok[i]:
                    i += 1
                p = i * n + r
                if i >= len(ok):  # the next candidate runs past U
                    break
                found.append(C[i])
                p += n
            elif p + tail <= len(U):
                ends.append(p)
                p += tail
            else:
                break
        stream.take(p)
        drawn += p
        rows = np.concatenate([carry, np.reshape(found, (-1, n))])  # a, b of each trial in turn
        pairs.append(rows[: 2 * len(ends)])
        tails.append(U[np.array(ends, dtype=np.intp)[:, None] + np.arange(tail)])
        carry, done = rows[2 * len(ends) :], done + len(ends)
    AB, T = np.concatenate(pairs), np.concatenate(tails)
    A, B = AB[0::2], AB[1::2]
    mu = as_uniform(T[:, 0], 0.0, 1.0)
    lam = as_uniform(T[:, 1], 0.1, 3.0) * np.where(T[:, 2] < 0.5, 1.0, -1.0)
    V = as_uniform(T[:, 3:], -1.5, 1.5)
    mix = mu[:, None] * A + (1.0 - mu)[:, None] * B
    left = (classify_rows(space, mix, tol) != VectorClass.TIME_LIKE) | ~(mix[:, -1] > 0)
    rescaled = classify_rows(space, lam[:, None] * V, tol) != classify_rows(space, V, tol)
    convexity = tuple((A[i].copy(), B[i].copy(), float(mu[i])) for i in np.flatnonzero(left))
    scaling = tuple((V[i].copy(), float(lam[i])) for i in np.flatnonzero(rescaled))
    return ConeReport(trials, convexity, scaling)
