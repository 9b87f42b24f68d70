"""The benchmark's three workloads: inputs made from a seed, one op each, and
the check every op's output must pass.

Each workload puts one layer of sipmink at the centre:

* ``suites``: one op runs every verification suite except ``geodesic-cosh``
  on the three stock configs.  Scalar products (``norms.sip``,
  ``minkowski.product_plus``) dominate; the geodesic solvers stay idle.
* ``geodesic-smooth``: one op is one ``geodesic_distance`` call at m=32 in
  the 2+1 Euclidean or p=3 space.  The gradient relaxation on large
  ``norm_batch`` batches dominates; ``numerics.minimize`` is never called.
* ``geodesic-max``: one op is one ``geodesic_distance`` call at m=16 in the
  max-norm space-time.  Node-wise simplex relaxation on batches of about
  ten rows dominates; the energy gradient is never called.

The geodesic pair mix is three near pairs (arccosh proxy in [0.2, 2.5], the
rule of the ``geodesic-cosh`` suite) to one far pair ``lift(r,0)``,
``lift(0,r)`` with r in FAR_RADII.  The pairs come from a fixed pool in
references.json, which also holds the length (or the exception) each pair
gave at the commit that defined the benchmark; the seed orders the pool.
Far pairs probe a known defect: at large distances the gradient relaxation
raises PathError or returns a path longer than the linear one it started
from.  Their failures are counted, never dropped.

Regenerate the pool and its reference lengths with
``python3 perfbench/run.py --record-references``; do so only when a change
to sipmink is meant to move the lengths, and say why.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import sipmink as sk
from sipmink import hyperboloid as hyp
from sipmink import minkowski as mink
from sipmink import suites
from sipmink.config import config_from_mapping, parse_config

STOCK_CONFIGS = {
    "euclidean": 'space.s.norm = "euclidean"\n',
    "pnorm3": 'space.s.norm = "pnorm"\nspace.s.p = 3\n',
    "max": 'space.s.norm = "max"\n',
}
SUITE_NAMES = tuple(n for n in sorted(suites.SUITES) if n != "geodesic-cosh")
TRIALS = 200

# The ``verify`` default seed; on it the suite CSVs must match the digests
# below, recorded at the commit that defined the benchmark.
DEFAULT_SEED = 42
CSV_SHA256 = {
    "euclidean": "9e1494e17d9b750d365cdcdf605bd9eda4fea79e5dc81c4e8dd6f07b93b15734",
    "pnorm3": "972025dbf1bdb981d849680d52463a35d9f47d1c996451dfeb2ade9a9b03d56b",
    "max": "59ab4e9542c01859b87b211dff9c7b44b5c3e28929aa9bd9c82f89c185a09859",
}

FAR_RADII = (5.0, 20.0, 100.0, 1000.0)
NEAR_PROXY = (0.2, 2.5)
ARCCOSH_TOL = 5e-3
# An op whose length moves from its pair's reference by more than this,
# times max(1, reference), fails.  Relaxed lengths at the reference commit
# sit within about 1e-4 of the arccosh law (Euclidean) and move by about
# 1e-5 as m doubles (max norm), while the linear paths the solver starts
# from are longer by 0 to 45 % on near pairs.
REF_TOL = 1e-3

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
POOL_SEED = 20260917
# workload: (nodes m, near pairs per space in the pool, space labels).  The
# pool sizes make one cycle of ops (see GeodesicWorkload) about 30 s on a 2-core x86_64 host.
GEODESIC = {
    "geodesic-smooth": (32, 32, ("euclidean", "pnorm3")),
    "geodesic-max": (16, 12, ("max",)),
}
# Near pairs added to a pool by hand, (space, a.s, b.s), because they show a
# defect the drawn pairs miss: on this p=3 pair, drawn once from seed 2,
# the gradient relaxation returns 33.8 against a linear path of 1.17.
DEFECT_NEAR = {
    "geodesic-smooth": [("pnorm3", (1.1224751584483637, -1.094429539064647), (0.918462366822481, 0.14250525010770376))],
}


@dataclass
class Outcome:
    """What the check made of one op."""

    ok: bool
    known_defect: bool = False  # a failure of a known kind: counted, but the run is not broken
    error: float | None = None  # |d - arccosh| on Euclidean geodesic ops that returned a value
    detail: str = ""
    suite_s: dict = field(default_factory=dict)
    csv_identical: bool | None = None


class SuitesWorkload:
    name = "suites"

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = {
            label: config_from_mapping(parse_config(text + f"seed = {seed}\ntrials = {TRIALS}\n"))
            for label, text in STOCK_CONFIGS.items()
        }

    def __len__(self) -> int:
        """Ops in one cycle: every op runs the same calls on the same inputs."""
        return 1

    def run(self, k: int):
        return [suites.run_suites(list(SUITE_NAMES), cfg) for cfg in self.configs.values()]

    def check(self, k: int, result) -> Outcome:
        if isinstance(result, BaseException):
            return Outcome(False, detail=f"raised {type(result).__name__}: {result}")
        suite_s = dict.fromkeys(SUITE_NAMES, 0.0)
        failed = []
        identical = None
        for label, (results, rows) in zip(self.configs, result):
            for r in results:
                suite_s[r.suite] += r.duration
            failed += [f"{label}:{r.suite}:{r.check}" for r in rows if not r.passed]
            failed += [f"{label}:{r.suite}" for r in results if not r.passed]
            if self.seed == DEFAULT_SEED:
                digest = hashlib.sha256(suites.rows_to_csv(rows).encode()).hexdigest()
                identical = identical is not False and digest == CSV_SHA256[label]
        return Outcome(ok=not failed, detail=";".join(failed), suite_s=suite_s, csv_identical=identical)


@dataclass(frozen=True)
class Pair:
    space_label: str
    space: object
    a: object
    b: object
    far_radius: float | None
    linear_length: float
    arccosh: float | None  # the true distance, on pseudo-Euclidean spaces
    reference: float | None = None  # the length at the reference commit, None if it raised
    defect: str | None = None  # the failure kind it showed there (see failure_kind)


def make_space(label: str):
    if label == "euclidean":
        return sk.GeneralizedMinkowskiSpace.pseudo_euclidean(2)
    if label == "pnorm3":
        return sk.GeneralizedMinkowskiSpace.from_norms(sk.NormSpec.pnorm(3.0, 2), sk.NormSpec.euclidean(1))
    if label == "max":
        return mink.max_norm_spacetime()
    raise ValueError(f"unknown space {label!r}")


def _pair(label, space, a, b, m, far_radius=None) -> Pair:
    truth = None
    if space.is_pseudo_euclidean:
        truth = float(np.arccosh(-mink.product_plus(space, a.vector, b.vector)))
    linear = hyp.path_length(space, hyp.linear_path(space, a, b, m))
    return Pair(label, space, a, b, far_radius, linear, truth)


def near_pairs(label, space, rng, count, m) -> list[Pair]:
    pairs = []
    while len(pairs) < count:
        a = hyp.lift(space, rng.uniform(-1.2, 1.2, space.k))
        b = hyp.lift(space, rng.uniform(-1.2, 1.2, space.k))
        proxy = float(np.arccosh(max(1.0, -mink.product_plus(space, a.vector, b.vector))))
        if NEAR_PROXY[0] <= proxy <= NEAR_PROXY[1]:
            pairs.append(_pair(label, space, a, b, m))
    return pairs


def far_pairs(label, space, m) -> list[Pair]:
    return [
        _pair(label, space, hyp.lift(space, [r, 0.0]), hyp.lift(space, [0.0, r]), m, far_radius=r)
        for r in FAR_RADII
    ]


def failure_kind(p: Pair, result) -> str | None:
    """The first check the op's result fails, by the rules every op is held
    to: the exception's name, ``non-finite``, ``exceeds-linear`` (longer than
    the linear path it started from) or ``arccosh`` (Euclidean, error above
    ARCCOSH_TOL*max(1, d)); None if it passes them."""
    if isinstance(result, BaseException):
        return type(result).__name__
    d = float(result)
    if not math.isfinite(d):
        return "non-finite"
    if d > p.linear_length:
        return "exceeds-linear"
    if p.arccosh is not None and abs(d - p.arccosh) > ARCCOSH_TOL * max(1.0, d):
        return "arccosh"
    return None


def _near_reference(p: Pair, d: float) -> bool:
    return abs(d - p.reference) <= REF_TOL * max(1.0, abs(p.reference))


def record_references(path: str = REFERENCES) -> dict:
    """Draw each geodesic workload's pool from POOL_SEED, run every pair once
    and write the pool with each pair's length, or exception, and failure
    kind.  The lengths become the references later runs are checked
    against."""
    out = {"pool_seed": POOL_SEED, "ref_tol": REF_TOL, "workloads": {}}
    for name, (m, near, labels) in GEODESIC.items():
        rng = np.random.Generator(np.random.PCG64(POOL_SEED))
        rows = []
        for label in labels:
            space = make_space(label)
            extra = [
                _pair(label, space, hyp.lift(space, a), hyp.lift(space, b), m)
                for lb, a, b in DEFECT_NEAR.get(name, ()) if lb == label
            ]
            for p in near_pairs(label, space, rng, near, m) + extra + far_pairs(label, space, m):
                try:
                    result = hyp.geodesic_distance(space, p.a, p.b, m)
                except Exception as err:
                    result = err
                raised = isinstance(result, BaseException)
                rows.append(
                    {
                        "space": label,
                        "a": p.a.s.tolist(),
                        "b": p.b.s.tolist(),
                        "far_radius": p.far_radius,
                        "length": None if raised else float(result),
                        "defect": failure_kind(p, result),
                    }
                )
        out["workloads"][name] = {"m": m, "pairs": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return out


def load_pool(name: str) -> tuple[int, dict]:
    """The workload's nodes m and its pool, by space: (near pairs, far pairs)."""
    with open(REFERENCES, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"][name]
    m = entry["m"]
    spaces, pools = {}, {}
    for row in entry["pairs"]:
        label = row["space"]
        if label not in spaces:
            spaces[label] = make_space(label)
            pools[label] = ([], [])
        space = spaces[label]
        p = _pair(label, space, hyp.lift(space, row["a"]), hyp.lift(space, row["b"]), m, row["far_radius"])
        p = replace(p, reference=row["length"], defect=row["defect"])
        pools[label][p.far_radius is not None].append(p)
    return m, pools


class GeodesicWorkload:
    """Ops follow ``schedule``: spaces alternate op by op, and one op in four
    is a far pair, each space's far pairs taken in turn.  The seed shuffles
    each space's near pairs.  One cycle of the schedule (``len`` ops) uses
    every pair of the pool at least once, then repeats.  The seed sets only
    the order, and which near pair fills a space's spare slot, so the ops of
    a cycle that fail, known defects all, are the same on every seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.m, pools = load_pool(name)
        rng = np.random.Generator(np.random.PCG64(seed))
        labels = list(pools)
        for lb in labels:
            near, far = pools[lb]
            pools[lb] = ([near[i] for i in rng.permutation(len(near))], far)
        near_count = max(len(pools[lb][0]) for lb in labels)
        taken = {(lb, far): 0 for lb in labels for far in (False, True)}
        self.schedule = []
        for k in range(4 * len(labels) * near_count // 3):
            label = labels[k % len(labels)]
            far = k % 4 == 3 if len(labels) == 1 else k % 8 in (3, 6)
            pool = pools[label][far]
            self.schedule.append(pool[taken[label, far] % len(pool)])
            taken[label, far] += 1

    def __len__(self) -> int:
        return len(self.schedule)

    def run(self, k: int):
        p = self.schedule[k % len(self.schedule)]
        return hyp.geodesic_distance(p.space, p.a, p.b, self.m)

    def check(self, k: int, result) -> Outcome:
        """Fails on an exception, a non-finite length, a length above the
        linear path's, (Euclidean) an error above ARCCOSH_TOL*max(1, d), or a
        length more than REF_TOL*max(1, reference) from the pair's reference.

        A failure is ``known_defect`` only on a pair that failed at the
        reference commit, and only if it fails the same way: the same
        exception, or the same failure kind with a length within REF_TOL of
        the one recorded.  Every other failure makes the run incorrect.  A
        defective pair that now passes the checks passes."""
        p = self.schedule[k % len(self.schedule)]
        far = p.far_radius is not None
        where = f"{p.space_label} r={p.far_radius:g}" if far else f"{p.space_label} near"
        raised = isinstance(result, BaseException)
        d = None if raised else float(result)
        error = None if raised or p.arccosh is None or not math.isfinite(d) else abs(d - p.arccosh)
        kind = failure_kind(p, result)
        if kind is None and p.defect is None and not _near_reference(p, d):
            kind = "moved"
        if kind is None:
            return Outcome(True, error=error)
        known = kind == p.defect and (raised or _near_reference(p, d))
        if raised:
            detail = f"{where}: {kind}"
        elif kind == "moved":
            detail = f"{where}: {d:.6g} moved from reference {p.reference:.6g}"
        else:
            truth = "" if p.arccosh is None else f", arccosh {p.arccosh:.6g}"
            detail = f"{where}: {kind} {d:.6g} (linear {p.linear_length:.6g}{truth})"
        return Outcome(False, known, error, detail)


def make(name: str, seed: int):
    if name == "suites":
        return SuitesWorkload(seed)
    if name in GEODESIC:
        return GeodesicWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")
