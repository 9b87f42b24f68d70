"""The benchmark's full report: every workload untraced and traced, plus the
untimed rows that sit beside the timings.

* Accuracy rows: geodesic error against the arccosh law as m doubles, the
  large-distance cases ``lift(r,0)``, ``lift(0,r)`` at m=16, and max-norm
  lengths as m doubles with a count of the pairs whose length rose.
* Gate headroom: the tightest wall-clock gates of
  ``tests/test_acceptance.py`` (criteria 2, 6 and 10, each bounded at
  1.0 s), imported from that file and timed here; headroom is the bound
  minus the median time.
* Cross-checks against the baseline figures ROADMAP.md quotes: ``verify
  all`` and its ``geodesic-cosh`` suite on the max config, and the share of
  a m=64 geodesic spent in ``_energy_gradient``.

Run through ``python3 perfbench/run.py --report``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import sipmink as sk
from sipmink import hyperboloid as hyp
from sipmink import suites
from sipmink.config import RunConfig
from sipmink.numerics import Seed

import spans
import workloads

GATE_BOUND_S = 1.0
GATE_REPEATS = 3
ACCURACY_NODES = (8, 16, 32, 64)
ACCURACY_PAIRS = 3
MAX_NORM_NODES = (8, 16, 32)


def _distance(space, a, b, m):
    """geodesic_distance, or the name of the exception it raised."""
    try:
        return hyp.geodesic_distance(space, a, b, m)
    except sk.SipminkError as err:
        return type(err).__name__


def arccosh_rows(seed: int) -> list[dict]:
    """Euclidean 2+1 error against arccosh on the seed's first near pairs."""
    space = sk.GeneralizedMinkowskiSpace.pseudo_euclidean(2)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for i, p in enumerate(workloads.near_pairs("euclidean", space, rng, ACCURACY_PAIRS, m=8)):
        for m in ACCURACY_NODES:
            d = _distance(space, p.a, p.b, m)
            err = abs(d - p.arccosh) if isinstance(d, float) else None
            rows.append({"pair": i, "m": m, "distance": d, "arccosh": p.arccosh, "error": err})
    return rows


def far_rows() -> list[dict]:
    """The large-distance cases a = lift(r,0), b = lift(0,r) in the 2+1 Euclidean space, m=16."""
    space = sk.GeneralizedMinkowskiSpace.pseudo_euclidean(2)
    rows = []
    for p in workloads.far_pairs("euclidean", space, m=16):
        d = _distance(space, p.a, p.b, 16)
        rows.append(
            {
                "r": p.far_radius,
                "distance": d,
                "arccosh": p.arccosh,
                "error": abs(d - p.arccosh) if isinstance(d, float) else None,
                "linear_length": p.linear_length,
            }
        )
    return rows


def max_norm_rows() -> dict:
    """Max-norm lengths as m doubles, on the three pairs the geodesic-cosh
    suite draws for the max config at the verify default seed."""
    space = sk.max_norm_spacetime()
    rng = Seed(workloads.DEFAULT_SEED).rng()
    pairs = [(p.a, p.b) for p in workloads.near_pairs("max", space, rng, 3, m=8)]
    rows = []
    rises = 0
    for i, (a, b) in enumerate(pairs):
        lengths = {m: _distance(space, a, b, m) for m in MAX_NORM_NODES}
        values = [lengths[m] for m in MAX_NORM_NODES]
        rose = all(isinstance(v, float) for v in values) and any(y > x for x, y in zip(values, values[1:]))
        rises += rose
        rows.append({"pair": i, "a": a.s.tolist(), "b": b.s.tolist(), "lengths": lengths, "rose": rose})
    return {"rows": rows, "length_rise": rises}


GATES = {
    "criterion_2": "test_02_max_norm_positive_subspace_violation",
    "criterion_6": "test_06_time_cone_convexity",
    "criterion_10": "test_10_indefinite_gram_schmidt",
}


def _acceptance_tests():
    """tests/test_acceptance.py of the checkout, imported as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("acceptance_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gate_headroom() -> dict:
    """Time the gate tests themselves; a gate that fails its bound still
    reports its time, so headroom can go negative."""
    tests = _acceptance_tests()
    out = {}
    for name, test in GATES.items():
        times, ok = [], True
        for _ in range(GATE_REPEATS):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    getattr(tests, test)()
            except AssertionError:
                ok = False
            times.append(time.perf_counter() - t0)
        measured = statistics.median(times)
        out[name] = {"bound_s": GATE_BOUND_S, "measured_s": measured, "headroom_s": GATE_BOUND_S - measured, "ok": ok, "runs_s": times}
    return out


def roadmap_crosscheck() -> dict:
    """The baseline figures ROADMAP.md quotes, measured again here."""
    t0 = time.perf_counter()
    results, _ = suites.run_suites("all", RunConfig(s_kind="max"))
    verify_all = time.perf_counter() - t0
    cosh = next(r.duration for r in results if r.suite == "geodesic-cosh")
    space = sk.GeneralizedMinkowskiSpace.pseudo_euclidean(2)
    a = hyp.lift(space, [0.0, 0.0])
    b = hyp.lift(space, [float(np.sinh(1.0)), 0.0])
    tracer = spans.Tracer()
    with tracer:
        tracer.op = 0
        hyp.geodesic_distance(space, a, b, 64)
    sp = tracer.arrays()
    dur = sp["end"] - sp["start"]
    total = float(np.sum(dur[sp["name"] == tracer.names.index("hyperboloid.geodesic_path")]))
    grad = float(np.sum(dur[sp["name"] == tracer.names.index("hyperboloid._energy_gradient")]))
    return {
        "max_config.verify_all_s": {"measured": verify_all, "roadmap": 6.59},
        "max_config.geodesic_cosh_s": {"measured": cosh, "roadmap": 5.70},
        "m64.energy_gradient_share": {"measured": grad / total, "roadmap": 0.56 / 0.68, "traced": True},
    }


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True).stdout.splitlines()
    record = json.loads(out[-2].removeprefix("record: "))
    result = json.loads(out[-1])
    record.update({k: result[k] for k in ("correct", "attempted", "failed")})
    return record


def main(args) -> int:
    import run

    report = {"seed": args.seed, "seconds": args.seconds, "env": run.environment("all", args.seed), "workloads": {}}
    for w in run.WORKLOADS:
        timed = _run(w, args.seed, args.seconds, 0)
        traced = _run(w, args.seed, args.seconds, 1)
        report["workloads"][w] = {"untraced": timed, "traced": traced}
        report["env"].setdefault("ops", {})[w] = {"untraced": timed["env"]["ops"], "traced": traced["env"]["ops"]}
        units = {**run.END_TO_END, **run.END_TO_END_UNGATED}
        for name, unit in units.items():
            print(f"{w} {name} = {timed['metrics'][name]} {unit}")
        for name, unit in run.PER_LAYER.items():
            print(f"{w} [trace] {name} = {traced['metrics'][name]} {unit}")
        print(f"{w} correct={timed['correct']} attempted={timed['attempted']} failed={timed['failed']}"
              f" csv_identical={timed['suites.csv_identical']}")
    report["accuracy"] = {
        "arccosh_by_m": arccosh_rows(args.seed),
        "far_pairs_m16": far_rows(),
        "max_norm_by_m": max_norm_rows(),
    }
    report["gate_headroom"] = gate_headroom()
    report["roadmap_crosscheck"] = roadmap_crosscheck()
    for section in ("accuracy", "gate_headroom", "roadmap_crosscheck"):
        print(f"{section}: {json.dumps(report[section])}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0
