"""sipmink benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --report --seed 42 --seconds 32

With ``--workload``, the run makes the workload's inputs from the seed, runs
ops back to back for ``--seconds`` seconds (the next op starts when the
previous one ends), checks every op's output and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics (END_TO_END); with
``--trace 1`` they are the per-layer metrics (PER_LAYER), which come from
spans recorded around sipmink's layer functions (see spans.py): each op runs
twice, untraced and then traced, and the difference is the tracing
overhead.  The line before it, ``record: {...}``, holds every measured value
with the environment it was measured in.

An op *fails* if it raises or its output fails its check.  Each workload's
ops form a cycle whose make-up does not depend on the seed (``len(wl)``
ops; see workloads.py), and the loop runs it round and round.  Every op of
the cycle runs at least once in a run: the ones the timed phase does not
reach run after it, untimed.  ``attempted`` is the length of the cycle and
``failed`` the number of its ops that failed on any of their runs, so both
are the same on every run of the same code, however many ops the timed
phase fits.  ``correct`` is false when an op fails in a way not already
known, or a repeat of an op ends differently from its first run: any failed
suite op, and any geodesic failure other than the ones recorded for its pair
in references.json (see ``GeodesicWorkload.check``).  Known-defect failures
still count in ``failed`` and ``failed_ratio``.

``--report`` runs each workload untraced and traced in fresh interpreters,
adds the untimed accuracy rows, the acceptance-gate headroom and the
baseline cross-checks (report.py), prints every metric with its unit and
writes the whole record as JSON to ``--out``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads; fresh interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("suites", "geodesic-smooth", "geodesic-max")
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed in every record, but not gated.  The machine's speed drifts by
# 15-30 % between half-minute windows, often between two states, and the
# median of 10 to 100 op times can flip between them while ops_per_s,
# which averages every op, moves less; op_s.tail at under 100 ops is the
# slowest single op.  failed_ratio and geodesic_err.max read 0 or do not
# apply on some workloads; the traced run carries them as per-layer metrics.
END_TO_END_UNGATED = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "op_s.tail_pct": "%",
    "ops": "count",
    "failed_ratio": "ratio",
    "geodesic_err.max": "1",
}

_SUITES = (
    "cone", "counterexamples", "isometry", "lemma2", "lemma3", "lemma4",
    "orthogonality", "siip-axioms", "sip-axioms", "tangent", "theorem10", "theorem2",
)
PER_LAYER = {
    **{f"{n}.{m}": u for n in (
        "norms.sip", "norms.norm", "minkowski.product_plus", "minkowski.product_minus",
        "minkowski.classify", "siip.siip", "norms.norm_batch", "hyperboloid._segment_lengths",
        "hyperboloid._energy_gradient", "hyperboloid._relax_gradient",
        "hyperboloid._relax_simplex", "numerics.minimize",
    ) for m, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{n}.self_s": "s" for n in (
        "siip.cauchy_schwarz_witness", "ortho.pythagorean_subspace_scan",
        "ortho.orthogonal_companion_basis", "ortho.birkhoff_margin",
        "isometry.strict_convexity_witness", "isometry.isometry_report",
    )},
    **{f"suites.{s}.s": "s" for s in _SUITES},
    "norms.norm_batch.rows": "count",
    "hyperboloid._segment_lengths.segments": "count",
    "hyperboloid.energy_rise_ratio": "ratio",
    "numerics.minimize.fail_ratio": "ratio",
    "hyperboloid.geodesic_path.calls": "count",
    "hyperboloid.lift.calls": "count",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
    "ops": "count",
    "failed_ratio": "ratio",
    "geodesic_err.max": "1",
}


def import_program():
    """Import sipmink from the checkout's src/; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "sipmink", "__init__.py")):
        print(f"benchmark: no sipmink sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import sipmink  # noqa: F401
    import sipmink.config  # noqa: F401
    import sipmink.suites  # noqa: F401

    return time.perf_counter() - t0


def setup(workload: str, seed: int):
    """Import the program and build the workload's inputs: the set-up that
    setup_s times.  Returns (workload, import_s, inputs_s)."""
    import_s = import_program()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(workload, seed)
    return wl, import_s, time.perf_counter() - t0


class SetupProbe:
    """Times set-up in fresh interpreters, one probe per call.

    Each child reports CLOCK_MONOTONIC, which is system-wide, when its
    inputs are ready; set-up time runs from just before the child starts."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        self.ready, self.imports, self.inputs = [], [], []

    def __call__(self):
        t0 = time.monotonic()
        out = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        child = json.loads(out.stdout.strip().splitlines()[-1])
        self.ready.append(child["ready"] - t0)
        self.imports.append(child["import_s"])
        self.inputs.append(child["inputs_s"])

    def medians(self) -> dict:
        return {
            "setup_s": statistics.median(self.ready),
            "setup.import_s": statistics.median(self.imports),
            "setup.inputs_s": statistics.median(self.inputs),
        }


def timed_op(wl, k: int):
    """Run op k and check it after its clock stops: (seconds, outcome)."""
    t0 = time.perf_counter()
    try:
        result = wl.run(k)
    except Exception as err:  # a failed op is counted, and the loop goes on
        result = err
    return time.perf_counter() - t0, wl.check(k, result)


class Tally:
    """Outcomes by op of the workload's cycle of ``size`` ops."""

    def __init__(self, size: int):
        self.first = [None] * size
        self.failed = [False] * size
        self.outcomes = []
        self.unexpected = []

    def add(self, k: int, outcome):
        """Record the outcome of op k, the op k mod size of the cycle."""
        j = k % len(self.first)
        first = self.first[j]
        if first is None:
            self.first[j] = first = outcome
        elif (outcome.ok, outcome.detail) != (first.ok, first.detail):
            self.unexpected.append(f"op {j} repeat: {outcome.detail or 'passed'}, first {first.detail or 'passed'}")
        self.failed[j] |= not outcome.ok
        if not outcome.ok and not outcome.known_defect:
            self.unexpected.append(outcome.detail)
        self.outcomes.append(outcome)

    def complete(self, wl):
        """Run and check, untimed, every op of the cycle not run yet."""
        for j, first in enumerate(self.first):
            if first is None:
                self.add(j, timed_op(wl, j)[1])


def closed_loop(wl, seconds: float, pause=None, pauses: int = 0):
    """Run ops back to back until ``seconds`` of the phase have passed; check
    each after its clock stops.  ``pause`` runs ``pauses`` times between ops,
    spread over the phase so that it samples the machine at different
    moments; its time is left out of the phase.  Returns (op times,
    outcomes, phase seconds)."""
    times, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    done = 0
    k = 0
    while (elapsed := clock() - start - paused) < seconds:
        if done < pauses and elapsed >= done * seconds / pauses:
            t0 = clock()
            pause()
            paused += clock() - t0
            done += 1
            continue
        seconds_k, outcome = timed_op(wl, k)
        times.append(seconds_k)
        outcomes.append(outcome)
        k += 1
    wall = clock() - start - paused
    for _ in range(done, pauses):
        pause()
    return times, outcomes, wall


class TracedPairs:
    """Runs each op of ``wl`` twice, untraced and then traced, so that the
    tracing overhead compares the same op at nearly the same moment."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer

    def run(self, k: int):
        if k % 2 == 0:
            return self.wl.run(k // 2)
        self.tracer.op = k // 2
        try:
            with self.tracer:
                return self.wl.run(k // 2)
        finally:
            self.tracer.op = -1

    def check(self, k: int, result):
        return self.wl.check(k // 2, result)


def tail(times) -> tuple[float, float]:
    """Op time at the highest percentile with at least ten ops beyond it,
    and that percentile.  Below 100 ops that percentile is under the 90th,
    not a tail: the run is too short for the rule, and the slowest op is
    reported instead, at percentile 100."""
    s = sorted(times)
    n = len(s)
    if n < 100:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def outcome_metrics(tally, ops: int) -> dict:
    errors = [o.error for o in tally.outcomes if o.error is not None]
    return {
        "ops": ops,
        "failed_ratio": sum(tally.failed) / len(tally.failed),
        "geodesic_err.max": max(errors) if errors else None,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Threads OpenBLAS actually uses, asked from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(workload: str, seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def run_workload(args) -> int:
    workload, seed, seconds = args.workload, args.seed, args.seconds
    wl, _, _ = setup(workload, seed)
    probe = SetupProbe(workload, seed)
    env = environment(workload, seed)
    record = {"env": env}
    tally = Tally(len(wl))
    if not args.trace:
        times, outcomes, wall = closed_loop(wl, seconds, pause=probe, pauses=SETUP_REPEATS)
        for k, outcome in enumerate(outcomes):
            tally.add(k, outcome)
        tally.complete(wl)
        value, pct = tail(times)
        record["metrics"] = {
            "setup_s": probe.medians()["setup_s"],
            "op_s.p50": statistics.median(times),
            "op_s.tail": value,
            "ops_per_s": len(times) / wall,
            "peak_rss_mb": peak_rss_mb(),
            "op_s.tail_pct": pct,
            **outcome_metrics(tally, len(times)),
        }
        units = {**END_TO_END, **END_TO_END_UNGATED}
        emit = END_TO_END
    else:
        import spans

        tracer = spans.Tracer()
        pairs = TracedPairs(wl, tracer)
        times, outcomes, _ = closed_loop(pairs, seconds, pause=probe, pauses=SETUP_REPEATS)
        if len(times) % 2:  # finish the last pair with its traced run
            seconds_k, outcome = timed_op(pairs, len(times))
            times.append(seconds_k)
            outcomes.append(outcome)
        for k, outcome in enumerate(outcomes):
            tally.add(k // 2, outcome)
        tally.complete(wl)
        t_times = times[1::2]
        times, outcomes = times[0::2], outcomes[0::2]
        n = len(t_times)
        base = statistics.median(times[:n])
        metrics = spans.layer_metrics(tracer, n)
        suite_s = [o.suite_s for o in outcomes if o.suite_s]
        for s in _SUITES:
            metrics[f"suites.{s}.s"] = statistics.median(x[s] for x in suite_s) if suite_s else 0.0
        metrics.update(
            {
                "setup.import_s": probe.medians()["setup.import_s"],
                "setup.inputs_s": probe.medians()["setup.inputs_s"],
                "trace.overhead_s": statistics.median(t_times) - base,
                "trace.overhead_ratio": (statistics.median(t_times) - base) / base,
                "trace.ops": n,
                **outcome_metrics(tally, len(times)),
            }
        )
        if metrics["geodesic_err.max"] is None:
            metrics["geodesic_err.max"] = 0.0
        record["metrics"] = metrics
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.save(os.path.join(HERE, "out", f"spans-{workload}.npz"))
        units = emit = PER_LAYER
    csv = [o.csv_identical for o in tally.outcomes if o.csv_identical is not None]
    record["suites.csv_identical"] = all(csv) if csv else None
    record["failures"] = sorted({o.detail for o in tally.outcomes if not o.ok} | set(tally.unexpected))
    env["ops"] = len(tally.outcomes)
    env["cycle_ops"] = len(wl)
    metrics = record["metrics"]
    for name, unit in units.items():
        print(f"{workload} {name} = {metrics.get(name)} {unit}")
    for detail in record["failures"]:
        print(f"{workload} failed op: {detail}")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not tally.unexpected,
        "attempted": len(wl),
        "failed": sum(tally.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in emit.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and write a BENCH record")
    parser.add_argument("--out", default=os.path.join(HERE, "out", "BENCH.json"))
    parser.add_argument("--record-references", action="store_true", help="rewrite the geodesic pool and its reference lengths")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        _, import_s, inputs_s = setup(args.workload, args.seed)
        print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "inputs_s": inputs_s}))
        return 0
    if args.record_references:
        import_program()
        import workloads

        workloads.record_references()
        print(f"wrote {workloads.REFERENCES}")
        return 0
    if args.report:
        import_program()
        import report

        return report.main(args)
    if args.workload is None:
        parser.error("--workload or --report is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
