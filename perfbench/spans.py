"""Span tracer that wraps sipmink layer functions from outside the library.

Each wrapped call records one span: name, start, end, parent span and op
id, plus one number the layer metrics need (rows of a ``norm_batch``
call, segments of a ``_segment_lengths`` call, the value a
``_path_energy`` call returned) and whether it raised.  Spans are kept in
flat arrays while the traced phase runs and are written out once at the
end.  A span's self time is its duration minus the time its child spans
cover; calls run on one thread, so children nest inside their parent and
never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped in every sipmink namespace that binds them.
LAYER_FUNCTIONS = (
    ("norms", "sip"),
    ("norms", "norm"),
    ("norms", "norm_batch"),
    ("minkowski", "product_plus"),
    ("minkowski", "product_minus"),
    ("minkowski", "classify"),
    ("siip", "siip"),
    ("siip", "cauchy_schwarz_witness"),
    ("ortho", "pythagorean_subspace_scan"),
    ("ortho", "orthogonal_companion_basis"),
    ("ortho", "birkhoff_margin"),
    ("isometry", "strict_convexity_witness"),
    ("isometry", "isometry_report"),
    ("hyperboloid", "lift"),
    ("hyperboloid", "geodesic_path"),
    ("hyperboloid", "_segment_lengths"),
    ("hyperboloid", "_path_energy"),
    ("hyperboloid", "_energy_gradient"),
    ("hyperboloid", "_relax_gradient"),
    ("hyperboloid", "_relax_simplex"),
    ("numerics", "minimize"),
)

OK, CONVERGENCE_ERROR, OTHER_ERROR = 0, 1, 2


def _batch_rows(args, kwargs):
    X = np.asarray(args[1] if len(args) > 1 else kwargs["X"])
    return X.size // X.shape[-1] if X.ndim else 1


def _segments(args, kwargs):
    return np.shape(args[1] if len(args) > 1 else kwargs["seg_starts"])[0]


# Per-call sizes recorded in a span's ``extra`` column: metric suffix, getter.
_SIZE_OF = {"norms.norm_batch": ("rows", _batch_rows), "hyperboloid._segment_lengths": ("segments", _segments)}
# Spans whose ``extra`` column holds the returned value.
_VALUE_OF = {"hyperboloid._path_energy"}


class Tracer:
    """Collects spans of the wrapped layer functions; set ``op`` per op."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS]
        self.op = -1
        self._next = 0
        self._stack = [-1]
        self.sid, self.name, self.parent, self.op_id, self.status = (array("q") for _ in range(5))
        self.start, self.end, self.extra = (array("d") for _ in range(3))
        self._patched = []

    def _wrap(self, index, fn):
        name = self.names[index]
        size_of = _SIZE_OF.get(name, (None, None))[1]
        keep_value = name in _VALUE_OF
        stack = self._stack
        clock = time.perf_counter
        convergence_error = sys.modules["sipmink.errors"].ConvergenceError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            status = OK
            extra = float(size_of(args, kwargs)) if size_of else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                status = CONVERGENCE_ERROR if isinstance(err, convergence_error) else OTHER_ERROR
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.sid.append(sid)
                self.name.append(index)
                self.parent.append(parent)
                self.op_id.append(self.op)
                self.status.append(status)
                self.start.append(t0)
                self.end.append(t1)
                self.extra.append(extra)
            if keep_value:
                self.extra[-1] = float(result)
            return result

        return traced

    def install(self):
        """Replace every binding of each layer function in sipmink.* modules."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "sipmink" or n.startswith("sipmink."))]
        for index, (mod, fn_name) in enumerate(LAYER_FUNCTIONS):
            original = getattr(sys.modules[f"sipmink.{mod}"], fn_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        """Spans as numpy columns, ordered by span id (entry order)."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        cols = {
            "name": self.name, "parent": self.parent, "op": self.op_id, "status": self.status,
            "start": self.start, "end": self.end, "extra": self.extra,
        }
        out = {k: np.frombuffer(v, dtype=np.int64 if v.typecode == "q" else np.float64)[order] for k, v in cols.items()}
        dur = out["end"] - out["start"]
        has_parent = out["parent"] >= 0
        covered = np.bincount(out["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        out["self"] = dur - covered[: len(dur)]
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op layer metrics from the spans of ops 0..n_ops-1."""
    sp = tracer.arrays()
    in_op = (sp["op"] >= 0) & (sp["op"] < n_ops)
    per_op = 1.0 / max(1, n_ops)
    out = {}
    for index, name in enumerate(tracer.names):
        mask = in_op & (sp["name"] == index)
        calls = int(np.count_nonzero(mask))
        out[f"{name}.calls"] = calls * per_op
        out[f"{name}.self_s"] = float(np.sum(sp["self"][mask])) * per_op
        if name in _SIZE_OF:
            out[f"{name}.{_SIZE_OF[name][0]}"] = float(np.mean(sp["extra"][mask])) if calls else 0.0
        if name == "numerics.minimize":
            failed = np.count_nonzero(sp["status"][mask] == CONVERGENCE_ERROR)
            out["numerics.minimize.fail_ratio"] = failed / calls if calls else 0.0
    out["hyperboloid.energy_rise_ratio"] = _energy_rise_ratio(tracer, sp, in_op)
    return out


def _energy_rise_ratio(tracer, sp, in_op) -> float:
    """Share of consecutive _path_energy results, within one _relax_gradient
    call, where the energy went up."""
    energy = in_op & (sp["name"] == tracer.names.index("hyperboloid._path_energy"))
    parents = sp["parent"][energy]
    values = sp["extra"][energy]
    same_call = parents[1:] == parents[:-1]
    steps = int(np.count_nonzero(same_call))
    if not steps:
        return 0.0
    rises = int(np.count_nonzero(same_call & (values[1:] > values[:-1])))
    return rises / steps
