"""Command-line harness.

Verbs: classify, product, ortho, auerbach, tangent, distance, verify,
counterexample.  Spaces and tolerances come from a flat key-value config
file (``--config``, see ``config.py``).  Each verb takes only the
overrides it reads: classify ``--out``; auerbach and counterexample
``--seed``; distance ``--nodes --out``; verify ``--seed --trials
--nodes --out`` and ``--matrix``; product, ortho and tangent none.

Exit codes: 0 all passed, 1 suite failure, 2 usage or config error (an
unwritable output path or a failed allocation too), 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import hyperboloid as hyp
from . import minkowski as mink
from . import ortho
from .config import RunConfig, load_config
from .errors import (
    ConvergenceError,
    NumericalError,
    PathError,
    SipminkError,
    UsageError,
)
from .isometry import isometry_report, load_matrix_csv
from .numerics import Seed
from .suites import FMT, SUITES, fmt_vec, isometry_rows, iter_suites, rows_to_csv, stock_counterexamples


def _parse_vector(text: str) -> np.ndarray:
    try:
        v = np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}; expected comma-separated reals") from None
    if not np.all(np.isfinite(v)):
        raise UsageError(f"vector {text!r} has a non-finite coordinate")
    return v


# override flag (named after the RunConfig field it sets) -> (type, help)
_OVERRIDES = {
    "seed": (int, "override the config seed"),
    "trials": (int, "override sampling trial count"),
    "nodes": (int, "override path node count"),
    "out": (str, "CSV output path"),
}


class _Unread(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"unrecognized arguments: {option_string}")  # under the verb's own usage


def _verb(subs, name: str, run, help: str, *overrides: str) -> argparse.ArgumentParser:
    """A verb's parser, which carries its command ``run``: ``--config``, the
    overrides it reads, the others hidden as errors."""
    p = subs.add_parser(name, help=help)
    p.set_defaults(run=run, parser=p)  # leftover arguments are reported under this parser's usage
    p.add_argument("--config", help="path to a key=value config file")
    for flag, (kind, text) in _OVERRIDES.items():
        if flag in overrides:
            p.add_argument(f"--{flag}", type=kind, help=text)
        else:
            p.add_argument(f"--{flag}", nargs="?", action=_Unread, help=argparse.SUPPRESS)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sipmink", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = _verb(subs, "classify", cmd_classify, "classify vectors as space-/time-/light-like", "out")
    p.add_argument("vectors", nargs="+", help="vectors as comma-separated reals")

    p = _verb(subs, "product", cmd_product, "evaluate both products of a vector pair")
    p.add_argument("u")
    p.add_argument("v")

    p = _verb(subs, "ortho", cmd_ortho, "test an orthogonality relation")
    p.add_argument("relation", choices=sorted(r.value for r in ortho.OrthoRelation))
    p.add_argument("x")
    p.add_argument("y")

    _verb(subs, "auerbach", cmd_auerbach, "Auerbach basis of the configured space", "seed")

    p = _verb(subs, "tangent", cmd_tangent, "tangent frame at a lifted point of H+")
    p.add_argument("s", help="S-coordinates of the base point")

    p = _verb(subs, "distance", cmd_distance, "geodesic distance between lifted points", "nodes", "out")
    p.add_argument("a_s")
    p.add_argument("b_s")

    p = _verb(subs, "verify", cmd_verify, "run named verification suites", "seed", "trials", "nodes", "out")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--matrix", help="CSV file with a linear map to check for the isometry law")

    _verb(subs, "counterexample", cmd_counterexample, "reproduce the stock counterexamples", "seed")
    return parser


def _config(args) -> RunConfig:
    """The config file with the override flags given (every verb has all four; unread ones stay None)."""
    given = {flag: getattr(args, flag) for flag in _OVERRIDES}
    return replace(load_config(args.config), **{flag: v for flag, v in given.items() if v is not None})


def _output(path: str) -> str:
    """``path``, if a file can be written there, else a UsageError naming
    it.  It creates nothing, so a verb checks its output before any work."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path!r}: it is a directory")
    if not os.access(folder, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise UsageError(f"cannot write {path!r}: no such directory, or no permission")
    return path


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:  # a failure that _output could not foresee
        raise UsageError(f"cannot write {path!r}: {err.strerror}") from None


def cmd_classify(args) -> int:
    cfg = _config(args)
    out = _output(cfg.out) if cfg.out else None
    space = cfg.space()
    rows = []  # every row before any output: a bad vector leaves stdout empty
    for text in args.vectors:
        v = _parse_vector(text)
        q = mink.product_plus(space, v, v)
        cls = mink.classify(space, v, cfg.tolerances.class_tol)
        cone = (
            mink.cone_part(space, v, cfg.tolerances.class_tol).value
            if space.is_spacetime_model
            else "n/a"
        )
        rows.append((text, q, cls.value, cone))
    print("vector | [v,v]+ | class | cone")
    for text, q, cls, cone in rows:
        print(f"{text} | {FMT % q} | {cls} | {cone}")
    if out:
        lines = ["vector,square,class,cone"]
        lines += [f'"{t}",{FMT % q},{c},{cp}' for t, q, c, cp in rows]
        _write(out, "\n".join(lines) + "\n")
    return 0


def cmd_product(args) -> int:
    cfg = _config(args)
    space = cfg.space()
    u = _parse_vector(args.u)
    v = _parse_vector(args.v)
    print(f"[u,v]- = {FMT % mink.product_minus(space, u, v)}")
    print(f"[u,v]+ = {FMT % mink.product_plus(space, u, v)}")
    return 0


def cmd_ortho(args) -> int:
    cfg = _config(args)
    block = cfg.s_norm()
    rel = ortho.OrthoRelation(args.relation)
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    result = ortho.relation_report(block, rel, x, y, cfg.tolerances.eq_tol, cfg.tolerances.opt_tol)
    lam = "" if result.lam is None else f" lambda* = {FMT % result.lam}"
    print(f"{args.relation}: {str(result.related).lower()} residual = {FMT % result.residual}{lam}")
    return 0


def cmd_auerbach(args) -> int:
    cfg = _config(args)
    space = cfg.space()
    basis = ortho.minkowski_auerbach(space, Seed(cfg.seed), cfg.tolerances)
    print("Auerbach basis (rows):")
    for b in basis:
        print("  " + fmt_vec(b))
    return 0


def cmd_tangent(args) -> int:
    cfg = _config(args)
    space = cfg.space()
    v = hyp.lift(space, _parse_vector(args.s))
    frame = hyp.tangent_frame(space, v)
    print(f"base point: {fmt_vec(v.vector)}")
    for u in frame.vectors:
        q = mink.product_plus(space, u, v.vector)
        cls = mink.classify(space, u, cfg.tolerances.class_tol)
        print(f"  {fmt_vec(u)} | [u,v]+ = {FMT % q} | {cls.value}")
    return 0


def cmd_distance(args) -> int:
    cfg = _config(args)
    out = _output(cfg.out) if cfg.out else None
    space = cfg.space()
    a = hyp.lift(space, _parse_vector(args.a_s))
    b = hyp.lift(space, _parse_vector(args.b_s))
    path, d = hyp.geodesic_path(space, a, b, cfg.nodes, tolerances=cfg.tolerances)
    mk = mink.product_plus(space, a.vector, b.vector)
    residual = abs(mk + float(np.cosh(d)))
    tag = "" if space.is_pseudo_euclidean else " (exploratory)"
    print(f"distance = {FMT % d}  nodes = {cfg.nodes}")
    print(f"[a,b]+ = {FMT % mk}")
    print(f"cosh residual = {FMT % residual}{tag}")
    if out:
        _write(out, hyp.path_to_csv(path))
        print(f"path: {out}")
    return 0


def cmd_verify(args) -> int:
    cfg = _config(args)
    out = _output(cfg.out or "verify_report.csv")
    matrix_rows = []
    if args.matrix:  # read, checked and reported before the first suite runs
        F = load_matrix_csv(args.matrix)
        rep = isometry_report(cfg.space(), F, Seed(cfg.seed), cfg.trials, cfg.tolerances)
        matrix_rows = isometry_rows("user_matrix", rep, cfg.tolerances.eq_tol)
        print(
            f"{'PASS' if all(r.passed for r in matrix_rows) else 'FAIL'} user matrix: "
            f"product {FMT % rep.product_residual}, adjoint {FMT % rep.adjoint_residual}, "
            f"pole on upper sheet: {str(rep.pole_in_upper_sheet).lower()}"
        )
    rows = []
    for res, suite_rows in iter_suites([args.suite], cfg):  # each line as its suite finishes
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.suite}: worst residual {FMT % res.worst_residual}"
            + (f" witness {res.witness}" if not res.passed else "")
            + f" ({res.duration:.2f}s)",
            flush=True,
        )
        rows += suite_rows
    rows += matrix_rows
    _write(out, rows_to_csv(rows))
    print(f"report: {out}")
    return 0 if all(r.passed for r in rows) else 1


def cmd_counterexample(args) -> int:
    cfg = _config(args)
    found = stock_counterexamples(Seed(cfg.seed), cfg.tolerances)
    qu, qv = found.plane_squares
    print("Cauchy-Schwarz fails for the weighted plane product:")
    print(f"  [(1,2),(1,1)] = {FMT % found.plane_value} with [u,u][v,v] = {FMT % (qu * qv)}")
    print(f"  margin = {FMT % found.plane_margin}")
    if found.max_plane_witness is None:
        print("max-norm space-time plane: no violation sampled")
        return 1
    wu, wv, margin = found.max_plane_witness
    print("Cauchy-Schwarz fails on a positive subspace of the max-norm space-time:")
    print(f"  u = {fmt_vec(wu)}")
    print(f"  v = {fmt_vec(wv)}")
    print(f"  margin = {FMT % margin}")
    flat = found.flat_witness
    if flat is not None:
        print("max norm is not strictly convex; equality witness:")
        print(f"  x = {fmt_vec(flat[0])}, y = {fmt_vec(flat[1])}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
        if rest:
            args.parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError, PathError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except SipminkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # numpy's allocation failures subclass it, with the request in the message
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
