"""The benchmark's geodesic pools, run through both solvers: every pair's
length equals the one ``perfbench/references.json`` records for it, bit for
bit, and a pair recorded without a length raises the error recorded for it.
The file is only read."""

import json
from pathlib import Path

import pytest

from sipmink import hyperboloid as hyp
from sipmink import minkowski as mink
from sipmink.errors import SipminkError
from sipmink.minkowski import GeneralizedMinkowskiSpace
from sipmink.norms import NormSpec

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"

SPACES = {  # the spaces of the pool's labels, as perfbench/workloads.py makes them
    "euclidean": lambda: GeneralizedMinkowskiSpace.pseudo_euclidean(2),
    "pnorm3": lambda: GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1)),
    "max": mink.max_norm_spacetime,
}


def _pool(name: str):
    """The workload's m and its pairs as (space, a, b, row) with lifted points."""
    entry = json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"][name]
    spaces = {label: make() for label, make in SPACES.items()}
    pairs = []
    for row in entry["pairs"]:
        space = spaces[row["space"]]
        pairs.append((space, hyp.lift(space, row["a"]), hyp.lift(space, row["b"]), row))
    return entry["m"], pairs


def _outcome(space, a, b, m):
    try:
        return hyp.geodesic_distance(space, a, b, m)
    except SipminkError as err:
        return type(err).__name__


@pytest.mark.parametrize("name", ["geodesic-max", "geodesic-smooth"])
def test_pool_lengths_equal_their_references(name):
    m, pairs = _pool(name)
    got = [_outcome(space, a, b, m) for space, a, b, _ in pairs]
    want = [row["defect"] if row["length"] is None else row["length"] for *_, row in pairs]
    moved = [(row["a"], row["b"], g, w) for (*_, row), g, w in zip(pairs, got, want) if g != w]
    assert not moved, f"{name}: lengths moved from their references: {moved}"


def test_max_pool_node_solves_converge_within_their_budget(monkeypatch):
    # one near and one far max-norm pair: no node solve of _relax_simplex runs
    # out of its 300 iterations, so each node is a converged simplex minimum
    m, pairs = _pool("geodesic-max")
    near = next(p for p in pairs if p[3]["far_radius"] is None)
    far = next(p for p in pairs if p[3]["far_radius"] is not None)
    solves = []

    def recorded(f, X0, opt_tol, max_iter):
        best, values, converged = minimize_rows(f, X0, opt_tol=opt_tol, max_iter=max_iter)
        solves.append((max_iter, converged))
        return best, values, converged

    minimize_rows = hyp.minimize_rows
    monkeypatch.setattr(hyp, "minimize_rows", recorded)
    for space, a, b, row in (near, far):
        assert hyp.geodesic_distance(space, a, b, m) == row["length"]
    assert solves and {budget for budget, _ in solves} == {300}
    assert all(converged.all() for _, converged in solves), "a node solve exhausted its budget"
    assert sum(len(converged) for _, converged in solves) > 100
