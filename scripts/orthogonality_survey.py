#!/usr/bin/env python3
"""Survey how the orthogonality relations disagree outside inner-product
planes.

For each norm, draws seeded vector pairs, decides every relation at a
fixed tolerance, and prints the pairwise agreement matrix.  On the
Euclidean plane all relations coincide; on max-norm and p-norm planes
they split apart.
"""

import argparse

import numpy as np

from sipmink import NormSpec
from sipmink.numerics import Seed
from sipmink.ortho import OrthoRelation, is_orthogonal


def survey(space: NormSpec, seed: int, trials: int, tol: float):
    rng = Seed(seed).rng()
    rels = list(OrthoRelation)
    hits = {rel: set() for rel in rels}
    for idx in range(trials):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        if not (np.any(x) and np.any(y)):
            continue
        # orthogonalize y against x in the plain dot product first, so a
        # reasonable share of samples is near some notion of orthogonality
        y = y - (y @ x) / (x @ x) * x if rng.uniform() < 0.5 else y
        for rel in rels:
            if is_orthogonal(space, rel, x, y, tol):
                hits[rel].add(idx)
    return rels, hits


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    spaces = [
        ("euclidean", NormSpec.euclidean(2)),
        ("max", NormSpec.max_norm(2)),
        ("pnorm(3)", NormSpec.pnorm(3.0, 2)),
    ]
    for name, space in spaces:
        rels, hits = survey(space, args.seed, args.trials, args.tol)
        print(f"\n== {name} ==  (matches out of {args.trials} samples)")
        header = "          " + " ".join(f"{r.value[:9]:>9}" for r in rels)
        print(header)
        for r1 in rels:
            cells = []
            for r2 in rels:
                both = len(hits[r1] & hits[r2])
                cells.append(f"{both:9d}")
            print(f"{r1.value[:9]:>9} " + " ".join(cells))


if __name__ == "__main__":
    main()
