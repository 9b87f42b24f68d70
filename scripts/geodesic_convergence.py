#!/usr/bin/env python3
"""Convergence study: discrete geodesic length vs the arccosh law.

For seeded point pairs on the hyperboloid of a pseudo-Euclidean
space-time model, prints the distance error as the node count doubles.
The error is dominated by the chord-lift discretization bias, so it
should shrink roughly like m^-2.
"""

import argparse
import time

import numpy as np

from sipmink import GeneralizedMinkowskiSpace, geodesic_distance, product_plus
from sipmink.hyperboloid import sample_pairs
from sipmink.numerics import Seed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--k", type=int, default=2, help="spatial dimension")
    ap.add_argument("--max-nodes", type=int, default=64)
    args = ap.parse_args()

    space = GeneralizedMinkowskiSpace.pseudo_euclidean(args.k)
    pairs = sample_pairs(space, Seed(args.seed).rng(), args.pairs, window=(0.3, 3.0), radius=1.4)

    ms = []
    m = 8
    while m <= args.max_nodes:
        ms.append(m)
        m *= 2

    print(f"# {args.k}+1 pseudo-Euclidean space, {args.pairs} pairs, seed {args.seed}")
    print("pair  d_exact   " + "  ".join(f"err(m={m})" for m in ms) + "  time")
    for i, (a, b) in enumerate(pairs):
        d = float(np.arccosh(-product_plus(space, a.vector, b.vector)))
        t0 = time.perf_counter()
        errs = [abs(geodesic_distance(space, a, b, m) - d) for m in ms]
        dt = time.perf_counter() - t0
        print(f"{i:4d}  {d:8.5f}  " + "  ".join(f"{e:9.2e}" for e in errs) + f"  {dt:5.2f}s")


if __name__ == "__main__":
    main()
