#!/usr/bin/env python3
"""Reproduce the stock negative results at the terminal.

1. The weighted plane product is linear in its first argument,
   homogeneous in its second, and associated to the Euclidean norm,
   yet violates Cauchy-Schwarz at (1,2), (1,1).
2. In the max-norm space-time model, the plane x3 = x2/2 is a positive
   subspace whose unit disc is not convex, so Cauchy-Schwarz fails there
   too; a seeded search exhibits a violating pair.
3. The max norm is not strictly convex: a flat piece of its unit sphere
   yields non-parallel vectors attaining the Cauchy-Schwarz equality.
"""

from sipmink.numerics import Seed
from sipmink.suites import stock_counterexamples


def main():
    found = stock_counterexamples(Seed(42))
    val = found.plane_value
    qu, qv = found.plane_squares
    print("== weighted plane product ==")
    print(f"[(1,2),(1,1)] = {val}  (= 10/3)")
    print(f"[u,u] [v,v]   = {qu} * {qv} = {qu * qv}")
    print(f"violation     : {val}^2 = {val**2:.6f} > {qu * qv}, margin {found.plane_margin:.6f}")

    print("\n== positive subspace of the max-norm space-time ==")
    assert found.max_plane_witness is not None, "expected a violation on the plane x3 = x2/2"
    wu, wv, margin = found.max_plane_witness
    print(f"u = {wu}")
    print(f"v = {wv}")
    print(f"[u,v]+^2 - [u,u]+[v,v]+ = {margin:.6f} > 0")

    print("\n== max norm is not strictly convex ==")
    assert found.flat_witness is not None
    x, y = found.flat_witness
    print(f"x = {x}, y = {y}: [x,y] = |x||y| = 1 with y not a positive multiple of x")


if __name__ == "__main__":
    main()
