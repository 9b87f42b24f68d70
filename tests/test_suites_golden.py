"""Golden digests of the verification CSV.

Every suite except ``geodesic-cosh`` runs at 200 trials on the three stock
configs (Euclidean, p=3 and max S block over a one-dimensional Euclidean T
block), and the SHA-256 of the CSV must match a recorded digest.  The
seed-42 digests are the ones the benchmark pins; the seed-1 and seed-7
digests were recorded before the sampled trials ran as row-wise array
code.  Three more configs (a three-dimensional Euclidean or max S block,
and p=4) reach companion pivots, tie nudges and exponents the stock three
do not; their digests were recorded before the space-time suites
(``lemma3``, ``lemma4``, ``tangent``, ``theorem10``, ``theorem2``) ran as
row-wise array code.  A change that moves any residual or witness in the last printed
digit changes a digest.

The ``geodesic-cosh`` rows have digests of their own, on the stock three
configs at seed 42 and 16 nodes; they pin the geodesic solvers' lengths
through the arccosh-law residuals and witnesses.
"""

import hashlib

import pytest

from sipmink import suites
from sipmink.config import config_from_mapping, parse_config

STOCK_CONFIGS = {
    "euclidean": 'space.s.norm = "euclidean"\n',
    "pnorm3": 'space.s.norm = "pnorm"\nspace.s.p = 3\n',
    "max": 'space.s.norm = "max"\n',
    # configs that reach branches the stock three do not
    "euclidean_dim3": 'space.s.norm = "euclidean"\nspace.s.dim = 3\n',  # companion pivots vary
    "max_dim3": 'space.s.norm = "max"\nspace.s.dim = 3\n',  # the tie nudge with k = 3
    "pnorm4": 'space.s.norm = "pnorm"\nspace.s.p = 4\n',
}
SUITE_NAMES = [name for name in sorted(suites.SUITES) if name != "geodesic-cosh"]

GOLDEN_SHA256 = {
    (42, "euclidean"): "9e1494e17d9b750d365cdcdf605bd9eda4fea79e5dc81c4e8dd6f07b93b15734",
    (42, "pnorm3"): "972025dbf1bdb981d849680d52463a35d9f47d1c996451dfeb2ade9a9b03d56b",
    (42, "max"): "59ab4e9542c01859b87b211dff9c7b44b5c3e28929aa9bd9c82f89c185a09859",
    (1, "euclidean"): "930ae53d79e824e8ae91e0d31030f8e35b33bd3bb4ce11d1ec394a5e960bb56a",
    (1, "pnorm3"): "30577ba529c6afd61ac4251dacd71beaef308bafd8cefbb9783d55666a7c5315",
    (1, "max"): "30cc95e74fbd8851dd10dfba4c142c93a4f990fdb2e6c78def197f7eee7a57dd",
    (7, "euclidean"): "ea9122a17920a130e7da822d6a3a348fbe9894b7277f8ef28a778a93c956a17c",
    (7, "pnorm3"): "58c78b78c4cd6cca9d4eae7b87d5a7de08f2f9c233ece83283bf223b9c1b9a68",
    (7, "max"): "66e449f5cb45d516a6f49b977f17fb5b5ea680efa8f06e6fc706f75976da52a0",
    (42, "euclidean_dim3"): "a795525d926c067b59a79ea49913df441bca96e9ef49b9bee3bb945aecb88cd2",
    (42, "max_dim3"): "8d6d83617f8a1a4940bf86522d67856225824e634898aa32d93834b7ceddb549",
    (42, "pnorm4"): "7f5991e5ec6afa0f0213ab29fde79f3625116ef12cafe4bb1f1dfbf16639ce7f",
    (1, "euclidean_dim3"): "0f1b70275df83b54dc12750d67c9c86b15a3e15b90f5347448112d3cee1cc5be",
    (1, "max_dim3"): "d5d3263410c37d23373ebd0191c11708b0d1d52d692fc3e692af34adad7ca695",
    (1, "pnorm4"): "2beed0d226cfd03cb620124073890ee21c11dbf76484a4324feb90b073ed299b",
    (7, "euclidean_dim3"): "4a4e1bd6d78e58313e2f7ab0c7234966a64c4312c1827a0aec3924e9ab091365",
    (7, "max_dim3"): "239b5f062d83161be26ac7bc011584a209e4e5140f1783dcfb2dde156ff64a8b",
    (7, "pnorm4"): "6deb4bdf34de74d3a43cec4a6fa25aa4c9426dc105991af45eed9c442a61c646",
}


@pytest.mark.parametrize("seed, label", sorted(GOLDEN_SHA256))
def test_suite_csv_digest(seed, label):
    cfg = config_from_mapping(parse_config(STOCK_CONFIGS[label] + f"seed = {seed}\ntrials = 200\n"))
    results, rows = suites.run_suites(SUITE_NAMES, cfg)
    assert all(r.passed for r in results)
    digest = hashlib.sha256(suites.rows_to_csv(rows).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(seed, label)]


GEODESIC_COSH_SHA256 = {
    "euclidean": "1d07d13e06b4549321e957ef219adc1bd4e336150cc3995ea25751daadbe4d2a",
    "pnorm3": "802e3c408a4e5965973045d7f6d17c1dd9a603acaf528f812db9624fd5e02ddb",
    "max": "c4bcbac0649ceef3791a1f3d6fe35cc40c50866caf3a88d28b865d5909694748",
}


@pytest.mark.parametrize("label", sorted(GEODESIC_COSH_SHA256))
def test_geodesic_cosh_csv_digest(label):
    cfg = config_from_mapping(parse_config(STOCK_CONFIGS[label] + "seed = 42\nnodes = 16\n"))
    results, rows = suites.run_suites(["geodesic-cosh"], cfg)
    assert all(r.passed for r in results)
    digest = hashlib.sha256(suites.rows_to_csv(rows).encode()).hexdigest()
    assert digest == GEODESIC_COSH_SHA256[label]
