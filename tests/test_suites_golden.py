"""Golden digests of the verification CSV.

Every suite except ``geodesic-cosh`` runs at 200 trials on the three stock
configs (Euclidean, p=3 and max S block over a one-dimensional Euclidean T
block), and the SHA-256 of the CSV must match a recorded digest.  The
seed-42 digests are the ones the benchmark pins; the seed-1 and seed-7
digests were recorded before the sampled trials ran as row-wise array
code.  A change that moves any residual or witness in the last printed
digit changes a digest.
"""

import hashlib

import pytest

from sipmink import suites
from sipmink.config import config_from_mapping, parse_config

STOCK_CONFIGS = {
    "euclidean": 'space.s.norm = "euclidean"\n',
    "pnorm3": 'space.s.norm = "pnorm"\nspace.s.p = 3\n',
    "max": 'space.s.norm = "max"\n',
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
}


@pytest.mark.parametrize("seed, label", sorted(GOLDEN_SHA256))
def test_suite_csv_digest(seed, label):
    cfg = config_from_mapping(parse_config(STOCK_CONFIGS[label] + f"seed = {seed}\ntrials = 200\n"))
    results, rows = suites.run_suites(SUITE_NAMES, cfg)
    assert all(r.passed for r in results)
    digest = hashlib.sha256(suites.rows_to_csv(rows).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(seed, label)]
