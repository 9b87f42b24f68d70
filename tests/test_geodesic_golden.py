"""Golden geodesic lengths: the exact ``repr`` of eight relaxed distances.

The first four pairs and lengths are copied from the benchmark's pool of
reference pairs: two max-norm pairs at m=16 (node-wise simplex
relaxation) and a Euclidean and a p=3 pair at m=32 (gradient relaxation).
The last four run the gradient relaxation on one- and three-dimensional
S blocks (1+1 and 3+1 pseudo-Euclidean) at m=16 and 32, so the layout of
the batched kernels is pinned at k != 2 too.  A change to the solvers or
the kernels under them that is meant to be bit-identical must keep every
digit; one that is meant to move lengths must re-record them.
"""

import pytest

from sipmink.hyperboloid import geodesic_distance, lift
from sipmink.minkowski import GeneralizedMinkowskiSpace, max_norm_spacetime
from sipmink.norms import NormSpec

SPACES = {
    "max": max_norm_spacetime(),
    "euclidean": GeneralizedMinkowskiSpace.pseudo_euclidean(2),
    "pnorm3": GeneralizedMinkowskiSpace.from_norms(NormSpec.pnorm(3.0, 2), NormSpec.euclidean(1)),
    "pseudo11": GeneralizedMinkowskiSpace.pseudo_euclidean(1),
    "pseudo31": GeneralizedMinkowskiSpace.pseudo_euclidean(3),
}

# (space, m, a.s, b.s, repr of the length)
GOLDEN = [
    ("max", 16, [0.2691057628855409, -1.1437407707393643], [-0.2220297634684214, -0.6424483511321222],
     "0.37457084517956896"),
    ("max", 16, [0.46240134437993907, -1.0953670084224758], [-0.5330282567310994, -0.813062109121784],
     "0.7416262220927197"),
    ("euclidean", 32, [-0.25658300446183435, 0.4171015363784454], [-1.104944256036505, -0.1949500497816914],
     "0.9363104583096205"),
    ("pnorm3", 32, [0.03780182417959077, 0.5150240952394758], [0.416690047621352, 0.8985890370112879],
     "0.41439159506552126"),
    ("pseudo11", 16, [0.35], [-1.2], "1.3591946881570656"),
    ("pseudo11", 32, [0.35], [-1.2], "1.359194689181367"),
    ("pseudo31", 16, [0.2, -0.4, 0.5], [-0.6, 0.5, 0.1], "1.1946968175749322"),
    ("pseudo31", 32, [0.2, -0.4, 0.5], [-0.6, 0.5, 0.1], "1.1946811780576985"),
]


@pytest.mark.parametrize("label, m, a, b, expected", GOLDEN, ids=[f"{g[0]}-{i}" for i, g in enumerate(GOLDEN)])
def test_length_is_bit_identical(label, m, a, b, expected):
    space = SPACES[label]
    assert repr(geodesic_distance(space, lift(space, a), lift(space, b), m)) == expected
