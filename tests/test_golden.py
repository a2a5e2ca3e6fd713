"""Golden output: the realizer JSON of a fixed instance set, by SHA-256.

The digest pins the exact bytes ``dumps_realizer(realize_tw2(p))`` produces
on the acceptance corpus plus two n=300 instances (a forest, whose
decomposition is deep, and a random treewidth-2 poset).  A refactor of the
classifier or the extension sort must leave it unchanged; a change that
alters the output on purpose has to say why and update the digest.
"""

import hashlib

from spdim.generators import forest_poset, random_tw2_poset
from spdim.realizer import dumps_realizer, realize_tw2

from test_acceptance import CORPUS

GOLDEN_SHA256 = "917f6c5bbfafcea3a604850dc2b244688c518ddd2f4b1d42547df148e5e8e8c6"


def golden_instances():
    for seed, n in CORPUS:
        yield random_tw2_poset(n, seed)
    yield forest_poset(300, 1)
    yield random_tw2_poset(300, 1)


def golden_digest():
    h = hashlib.sha256()
    for p in golden_instances():
        h.update(dumps_realizer(realize_tw2(p)).encode("utf-8"))
    return h.hexdigest()


def test_realizer_output_matches_golden_digest():
    assert golden_digest() == GOLDEN_SHA256
