"""Golden output: the realizer and decomposition JSON of fixed instances, by SHA-256.

The first digest pins the exact bytes ``dumps_realizer(realize_tw2(p))``
produces on the acceptance corpus plus two n=300 instances (a forest, whose
decomposition is deep, and a random treewidth-2 poset).  The second pins
``dumps_decomposition`` of the embedding ``decompose`` prints, on the corpus
plus a chain and a forest at n=300.  A refactor of the closure, the embedding,
the classifier or the extension sort must leave both unchanged; a change that
alters the output on purpose has to say why and update the digest.
"""

import hashlib

from spdim.generators import chain, forest_poset, random_tw2_poset
from spdim.realizer import dumps_realizer, realize_tw2
from spdim.spembed import augment_with_fresh_terminals, embed_into_sp
from spdim.stdecomp import build_st_decomposition, dumps_decomposition

from test_acceptance import CORPUS

GOLDEN_SHA256 = "917f6c5bbfafcea3a604850dc2b244688c518ddd2f4b1d42547df148e5e8e8c6"
DECOMPOSE_SHA256 = "ff9446405028aa55f5dde0578f5f71e26ec001007c4aecef090c9091622d868d"


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


def decompose_digest():
    h = hashlib.sha256()
    instances = [random_tw2_poset(n, seed) for seed, n in CORPUS]
    for p in instances + [chain(300), forest_poset(300, 1)]:
        embedding = augment_with_fresh_terminals(embed_into_sp(p.cover_graph()))
        decomp = build_st_decomposition(embedding.sp, embedding.host)
        h.update(dumps_decomposition(decomp).encode("utf-8"))
    return h.hexdigest()


def test_decompose_output_matches_golden_digest():
    assert decompose_digest() == DECOMPOSE_SHA256
