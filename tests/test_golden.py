"""Golden output: the realizer and decomposition JSON of fixed instances, by SHA-256.

The first digest pins the exact bytes ``dumps_realizer(realize_tw2(p))``
produces on the acceptance corpus plus two n=300 instances (a forest, whose
decomposition is deep, and a random treewidth-2 poset).  The second pins
``dumps_decomposition`` of the embedding ``decompose`` prints, on the corpus
plus a chain and a forest at n=300.  The third pins ``decompose --dot``, the
DOT text of the augmented host with its fill edges dashed, on the same
instances.  A refactor of the closure, the embedding,
the classifier or the extension sort must leave all three unchanged; a change that
alters the output on purpose has to say why and update the digest.

The composition tree is balanced: each series or parallel run is re-bracketed
at the midpoint of its leaf counts, which changes the decomposition and the
signature classes.  With the balancing pass replaced by the reference
resolver (oriented from the root by vertex membership, no re-bracketing), the
output is the one the left-deep tree gives, pinned by the two unbalanced digests.

All four digests moved twice on purpose, each time because a component with
more edges than vertices got other terminals.  First, when the terminal-pair
search was replaced by one reduction per component, such a component took the
last two vertices of a set-based reduction that tested its treewidth, not the
first pair a batched search accepted.  Then, when the reduction that builds the
tree became the only one, it took the last two vertices of that min-heap
reduction, run with no pinned vertex.  Forests and chains, whose components
have no more edges than vertices, kept their terminals and their bytes both
times.  ``python tests/test_golden.py`` (with ``src`` and ``tests`` on
``PYTHONPATH``) prints the five digests to re-pin them.
"""

import hashlib
import json

from spdim import spembed
from spdim.generators import chain, forest_poset, random_tw2_poset
from spdim.graphs import dumps_dot
from spdim.poset import Poset
from spdim.realizer import Realizer, dumps_realizer, realize_tw2
from spdim.spembed import embed_into_sp
from spdim.stdecomp import build_st_decomposition, dumps_decomposition

from oracles import covers, decomposition_to_json, realizer_to_json, reference_resolve
from test_acceptance import CORPUS

GOLDEN_SHA256 = "c7f61387fd74f57df2b5a41cc251f0493da43777e3d56bba1927e1b9135f4594"
DECOMPOSE_SHA256 = "f8a5dee6b1cb5e410441ac2b04cdcac078ff56227e0e6d7407a7e92b77028384"
DOT_SHA256 = "b0b6eb3cf03e6059d2ec1b5ef570da8b5377c40d18b79470d5c6ce4928e84cc5"
UNBALANCED_GOLDEN_SHA256 = "bd5bde03a8d26ddebd120b488aeff0235cc35230083bb7fbcd50a078e4c82434"
UNBALANCED_DECOMPOSE_SHA256 = "a39bc1cc5b4a95baff0f69e0bc8f83e5dd8387fe26a4b4270a2d2e3e2ef03e27"


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


def decomposition_of(p):
    "The decomposition ``decompose`` prints."
    embedding = embed_into_sp(p.cover_graph())
    return build_st_decomposition(embedding.sp, embedding.names)


def decompose_instances():
    yield from (random_tw2_poset(n, seed) for seed, n in CORPUS)
    yield chain(300)
    yield forest_poset(300, 1)


def decompose_digest():
    h = hashlib.sha256()
    for p in decompose_instances():
        h.update(dumps_decomposition(decomposition_of(p)).encode("utf-8"))
    return h.hexdigest()


def test_decompose_output_matches_golden_digest():
    assert decompose_digest() == DECOMPOSE_SHA256


def dot_digest():
    "The digest of what ``decompose --dot`` prints: the augmented host, fill edges dashed."
    h = hashlib.sha256()
    for p in decompose_instances():
        emb = embed_into_sp(p.cover_graph())
        h.update(dumps_dot(emb.host, emb.added_edges).encode("utf-8"))
    return h.hexdigest()


def test_decompose_dot_output_matches_golden_digest():
    assert dot_digest() == DOT_SHA256


def test_unbalanced_tree_keeps_earlier_realizer_digest(monkeypatch):
    monkeypatch.setattr(spembed, "_normalized", reference_resolve)
    assert golden_digest() == UNBALANCED_GOLDEN_SHA256


def test_unbalanced_tree_keeps_earlier_decompose_digest(monkeypatch):
    monkeypatch.setattr(spembed, "_normalized", reference_resolve)
    assert decompose_digest() == UNBALANCED_DECOMPOSE_SHA256


def relabelled(p):
    """The poset with names that JSON must escape: quotes, backslashes, control characters
    (not whitespace, which no name holds), non-ASCII."""
    odd = ['q"uote', "back\\slash", "caf\u00e9", "\u65e5\u672c", "bs\bbell\x07", "\U0001d11e"]
    names = {e: "%s%d" % (odd[k % len(odd)], k) for k, e in enumerate(p.elements)}
    return Poset([names[e] for e in p.elements], [(names[x], names[y]) for x, y in covers(p)])


def test_writers_match_json_dumps():
    "The hand-written writers give exactly the bytes of ``json.dumps(..., indent=2)``."
    posets = [random_tw2_poset(n, seed) for seed, n in CORPUS]
    posets += [relabelled(random_tw2_poset(30, 4)), relabelled(forest_poset(20, 2)),
               Poset(["only"]), Poset([]), chain(5), relabelled(chain(4))]
    for p in posets:
        r = realize_tw2(p)
        assert dumps_realizer(r) == json.dumps(realizer_to_json(r), indent=2) + "\n"
        d = decomposition_of(p)
        assert dumps_decomposition(d) == json.dumps(decomposition_to_json(d), indent=2) + "\n"
    assert realize_tw2(chain(5)).extensions[0][0] is None
    assert dumps_realizer(Realizer(())) == json.dumps([], indent=2) + "\n"


if __name__ == "__main__":
    # Print the five digests, to re-pin them after an intended output change:
    # PYTHONPATH=src:tests python tests/test_golden.py
    print("GOLDEN_SHA256 =", golden_digest())
    print("DECOMPOSE_SHA256 =", decompose_digest())
    print("DOT_SHA256 =", dot_digest())
    spembed._normalized = reference_resolve  # as the unbalanced tests patch it
    print("UNBALANCED_GOLDEN_SHA256 =", golden_digest())
    print("UNBALANCED_DECOMPOSE_SHA256 =", decompose_digest())
