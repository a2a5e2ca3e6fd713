"""Golden output: the realizer and decomposition JSON of fixed instances, by SHA-256.

The first digest pins the exact bytes ``dumps_realizer(realize_tw2(p))``
produces on the acceptance corpus plus two n=300 instances (a forest, whose
decomposition is deep, and a random treewidth-2 poset).  The second pins
``dumps_decomposition`` of the embedding ``decompose`` prints, on the corpus
plus a chain and a forest at n=300.  A refactor of the closure, the embedding,
the classifier or the extension sort must leave both unchanged; a change that
alters the output on purpose has to say why and update the digest.

The composition tree is balanced: each series or parallel run is re-bracketed
at the midpoint of its leaf counts, which changes the decomposition and the
signature classes.  With the balancing pass replaced by the reference
resolver (eager mirrors, no re-bracketing), the output is the one the
left-deep tree gives, pinned by the two unbalanced digests.

All four digests moved once on purpose, when the terminal-pair search was
replaced by one reduction per component: a component with more edges than
vertices now takes as terminals the last two vertices of the reduction that
tests its treewidth, not the first pair a batched search accepted.  Forests
and chains, whose components have no more edges than vertices, keep their
terminals and their bytes.  ``python tests/test_golden.py`` (with ``src`` and
``tests`` on ``PYTHONPATH``) prints the four digests to re-pin them.
"""

import hashlib
import json

from spdim import spembed
from spdim.generators import chain, forest_poset, random_tw2_poset
from spdim.poset import Poset
from spdim.realizer import Realizer, dumps_realizer, realize_tw2
from spdim.spembed import augment_with_fresh_terminals, embed_into_sp
from spdim.stdecomp import build_st_decomposition, dumps_decomposition

from oracles import decomposition_to_json, realizer_to_json, reference_resolve
from test_acceptance import CORPUS

GOLDEN_SHA256 = "6b77d7c240bae61cfb0a1624a0520f344cbd4b396f5cbc7253c5849180965221"
DECOMPOSE_SHA256 = "454c8e0a8398d8afd8717704bafde0416300a02779064dec7df7cbd3292067a2"
UNBALANCED_GOLDEN_SHA256 = "47cec669084bd6b46cf20d75144dd2b09da5ae7646929ca4ef1c2c8c1b03d884"
UNBALANCED_DECOMPOSE_SHA256 = "c1c3cba37ae1a3cae1a2cc63bddd4171f56e351ea5cd57b8337d72b61ace50d7"


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
    embedding = augment_with_fresh_terminals(embed_into_sp(p.cover_graph()))
    return build_st_decomposition(embedding.sp, embedding.names)


def decompose_digest():
    h = hashlib.sha256()
    instances = [random_tw2_poset(n, seed) for seed, n in CORPUS]
    for p in instances + [chain(300), forest_poset(300, 1)]:
        h.update(dumps_decomposition(decomposition_of(p)).encode("utf-8"))
    return h.hexdigest()


def test_decompose_output_matches_golden_digest():
    assert decompose_digest() == DECOMPOSE_SHA256


def test_unbalanced_tree_keeps_earlier_realizer_digest(monkeypatch):
    monkeypatch.setattr(spembed, "_normalized", reference_resolve)
    assert golden_digest() == UNBALANCED_GOLDEN_SHA256


def test_unbalanced_tree_keeps_earlier_decompose_digest(monkeypatch):
    monkeypatch.setattr(spembed, "_normalized", reference_resolve)
    assert decompose_digest() == UNBALANCED_DECOMPOSE_SHA256


def relabelled(p):
    "The poset with names that JSON must escape: quotes, backslashes, non-ASCII."
    odd = ['q"uote', "back\\slash", "caf\u00e9", "\u65e5\u672c", "tab\there", "\U0001d11e"]
    names = {e: "%s%d" % (odd[k % len(odd)], k) for k, e in enumerate(p.elements)}
    return Poset([names[e] for e in p.elements], [(names[x], names[y]) for x, y in p.covers()])


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
    # Print the four digests, to re-pin them after an intended output change:
    # PYTHONPATH=src:tests python tests/test_golden.py
    print("GOLDEN_SHA256 =", golden_digest())
    print("DECOMPOSE_SHA256 =", decompose_digest())
    spembed._normalized = reference_resolve  # as the unbalanced tests patch it
    print("UNBALANCED_GOLDEN_SHA256 =", golden_digest())
    print("UNBALANCED_DECOMPOSE_SHA256 =", decompose_digest())
