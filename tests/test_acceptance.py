"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported statistics.  The random corpus is seeded, so every run
exercises the same instances.
"""

import random
import time

import pytest

from spdim.errors import NotTreewidth2, ReversibilityViolation
from spdim.exactdim import dimension_exact
from spdim.generators import forest_poset, kelly, random_tw2_poset, standard_example
from spdim.graphs import Graph
from spdim.realizer import SignatureRows, decompose_poset, metamorphic_check, realize_tw2
from spdim.spembed import augment_with_fresh_terminals, embed_into_sp
from spdim.stdecomp import build_st_decomposition

from oracles import (
    all_labeled_graphs,
    contains_standard_example,
    has_k4_minor,
    id_host,
    in_order,
    is_ancestor,
    neighbors,
    separation_hits,
    st_subset_witness,
    tree_path,
    validate_decomposition,
)

CORPUS = [(seed, 1 + (seed * 7919) % 60) for seed in range(1000)]
SMALL_CORPUS = [(seed, 1 + seed % 9) for seed in range(300)]


def report(number, ok, detail):
    print("ACCEPTANCE %2d %s  %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


@pytest.fixture(scope="module")
def corpus_run():
    "Realize + verify over the 1000-instance corpus, timed."
    t0 = time.time()
    violations = 0
    oversize = 0
    failed_verify = 0
    for seed, n in CORPUS:
        p = random_tw2_poset(n, seed)
        try:
            r = realize_tw2(p)
        except ReversibilityViolation:
            violations += 1
            continue
        if len(r) > 12:
            oversize += 1
        if not p.verify_realizer(r.orders()):
            failed_verify += 1
    elapsed = time.time() - t0
    return {"elapsed": elapsed, "violations": violations,
            "oversize": oversize, "failed_verify": failed_verify}


def test_criterion_01_realizer_pipeline(corpus_run):
    ok = (corpus_run["oversize"] == 0 and corpus_run["failed_verify"] == 0
          and corpus_run["violations"] == 0 and corpus_run["elapsed"] < 300.0)
    report(1, ok, "1000 instances realized+verified, <=12 extensions, %.1f s (budget 300 s)"
           % corpus_run["elapsed"])


def test_criterion_02_all_classes_reversible(corpus_run):
    report(2, corpus_run["violations"] == 0,
           "reversibility violations across the corpus: %d" % corpus_run["violations"])


def test_criterion_03_oracle_agreement():
    worst = 0
    ok = True
    for seed, n in SMALL_CORPUS:
        p = random_tw2_poset(n, seed)
        r = realize_tw2(p)
        result = dimension_exact(p, cap=100)
        worst = max(worst, result.dimension)
        nonempty = sum(1 for cls, _ in r.extensions if cls is not None) or 1
        if result.dimension > nonempty or result.dimension > 12:
            ok = False
    report(3, ok, "300 small instances: exact dimension <= nonempty classes; "
                  "max exact dimension observed: %d" % worst)


def test_criterion_04_standard_examples():
    t0 = time.time()
    dims = {n: dimension_exact(standard_example(n), cap=100).dimension for n in (2, 3, 4, 5)}
    elapsed = time.time() - t0
    ok = dims == {2: 2, 3: 3, 4: 4, 5: 5} and elapsed < 30.0
    report(4, ok, "standard example dimensions %s in %.2f s (budget 30 s)" % (dims, elapsed))


def test_criterion_05_forest_bound():
    worst = 0
    for seed in range(500):
        p = forest_poset(1 + seed % 9, seed)
        worst = max(worst, dimension_exact(p, cap=100).dimension)
    report(5, worst <= 3, "500 forest posets, max dimension %d (bound 3)" % worst)


def test_criterion_06_kelly_properties():
    containment = all(contains_standard_example(kelly(n), n) for n in (2, 3, 4))
    tw3 = embedding_refused(kelly(3).cover_graph())
    report(6, containment and tw3,
           "kelly contains its standard example (n=2,3,4); kelly(3) not treewidth <= 2")


def test_criterion_07_structural_validators():
    checked = 0
    ok = True
    for seed, n in CORPUS:
        p = random_tw2_poset(n, seed)
        emb = augment_with_fresh_terminals(embed_into_sp(p.cover_graph()))
        d = build_st_decomposition(emb.sp, emb.names)
        host = id_host(emb)
        if not validate_decomposition(d, host, emb.source, emb.sink):
            ok = False
        for v in host.vertices:
            if v in (emb.source, emb.sink):
                continue
            node = d.nodes[d.least_node(v)]
            if len(node.bag) != 3 or node.middle != v:
                ok = False
        rev = d.reverse()
        if not validate_decomposition(rev, host, emb.sink, emb.source):
            ok = False
        if in_order(rev) != list(reversed(in_order(d))):
            ok = False
        if not validate_decomposition(d.swap_size2_children(), host, emb.source, emb.sink):
            ok = False
        checked += 1
    report(7, ok, "decomposition validators on %d instances "
                  "(build/reverse/swap validate; in-order reverses)" % checked)


def test_criterion_08_classification_transform_checks():
    bad = 0
    pairs = 0
    for seed, n in CORPUS:
        p = random_tw2_poset(n, seed)
        count = p.incomparable_count()
        if not count:
            continue
        pairs += count
        bad += len(metamorphic_check(SignatureRows(p, decompose_poset(p))))
    report(8, bad == 0, "classification transform checks: %d violations over %d pairs"
           % (bad, pairs))


def test_criterion_09_separation_witness_trials():
    rng = random.Random(2024)
    sep_trials = wit_trials = 0
    failures = 0
    pool = []
    for seed in range(80):
        p = random_tw2_poset(2 + seed % 30, seed)
        emb = augment_with_fresh_terminals(embed_into_sp(p.cover_graph()))
        pool.append((id_host(emb), build_st_decomposition(emb.sp, emb.names)))
    while sep_trials + wit_trials < 10000:
        g, d = pool[rng.randrange(len(pool))]
        ids = range(len(d.nodes))
        u1, u2 = rng.choice(ids), rng.choice(ids)
        if sep_trials <= wit_trials:
            path = tree_path(d, u1, u2)
            if len(path) < 2:
                continue
            k = rng.randrange(len(path) - 1)
            start = rng.choice(sorted(d.nodes[u1].bag, key=g.index))
            goal = rng.choice(sorted(d.nodes[u2].bag, key=g.index))
            H = _grow_connected(g, rng, start, goal)
            if not separation_hits(d, g, u1, u2, (path[k], path[k + 1]), H):
                failures += 1
            sep_trials += 1
        else:
            if not (is_ancestor(d, u1, u2) or is_ancestor(d, u2, u1)):
                continue
            H = _grow_connected(g, rng, d.nodes[u1].s, d.nodes[u2].t)
            v = st_subset_witness(d, g, u1, u2, H)
            if not (v in tree_path(d, u1, u2) and d.nodes[v].s in H and d.nodes[v].t in H):
                failures += 1
            wit_trials += 1
    report(9, failures == 0, "%d separation + %d witness trials, %d failures"
           % (sep_trials, wit_trials, failures))


def _grow_connected(graph, rng, start, goal):
    from collections import deque

    chosen = {start}
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if u == goal:
            break
        for w in neighbors(graph, u):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    v = goal
    while v is not None and v not in chosen:
        chosen.add(v)
        v = parent[v]
    frontier = {w for v in chosen for w in neighbors(graph, v)} - chosen
    for _ in range(rng.randrange(0, 5)):
        if not frontier:
            break
        v = rng.choice(sorted(frontier, key=graph.index))
        chosen.add(v)
        frontier |= set(neighbors(graph, v)) - chosen
        frontier.discard(v)
    return chosen


def embedding_refused(g):
    "Whether ``embed_into_sp``, the recognizer the pipeline runs, refuses g as treewidth above 2."
    try:
        embed_into_sp(g)
    except NotTreewidth2:
        return True
    return False


def test_criterion_10_recognition_against_minor_oracle():
    # The recognizer the pipeline runs, the SP embedding, against the minor
    # oracle: it refuses exactly the graphs with a K4 minor.
    k4 = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d"),
                        ("b", "c"), ("b", "d"), ("c", "d")])
    ok = embedding_refused(k4)
    checked = 0
    mismatches = 0
    for n in range(1, 7):
        for g in all_labeled_graphs(n, Graph):
            mismatches += embedding_refused(g) != has_k4_minor(g)
            checked += 1
    rng = random.Random(7)
    sampled = 0
    verts = ["g%d" % i for i in range(7)]
    slots = [(verts[i], verts[j]) for i in range(7) for j in range(i + 1, 7)]
    for _ in range(300):
        edges = [e for e in slots if rng.random() < rng.choice((0.2, 0.35, 0.5))]
        g = Graph(verts, edges)
        mismatches += embedding_refused(g) != has_k4_minor(g)
        sampled += 1
    report(10, ok and mismatches == 0,
           "recognition matches the minor oracle on %d exhaustive + %d sampled graphs; "
           "embed_into_sp mismatches: %d; K4 rejected" % (checked, sampled, mismatches))
