import hashlib
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from spdim.errors import BadParameter, NotTreewidth2
from spdim.exactdim import dimension_exact
from spdim.generators import (
    MAX_N,
    _joined,
    antichain,
    chain,
    forest_poset,
    generate,
    kelly,
    random_tw2_poset,
    standard_example,
)
from spdim.poset import dumps
from spdim.spembed import embed_into_sp

from oracles import less, reference_forest_poset, reference_random_tw2_poset
from test_acceptance import CORPUS


# ``gen`` text pinned by SHA-256 over these (family, n, seed) triples, in order;
# the digest was taken before the random families went over to index arcs.
GEN_CASES = ([("random_tw2", n, s) for n in (1, 2, 3, 60, 500, 2000) for s in (0, 1, 7)]
             + [("forest", n, s) for n in (1, 10, 800) for s in (0, 1, 7)]
             + [("standard_example", n, 0) for n in (2, 3, 5)]
             + [("kelly", n, 0) for n in (2, 3, 5)]
             + [(family, n, 0) for family in ("chain", "antichain") for n in (1, 7)])
GEN_SHA256 = "4dd4b9d85d5cf23583d0d47f7772d2f97f6aee9d19908df348ae155c93678085"


def test_generated_text_matches_pinned_digest():
    h = hashlib.sha256()
    for family, n, seed in GEN_CASES:
        h.update(dumps(generate(family, n, seed)).encode("utf-8"))
    assert h.hexdigest() == GEN_SHA256


class TestStandardExample:
    def test_comparabilities(self):
        for n in (2, 3, 5):
            sn = standard_example(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert less(sn, "a%d" % i, "b%d" % j) == (i != j)
                    assert not less(sn, "b%d" % i, "a%d" % j)

    def test_cover_graph_is_perfect_matching_at_2(self):
        g = standard_example(2).cover_graph()
        assert g.edges == frozenset({("a1", "b2"), ("a2", "b1")})

    def test_incomparable_count(self):
        assert len(standard_example(2).incomparable_pairs()) == 8

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            standard_example(1)


class TestKelly:
    def test_structure_sizes(self):
        for n in (2, 3, 5):
            k = kelly(n)
            assert len(k.elements) == 4 * n + 2

    def test_induced_standard_example_is_exact(self):
        for n in (2, 3, 4):
            k = kelly(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert less(k, "a%d" % i, "b%d" % j) == (i != j)
                    aa = less(k, "a%d" % i, "a%d" % j) or less(k, "a%d" % j, "a%d" % i)
                    bb = less(k, "b%d" % i, "b%d" % j) or less(k, "b%d" % j, "b%d" % i)
                    assert not aa and not bb

    def test_treewidth(self):
        embed_into_sp(kelly(2).cover_graph())
        for n in (3, 4):
            with pytest.raises(NotTreewidth2):
                embed_into_sp(kelly(n).cover_graph())

    def test_dimension_at_least_two(self):
        assert dimension_exact(kelly(2), cap=200).dimension >= 2

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            kelly(1)


class TestChainsAntichains:
    def test_chain(self):
        c = chain(5)
        assert dimension_exact(c).dimension == 1
        assert len(c.cover_graph().edges) == 4

    def test_antichain(self):
        a = antichain(3)
        assert dimension_exact(a).dimension == 2
        assert not a.cover_graph().edges

    def test_single(self):
        assert len(chain(1)) == 1
        assert len(antichain(1)) == 1

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            chain(0)
        with pytest.raises(BadParameter):
            antichain(0)


class TestRandomFamilies:
    def test_determinism(self):
        for family in ("random_tw2", "forest"):
            a = generate(family, 17, seed=123)
            b = generate(family, 17, seed=123)
            assert a == b
            assert generate(family, 17, seed=124) != a

    def test_random_tw2_always_in_class(self):
        for seed in range(150):
            p = random_tw2_poset(1 + seed % 35, seed)
            embed_into_sp(p.cover_graph())  # NotTreewidth2 above treewidth 2

    def test_singleton(self):
        assert len(random_tw2_poset(1, 0)) == 1

    def test_forest_cover_graph_is_acyclic(self):
        for seed in range(40):
            g = forest_poset(1 + seed % 10, seed).cover_graph()
            assert len(g.edges) < len(g.vertices) or len(g.vertices) == 0
            embed_into_sp(g)

    def test_forest_dimension_small_sample(self):
        for seed in range(40):
            p = forest_poset(1 + seed % 8, seed)
            assert dimension_exact(p, cap=100).dimension <= 3

    def test_unknown_family(self):
        with pytest.raises(BadParameter):
            generate("zigzag", 3)

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            random_tw2_poset(0, 1)
        with pytest.raises(BadParameter):
            forest_poset(0, 1)


class TestRandomTw2AgainstReference:
    """The thinning by local searches against a whole-graph search per drawn
    deletion: the same draws must give the same poset text."""

    def test_acceptance_corpus(self):
        for seed, n in CORPUS:
            assert dumps(random_tw2_poset(n, seed)) == dumps(reference_random_tw2_poset(n, seed)), (seed, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10**6),
           st.sampled_from([0, 0.3, 1]))
    def test_random_triples(self, n, seed, delete_prob):
        assert (dumps(random_tw2_poset(n, seed, delete_prob))
                == dumps(reference_random_tw2_poset(n, seed, delete_prob)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=10**6),
           st.sampled_from([0, 0.25, 1]))
    def test_forest_random_triples(self, n, seed, root_prob):
        assert dumps(forest_poset(n, seed, root_prob)) == dumps(reference_forest_poset(n, seed, root_prob))

    def test_n_1000(self):
        assert dumps(random_tw2_poset(1000, 5)) == dumps(reference_random_tw2_poset(1000, 5))

    def test_max_n_is_cheap(self):
        # The largest size ``gen`` accepts, which the quadratic thinning
        # could not reach in bounded time: about 0.4 s of CPU on a 2-core VM.
        start = time.process_time()
        p = generate("random_tw2", MAX_N, 0)
        spent = time.process_time() - start
        assert len(p) == MAX_N
        g = p.cover_graph()
        assert len(g.components()) == 1
        embed_into_sp(g)
        assert spent < 10.0


def _bfs_reaches(adj, u, v):
    seen, queue = {u}, deque([u])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return v in seen


@st.composite
def graph_minus_edge(draw):
    "A graph on up to 12 vertices and an edge uv removed from it: (adj, u, v)."
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    u, v = draw(st.sampled_from(edges))
    adj = [set() for _ in range(n)]
    for a, b in edges:
        if (a, b) != (u, v):
            adj[a].add(b)
            adj[b].add(a)
    return adj, u, v


class TestJoined:
    @settings(max_examples=300, deadline=None)
    @given(graph_minus_edge())
    def test_matches_breadth_first_reachability(self, case):
        adj, u, v = case
        before = [set(row) for row in adj]
        assert _joined(adj, u, v) == _bfs_reaches(adj, u, v)
        assert adj == before

    def test_shared_neighbour_and_long_path(self):
        triangle = [{2}, {2}, {0, 1}]  # edge 01 removed; 2 is a common neighbour
        assert _joined(triangle, 0, 1)
        path = [{2}, {3}, {0, 3}, {1, 2}]  # edge 01 removed; 0-2-3-1 joins them
        assert _joined(path, 0, 1)
        assert not _joined([{2}, set(), {0}], 0, 1)
