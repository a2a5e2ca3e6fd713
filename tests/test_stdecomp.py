import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spdim.errors import PreconditionViolated, VertexNotInDecomposition
from spdim.generators import chain, random_tw2_poset
from spdim.graphs import Graph
from spdim.spembed import augment_with_fresh_terminals, edge_node, embed_into_sp
from spdim.stdecomp import DecompNode, STDecomposition, build_st_decomposition, dumps_decomposition

from test_acceptance import CORPUS
from oracles import (
    id_host,
    in_order,
    in_order_less,
    in_order_positions,
    is_ancestor,
    neighbors,
    reference_decomposition,
    reference_depths_and_least,
    reference_reverse,
    reference_swap_size2_children,
    separation_hits,
    st_subset_witness,
    tree_path,
    validate_decomposition,
    validation_errors,
)


def decompose_graph(g):
    emb = augment_with_fresh_terminals(embed_into_sp(g))
    return emb, build_st_decomposition(emb.sp, emb.names)


def random_decomposition(n, seed):
    g = random_tw2_poset(n, seed).cover_graph()
    return decompose_graph(g)


def path_decomposition():
    "Plain path a-b-c embedded without augmentation: one size-3 root."
    emb = embed_into_sp(Graph("abc", [("a", "b"), ("b", "c")]))
    return emb, build_st_decomposition(emb.sp, emb.names)


def named(d, vertices):
    "The names of a tuple of vertex ids."
    return tuple(d.names[v] for v in vertices)


def ids(d, names):
    "The vertex ids of a set of names."
    return {d.names.index(v) for v in names}


class TestBuild:
    def test_single_leaf(self):
        g = Graph("ab", [("a", "b")])
        emb = embed_into_sp(g)
        d = build_st_decomposition(emb.sp, emb.names)
        assert len(d) == 1
        assert named(d, d.nodes[0].bag) == ("a", "b")
        assert named(d, (d.source, d.sink)) == ("a", "b")

    def test_path_bags(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        assert set(named(d, root.bag)) == {"a", "b", "c"}
        assert named(d, (root.s, root.t)) == ("a", "c")
        assert d.names[root.middle] == "b"
        kids = [d.nodes[root.left], d.nodes[root.right]]
        assert {frozenset(named(d, k.bag)) for k in kids} == {frozenset("ab"), frozenset("bc")}

    @pytest.mark.parametrize("bag, s, t", [
        (("a", "b"), "a", "b"),              # size 2: no middle
        (("a", "b", "c", "d"), "a", "d"),    # size 4
        (("a", "b", "c"), "a", "z"),         # sink outside the bag
        (("a", "b", "c"), "a", "a"),         # source equals sink
    ])
    def test_middle_rejects_invalid_fields(self, bag, s, t):
        idx = "abcdz".index  # vertex ids
        with pytest.raises(PreconditionViolated):
            DecompNode(0, None, None, None, tuple(map(idx, bag)), idx(s), idx(t)).middle

    def test_four_cycle_shape(self):
        verts = ["v%d" % i for i in range(4)]
        g = Graph(verts, list(zip(verts, verts[1:])) + [(verts[-1], verts[0])])
        emb = embed_into_sp(g)
        d = build_st_decomposition(emb.sp, emb.names)
        root = d.nodes[d.root]
        assert len(root.bag) == 2
        assert len(d) == len(emb.host.edges) * 2 - 1  # one leaf per host edge
        assert validate_decomposition(d, id_host(emb), emb.source, emb.sink)

    def test_node_count_matches_sp_tree(self):
        emb, d = random_decomposition(18, 5)
        sp_nodes = 2 * len(emb.host.edges) - 1
        assert len(d) == sp_nodes

    def test_long_chain_stays_linear_in_memory(self):
        # A guard against quadratic trees that does not depend on timing: a
        # chain's composition tree is as deep as the chain is long, so any
        # per-node copy of a subtree's vertices or edges costs ~n**2 / 2 items.
        g = chain(3000).cover_graph()
        tracemalloc.start()
        try:
            emb = augment_with_fresh_terminals(embed_into_sp(g))
            d = build_st_decomposition(emb.sp, emb.names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d) == 2 * 3001 - 1
        assert peak < 40 * 10**6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    def test_build_validates(self, n, seed):
        emb, d = random_decomposition(n, seed)
        assert validate_decomposition(d, id_host(emb), emb.source, emb.sink)


class TestValidateRejections:
    # Vertices are ids: a, b, c are 0, 1, 2.
    def two_node_patch(self, **root_kw):
        g = Graph(range(2), [(0, 1)])
        base = dict(id=0, parent=None, left=None, right=None, bag=(0, 1), s=0, t=1)
        base.update(root_kw)
        return STDecomposition([DecompNode(**base)], 0, "ab"), g

    def test_size3_leaf_rejected(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        d = STDecomposition([DecompNode(0, None, None, None, (0, 1, 2), 0, 2)], 0, "abc")
        errors = validation_errors(d, g, 0, 2)
        assert any("leaf" in e for e in errors)

    def test_swapped_root_terminals_rejected(self):
        d, g = self.two_node_patch(s=1, t=0)
        assert not validate_decomposition(d, g, 0, 1)

    def test_missing_edge_coverage(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        d = STDecomposition([DecompNode(0, None, None, None, (0, 1), 0, 1),
                             DecompNode(1, 0, None, None, (0, 2), 0, 2)], 0, "abc")
        # node 0 has one child only, bag of (b, c) nowhere
        errors = validation_errors(d, g, 0, 1)
        assert errors


class TestOrderUtilities:
    def test_lca_self(self):
        _, d = path_decomposition()
        for node in d.nodes:
            assert d.lca(node.id, node.id) == node.id

    def test_in_order_root_between_children(self):
        _, d = path_decomposition()
        root = d.nodes[d.root]
        assert in_order_less(d, root.left, d.root)
        assert in_order_less(d, d.root, root.right)

    def test_in_order_matches_definition(self):
        _, d = random_decomposition(20, 3)

        def by_formula(u, v):
            if u == v:
                return False
            w = d.lca(u, v)
            r, l = d.nodes[w].right, d.nodes[w].left
            no_right_above_u = not (r is not None and is_ancestor(d, r, u))
            no_left_above_v = not (l is not None and is_ancestor(d, l, v))
            return no_right_above_u and no_left_above_v

        ids = [n.id for n in d.nodes]
        for u in ids:
            for v in ids:
                if u != v:
                    assert in_order_less(d, u, v) == by_formula(u, v)

    def test_total_order(self):
        _, d = random_decomposition(12, 9)
        pos = in_order_positions(d)
        ids = sorted((n.id for n in d.nodes), key=lambda u: pos[u])
        for a, b in zip(ids, ids[1:]):
            assert in_order_less(d, a, b)
            assert not in_order_less(d, b, a)


class TestLeastNode:
    def test_root_terminal(self):
        emb, d = random_decomposition(10, 4)
        assert d.least_node(emb.source) == d.root
        assert d.least_node(emb.sink) == d.root

    def test_path_middle_vertex(self):
        _, d = path_decomposition()
        assert d.least_node(d.names.index("b")) == d.root

    def test_missing_vertex(self):
        _, d = path_decomposition()
        with pytest.raises(VertexNotInDecomposition):
            d.least_node(len(d.names))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_nonterminal_least_node_is_middle(self, n, seed):
        emb, d = random_decomposition(n, seed)
        for v in range(len(emb.names)):
            if v in (emb.source, emb.sink):
                continue
            node = d.nodes[d.least_node(v)]
            assert len(node.bag) == 3
            assert node.middle == v


class TestParentsFirstTables:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    def test_depth_and_least_match_walk_from_root(self, n, seed):
        _, d = random_decomposition(n, seed)
        for dd in (d, d.reverse(), d.swap_size2_children()):
            depth, least = reference_depths_and_least(dd)
            assert [dd.depth(u) for u in range(len(dd))] == depth
            for v, want in enumerate(least):
                if want is None:
                    with pytest.raises(VertexNotInDecomposition):
                        dd.least_node(v)
                else:
                    assert dd.least_node(v) == want

    @pytest.mark.parametrize("parent", [0, 1], ids=["self", "higher"])
    def test_parent_id_must_be_lower(self, parent):
        # Node 0 hangs below itself or below node 1, the root.
        nodes = [DecompNode(0, parent, None, None, (0, 1), 0, 1),
                 DecompNode(1, None, 0, None, (0, 1), 0, 1)]
        with pytest.raises(PreconditionViolated, match="node 0 has parent"):
            STDecomposition(nodes, 1, "ab")

    def test_node_ids_must_be_positions(self):
        # The columns are read by position, so node k must carry id k.
        nodes = [DecompNode(0, None, 2, 1, (0, 1, 2), 0, 2), DecompNode(2, 0, None, None, (1, 2), 1, 2),
                 DecompNode(1, 0, None, None, (0, 1), 0, 1)]
        with pytest.raises(PreconditionViolated, match="node 2 is at position 1"):
            STDecomposition(nodes, 0, "abc")


class TestColumns:
    """The columns against decompositions built one ``DecompNode`` per node."""

    def test_match_per_node_reference_on_corpus(self):
        for seed, n in CORPUS:
            emb = augment_with_fresh_terminals(embed_into_sp(random_tw2_poset(n, seed).cover_graph()))
            d = build_st_decomposition(emb.sp, emb.names)
            ref = reference_decomposition(emb.sp, emb.names)
            for got, want in ((d, ref), (d.reverse(), reference_reverse(ref)),
                              (d.swap_size2_children(), reference_swap_size2_children(ref))):
                assert got.nodes == want.nodes, (seed, n)
                assert (got.root, got.names, got.source, got.sink) == \
                       (want.root, want.names, want.source, want.sink)
                depth, least = reference_depths_and_least(want)
                assert [got.depth(u) for u in range(len(got))] == depth
                assert [got.least_node(v) for v in range(len(got.names))] == least

    def test_reads_of_the_benchmark_tracer(self):
        # bench/tracing.py counts nodes by len(d.nodes), the depth by
        # d.depth(node.id) over d.nodes, and fill by len(emb.added_edges)
        # and len(emb.added_vertices).
        g = random_tw2_poset(40, 3).cover_graph()
        emb = embed_into_sp(g)
        d = build_st_decomposition(emb.sp, emb.names)
        assert len(d.nodes) == len(d) == 2 * len(emb.host.edges) - 1
        assert max(d.depth(node.id) for node in d.nodes) == max(reference_depths_and_least(d)[0])
        assert len(emb.added_edges) == len(emb.host.edges - g.edges)
        assert len(emb.added_vertices) == len(emb.host.vertices) - len(g.vertices)


class TestReverse:
    def test_involution(self):
        _, d = random_decomposition(15, 11)
        again = d.reverse().reverse()
        assert [(n.bag, n.s, n.t, n.left, n.right) for n in again.nodes] == \
               [(n.bag, n.s, n.t, n.left, n.right) for n in d.nodes]

    def test_single_node(self):
        d = build_st_decomposition(edge_node(0, 1), "ab")
        r = d.reverse()
        assert named(r, (r.source, r.sink)) == ("b", "a")

    def test_in_order_exactly_reversed(self):
        _, d = random_decomposition(20, 2)
        assert in_order(d.reverse()) == list(reversed(in_order(d)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_reversed_validates_for_swapped_terminals(self, n, seed):
        emb, d = random_decomposition(n, seed)
        assert validate_decomposition(d.reverse(), id_host(emb), emb.sink, emb.source)


class TestSwapSize2:
    def test_no_size2_internal_unchanged(self):
        _, d = path_decomposition()
        s = d.swap_size2_children()
        assert [(n.left, n.right) for n in s.nodes] == [(n.left, n.right) for n in d.nodes]

    def test_involution(self):
        _, d = random_decomposition(20, 6)
        twice = d.swap_size2_children().swap_size2_children()
        assert [(n.left, n.right) for n in twice.nodes] == [(n.left, n.right) for n in d.nodes]

    def test_four_cycle_root_children_exchanged(self):
        verts = ["v%d" % i for i in range(4)]
        g = Graph(verts, list(zip(verts, verts[1:])) + [(verts[-1], verts[0])])
        emb = embed_into_sp(g)
        d = build_st_decomposition(emb.sp, emb.names)
        s = d.swap_size2_children()
        root = d.nodes[d.root]
        sroot = s.nodes[s.root]
        assert (sroot.left, sroot.right) == (root.right, root.left)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_swap_still_validates_same_terminals(self, n, seed):
        emb, d = random_decomposition(n, seed)
        assert validate_decomposition(d.swap_size2_children(), id_host(emb), emb.source, emb.sink)


def grow_connected_subset(graph, rng, start, must_include=()):
    "Random connected vertex set containing start (and targets, via paths)."
    chosen = {start}
    frontier = set(neighbors(graph, start))
    for target in must_include:
        # walk a BFS path from the current set to the target
        from collections import deque
        parent = {v: None for v in chosen}
        queue = deque(chosen)
        while queue:
            u = queue.popleft()
            if u == target:
                break
            for w in neighbors(graph, u):
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        v = target
        while v is not None and v not in chosen:
            chosen.add(v)
            v = parent[v]
        frontier |= {w for v in chosen for w in neighbors(graph, v)} - chosen
    for _ in range(rng.randrange(0, 6)):
        if not frontier:
            break
        v = rng.choice(sorted(frontier, key=graph.index))
        chosen.add(v)
        frontier |= set(neighbors(graph, v)) - chosen
        frontier.discard(v)
    return chosen


class TestSeparationHits:
    def test_degenerate_single_node_path_vacuously_true(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        assert separation_hits(d, id_host(emb), d.root, d.root, (d.root, root.left), ids(d, {"a"}))

    def test_edge_off_path_rejected(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        with pytest.raises(PreconditionViolated):
            separation_hits(d, id_host(emb), root.left, d.root, (d.root, root.right), ids(d, {"a"}))

    def test_single_shared_vertex(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        assert separation_hits(d, id_host(emb), root.left, root.right, (d.root, root.right),
                               ids(d, {"b"}))

    def test_disconnected_subgraph_rejected(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        with pytest.raises(PreconditionViolated):
            separation_hits(d, id_host(emb), root.left, root.right, (d.root, root.right),
                            ids(d, {"a", "c"}))

    def test_randomized_never_false(self):
        rng = random.Random(0)
        trials = 0
        for seed in range(30):
            emb, d = random_decomposition(3 + seed % 20, seed)
            g = id_host(emb)
            ids = [n.id for n in d.nodes]
            for _ in range(40):
                u1, u2 = rng.choice(ids), rng.choice(ids)
                path = tree_path(d, u1, u2)
                if len(path) < 2:
                    continue
                k = rng.randrange(len(path) - 1)
                edge = (path[k], path[k + 1])
                start = rng.choice(sorted(d.nodes[u1].bag, key=g.index))
                goal = rng.choice(sorted(d.nodes[u2].bag, key=g.index))
                H = grow_connected_subset(g, rng, start, [goal])
                assert separation_hits(d, g, u1, u2, edge, H)
                trials += 1
        assert trials > 500


class TestSTSubsetWitness:
    def test_same_node_with_both_terminals(self):
        emb, d = path_decomposition()
        assert st_subset_witness(d, id_host(emb), d.root, d.root, ids(d, {"a", "b", "c"})) == d.root

    def test_whole_vertex_set(self):
        emb, d = random_decomposition(12, 13)
        leafish = max((n.id for n in d.nodes), key=lambda u: d.depth(u))
        g = id_host(emb)
        v = st_subset_witness(d, g, d.root, leafish, set(g.vertices))
        assert v in tree_path(d, d.root, leafish)

    def test_incomparable_nodes_rejected(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        with pytest.raises(PreconditionViolated):
            st_subset_witness(d, id_host(emb), root.left, root.right, ids(d, {"a", "b", "c"}))

    def test_randomized_against_path_scan(self):
        rng = random.Random(1)
        trials = 0
        for seed in range(30):
            emb, d = random_decomposition(3 + seed % 20, seed + 100)
            g = id_host(emb)
            ids = [n.id for n in d.nodes]
            for _ in range(40):
                u1, u2 = rng.choice(ids), rng.choice(ids)
                if not (is_ancestor(d, u1, u2) or is_ancestor(d, u2, u1)):
                    continue
                s1, t2 = d.nodes[u1].s, d.nodes[u2].t
                H = grow_connected_subset(g, rng, s1, [t2])
                v = st_subset_witness(d, g, u1, u2, H)
                path = tree_path(d, u1, u2)
                assert v in path
                assert d.nodes[v].s in H and d.nodes[v].t in H
                assert any(d.nodes[w].s in H and d.nodes[w].t in H for w in path)
                trials += 1
        assert trials > 300


class TestJsonExport:
    def test_regression_fixture(self):
        # a < b with isolated c: host path +s a b c +c1 +t, decomposition
        # frozen from a hand-checked run
        from spdim.poset import Poset
        from spdim.realizer import decompose_poset

        assert json.loads(dumps_decomposition(decompose_poset(Poset("abc", [("a", "b")])))) == [
            {"id": 0, "parent": None, "side": None, "bag": ["+s", "a", "+t"], "s": "+s", "t": "+t"},
            {"id": 1, "parent": 0, "side": "left", "bag": ["+s", "a"], "s": "+s", "t": "a"},
            {"id": 2, "parent": 0, "side": "right", "bag": ["a", "+c1", "+t"], "s": "a", "t": "+t"},
            {"id": 3, "parent": 2, "side": "left", "bag": ["a", "b", "+c1"], "s": "a", "t": "+c1"},
            {"id": 4, "parent": 3, "side": "left", "bag": ["a", "b"], "s": "a", "t": "b"},
            {"id": 5, "parent": 3, "side": "right", "bag": ["b", "c", "+c1"], "s": "b", "t": "+c1"},
            {"id": 6, "parent": 5, "side": "left", "bag": ["b", "c"], "s": "b", "t": "c"},
            {"id": 7, "parent": 5, "side": "right", "bag": ["c", "+c1"], "s": "c", "t": "+c1"},
            {"id": 8, "parent": 2, "side": "right", "bag": ["+c1", "+t"], "s": "+c1", "t": "+t"},
        ]

    def test_schema(self):
        emb, d = path_decomposition()
        data = json.loads(dumps_decomposition(d))
        assert [row["id"] for row in data] == [n.id for n in d.nodes]
        root_row = data[d.root]
        assert root_row["parent"] is None and root_row["side"] is None
        for row in data:
            if row["parent"] is not None:
                assert row["side"] in ("left", "right")
            assert set(row) == {"id", "parent", "side", "bag", "s", "t"}
