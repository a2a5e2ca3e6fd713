import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spdim.errors import PreconditionViolated
from spdim.generators import chain, random_tw2_poset
from spdim.graphs import Graph
from spdim.spembed import Embedding, edge_node, embed_into_sp
from spdim.stdecomp import DecompNode, STDecomposition, build_st_decomposition, dumps_decomposition

from test_acceptance import CORPUS
from oracles import (
    decomposition_of_records,
    decomposition_parents,
    id_host,
    in_order,
    in_order_less,
    in_order_positions,
    is_ancestor,
    lca,
    neighbors,
    raw_embedding,
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
    emb = embed_into_sp(g)
    return emb, build_st_decomposition(emb.sp, emb.names)


def random_decomposition(n, seed):
    g = random_tw2_poset(n, seed).cover_graph()
    return decompose_graph(g)


def raw_decomposition(g):
    "The embedding of ``g`` before its fresh outer terminals, and its decomposition."
    emb = Embedding(g, *raw_embedding(embed_into_sp(g)))
    return emb, build_st_decomposition(emb.sp, emb.names)


def path_decomposition():
    "Plain path a-b-c embedded without fresh outer terminals: one size-3 root."
    return raw_decomposition(Graph("abc", [("a", "b"), ("b", "c")]))


def named(d, vertices):
    "The names of a tuple of vertex ids."
    return tuple(d.names[v] for v in vertices)


def ids(d, names):
    "The vertex ids of a set of names."
    return {d.names.index(v) for v in names}


class TestBuild:
    def test_single_leaf(self):
        _, d = raw_decomposition(Graph("ab", [("a", "b")]))
        assert len(d) == 1
        assert named(d, d.nodes[0].bag) == ("a", "b")
        assert named(d, (d.bag[0][0], d.bag[0][-1])) == ("a", "b")

    def test_path_bags(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        assert set(named(d, root.bag)) == {"a", "b", "c"}
        assert named(d, (root.bag[0], root.bag[-1])) == ("a", "c")
        assert d.names[root.bag[1]] == "b"
        kids = [d.nodes[root.left], d.nodes[root.right]]
        assert {frozenset(named(d, k.bag)) for k in kids} == {frozenset("ab"), frozenset("bc")}

    def test_four_cycle_shape(self):
        verts = ["v%d" % i for i in range(4)]
        g = Graph(verts, list(zip(verts, verts[1:])) + [(verts[-1], verts[0])])
        emb, d = raw_decomposition(g)
        root = d.nodes[d.root]
        assert len(root.bag) == 2
        assert len(d) == len(emb.host.edges) * 2 - 1  # one leaf per host edge
        assert validate_decomposition(d, id_host(emb), emb.sp.source, emb.sp.sink)

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
            emb = embed_into_sp(g)
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
        assert validate_decomposition(d, id_host(emb), emb.sp.source, emb.sp.sink)


class TestValidateRejections:
    # Vertices are ids: a, b, c are 0, 1, 2.
    def two_node_patch(self, **root_kw):
        g = Graph(range(2), [(0, 1)])
        base = dict(id=0, parent=None, left=None, right=None, bag=(0, 1))
        base.update(root_kw)
        return decomposition_of_records([DecompNode(**base)], "ab"), g

    def test_size3_leaf_rejected(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        d = decomposition_of_records([DecompNode(0, None, None, None, (0, 1, 2))], "abc")
        errors = validation_errors(d, g, 0, 2)
        assert any("leaf" in e for e in errors)

    def test_swapped_root_terminals_rejected(self):
        d, g = self.two_node_patch(bag=(1, 0))
        assert not validate_decomposition(d, g, 0, 1)

    def test_missing_edge_coverage(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        d = decomposition_of_records([DecompNode(0, None, 1, 2, (0, 1)),
                                      DecompNode(1, 0, None, None, (0, 2)),
                                      DecompNode(2, 0, None, None, (0, 1))], "abc")
        # the bag of (b, c) is nowhere
        assert "edge (1, 2) is in no bag" in validation_errors(d, g, 0, 1)
        # A node with one child is no decomposition at all.
        with pytest.raises(PreconditionViolated, match="node 1 is no node's child"):
            decomposition_of_records([DecompNode(0, None, None, None, (0, 1)),
                                      DecompNode(1, 0, None, None, (0, 2))], "abc")

    def test_records_must_carry_the_parents_of_the_child_columns(self):
        # Node 2 is node 0's child by the child columns, not node 1's as its record says.
        with pytest.raises(ValueError, match="record parents"):
            decomposition_of_records([DecompNode(0, None, 1, 2, (0, 1)),
                                      DecompNode(1, 0, None, None, (0, 1)),
                                      DecompNode(2, 1, None, None, (0, 1))], "ab")


class TestOrderUtilities:
    def test_lca_self(self):
        _, d = path_decomposition()
        for node in d.nodes:
            assert lca(d, node.id, node.id) == node.id

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
            w = lca(d, u, v)
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
        assert d.least_node(emb.sp.source) == d.root
        assert d.least_node(emb.sp.sink) == d.root

    def test_path_middle_vertex(self):
        _, d = path_decomposition()
        assert d.least_node(d.names.index("b")) == d.root

    def test_missing_vertex(self):
        _, d = path_decomposition()
        with pytest.raises(PreconditionViolated, match="vertex %d is in no bag" % len(d.names)):
            d.least_node(len(d.names))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_nonterminal_least_node_is_middle(self, n, seed):
        emb, d = random_decomposition(n, seed)
        for v in range(len(emb.names)):
            if v in (emb.sp.source, emb.sp.sink):
                continue
            node = d.nodes[d.least_node(v)]
            assert len(node.bag) == 3
            assert node.bag[1] == v


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
                    with pytest.raises(PreconditionViolated, match=re.escape("vertex %r is in no bag" % (dd.names[v],))):
                        dd.least_node(v)
                else:
                    assert dd.least_node(v) == want

    @pytest.mark.parametrize("parent", [0, 1], ids=["self", "higher"])
    def test_parent_id_must_be_lower(self, parent):
        # Node 0 lists itself, or node 1 lists node 0: a child id not above its parent's.
        left, right = [None, None, None], [None, None, None]
        left[parent], right[parent] = 0, 2
        with pytest.raises(PreconditionViolated,
                           match=re.escape("node %d has children (0, 2), not none or two ids above" % parent)):
            STDecomposition(left, right, [(0, 1)] * 3, "ab")

    def test_parent_id_must_be_lower_past_the_root(self):
        # Node 2 lists itself, or lists node 1 that no other node lists; node 0's children are in order.
        with pytest.raises(PreconditionViolated, match=re.escape("node 2 has children (2, 3), not none")):
            STDecomposition([1, None, 2, None], [2, None, 3, None],
                            [(0, 1)] * 4, "ab")
        with pytest.raises(PreconditionViolated, match=re.escape("node 2 has children (4, 1), not none")):
            STDecomposition([2, None, 4, None, None], [3, None, 1, None, None],
                            [(0, 1)] * 5, "ab")
        # Node 0 lists itself on either side.  A negative id would index a column from
        # its end; a float or a bool compares above its parent's id or equal to a node's,
        # and is still no node id.
        for kids in ((0, 2), (2, 0), (-1, 2), (1, -1), (0.5, 2), (1, 1.0), (True, 2), (1, True)):
            with pytest.raises(PreconditionViolated,
                               match=re.escape("node 0 has children %r, not none or two ids above" % (kids,))):
                STDecomposition([kids[0], None, None], [kids[1], None, None],
                                [(0, 1)] * 3, "ab")

    @pytest.mark.parametrize("left, right, message", [
        ([None] * 3, [None] * 3, "node 1 is no node's child"),
        ([1, None, None], [1, None, None], "node 0 has children (1, 1), not none or two ids above"),
        ([1, None, None], [None] * 3, "node 0 has children (1, None), not none or two ids above"),
        ([2, None, None], [1, 2, None], "node 1 has children (None, 2), not none or two ids above"),
        ([1, 3, None, None, None], [3, 4, None, None, None], "node 1 has children (3, 4), not none"),
        ([1, 4, None, None, None], [3, 3, None, None, None], "node 1 has children (4, 3), not none"),
    ], ids=["no-children", "one-child-twice", "one-child", "grandchild", "listed-twice-left", "listed-twice-right"])
    def test_children_must_agree_with_parent(self, left, right, message):
        # Each node but the root is listed by exactly one node, which becomes its parent;
        # in the last two, node 1 lists node 3 after node 0 did.
        k = len(left)
        with pytest.raises(PreconditionViolated, match=re.escape(message)):
            STDecomposition(left, right, [(0, 1)] * k, "ab")

    def test_second_parentless_node(self):
        # Node 1 is a second root: the record form could list it, a decomposition cannot.
        with pytest.raises(PreconditionViolated, match="node 1 is no node's child"):
            STDecomposition([None, None], [None, None], [(0, 1), (0, 1)], "ab")
        # Node 3 is no node's child while nodes 0-2 are a tree.
        with pytest.raises(PreconditionViolated, match="node 3 is no node's child"):
            STDecomposition([1, None, None, None], [2, None, None, None],
                            [(0, 1)] * 4, "ab")

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_constructor_against_its_definition(self, data):
        # A random tree: each node splits an earlier leaf, and at an even count the last
        # node is left out or listed by a leaf beside any node, itself included.  Its ids are
        # renamed or not, a few bags get 1 to 4 members, and then a few child entries are
        # overwritten by draws from None, -1..count, 0.5 and True.  Before and after, the
        # constructor must refuse exactly what ``decomposition_parents`` refuses (a bag of
        # other than 2 or 3 members, or no full binary tree rooted at 0 with every child
        # id above its parent's), and otherwise read off the tree's parents.
        count = data.draw(st.integers(min_value=1, max_value=7))
        ids = data.draw(st.just(range(count)) | st.permutations(range(count)))
        left, right = [None] * count, [None] * count
        for nid in range(1, count, 2):
            leaf = data.draw(st.sampled_from([ids[k] for k in range(nid) if left[ids[k]] is None]))
            other = nid + 1 if nid + 1 < count else data.draw(st.integers(-1, count - 1))
            if other < 0:
                break
            kids = ids[nid], ids[other]
            left[leaf], right[leaf] = data.draw(st.sampled_from([kids, kids[::-1]]))

        bags = [(0, 1)] * count
        for nid, size in data.draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(1, 4)), max_size=2)):
            bags[nid] = (0, 1, 1, 0)[:size]

        def check():
            want = decomposition_parents(left, right, bags, "ab")
            columns = left, right, bags, "ab"
            if want is None:
                with pytest.raises(PreconditionViolated):
                    STDecomposition(*columns)
            else:
                assert STDecomposition(*columns).parent == want

        check()
        entry = st.sampled_from([None, *range(-1, count + 1), 0.5, True])
        for in_left, nid, value in data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, count - 1), entry),
                                                      max_size=4)):
            (left if in_left else right)[nid] = value
        check()

    @pytest.mark.parametrize("columns", [dict(left=[], right=[], bag=[]), dict(left=[None, None]), dict(bag=[])],
                             ids=["empty", "left-longer", "bag-shorter"])
    def test_columns_of_one_length_above_zero(self, columns):
        one_leaf = dict(left=[None], right=[None], bag=[(0, 1)])
        with pytest.raises(PreconditionViolated, match="columns of lengths"):
            STDecomposition(**{**one_leaf, **columns}, names="ab")

    @pytest.mark.parametrize("bag, v", [((0, 5), 5), ((0, -1), -1), ((0, 1.0), 1.0), ((0, True), True),
                                        ((None, 1), None)],
                             ids=["bag-above", "bag-negative", "bag-float", "bag-bool", "bag-none"])
    def test_vertex_ids_must_index_names(self, bag, v):
        # Accepted, an id past the names would make least_node and the JSON writer raise
        # IndexError, and -1 would silently name the last vertex.
        with pytest.raises(PreconditionViolated,
                           match=re.escape("node 0 has vertex id %r, not an int from 0 to 1" % (v,))):
            STDecomposition([None], [None], [bag], "ab")
        # The offender is named past the root too.
        with pytest.raises(PreconditionViolated, match=re.escape("node 2 has vertex id %r" % (v,))):
            STDecomposition([1, None, None], [2, None, None], [(0, 1), (0, 1), bag], "ab")

    def test_refusals_survive_optimized_mode(self):
        # Under python -O every assert is stripped; a second root, a child id not
        # above its parent's, a negative, float or bool child id, a child listed
        # twice by one node or by two, one child only, a node no node lists,
        # unequal or empty columns, bags of 1 or 4 members and vertex ids that
        # are no index of the names must still raise.
        code = ("from spdim.stdecomp import STDecomposition\n"
                "from spdim.errors import PreconditionViolated\n"
                "leaf = dict(left=[None], right=[None], bag=[(0, 1)])\n"
                "three = dict(bag=[(0, 1)] * 3)\n"
                "five = dict(bag=[(0, 1)] * 5)\n"
                "for columns in (dict(leaf, left=[None, None], right=[None, None], bag=[(0, 1)] * 2),\n"
                "                dict(three, left=[None, 0, None], right=[None, 2, None]),\n"
                "                dict(three, left=[0, None, None], right=[2, None, None]),\n"
                "                dict(three, left=[-1, None, None], right=[2, None, None]),\n"
                "                dict(three, left=[0.5, None, None], right=[2, None, None]),\n"
                "                dict(three, left=[True, None, None], right=[2, None, None]),\n"
                "                dict(three, left=[1, None, None], right=[1, None, None]),\n"
                "                dict(three, left=[1, None, None], right=[None, None, None]),\n"
                "                dict(three, left=[None] * 3, right=[None] * 3),\n"
                "                dict(five, left=[1, 3, None, None, None], right=[3, 4, None, None, None]),\n"
                "                dict(leaf, bag=[(0, 1)] * 2), dict(leaf, left=[None, None]), {name: [] for name in leaf},\n"
                "                dict(leaf, bag=[(0,)]), dict(leaf, bag=[(0, 1, 0, 1)]),\n"
                "                dict(leaf, bag=[(0, 5)]), dict(leaf, bag=[(0, -1)]), dict(leaf, bag=[(0, 1.0)])):\n"
                "    try:\n        STDecomposition(**columns, names='ab')\n"
                "    except PreconditionViolated:\n        pass\n"
                "    else:\n        raise SystemExit('accepted %r' % (columns,))\n")
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr + res.stdout


class TestColumns:
    """The columns against decompositions built one ``DecompNode`` per node."""

    def test_match_per_node_reference_on_corpus(self):
        for seed, n in CORPUS:
            emb = embed_into_sp(random_tw2_poset(n, seed).cover_graph())
            d = build_st_decomposition(emb.sp, emb.names)
            ref = reference_decomposition(emb.sp, emb.names)
            for got, want in ((d, ref), (d.reverse(), reference_reverse(ref)),
                              (d.swap_size2_children(), reference_swap_size2_children(ref))):
                assert got.nodes == want.nodes, (seed, n)
                assert (got.root, got.names) == (want.root, want.names)
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
        assert g.edges <= emb.host.edges
        assert len(emb.added_edges) == len(emb.host.edges) - len(g.edges)
        assert len(emb.added_vertices) == len(emb.host.vertices) - len(g.vertices)


class TestReverse:
    def test_involution(self):
        _, d = random_decomposition(15, 11)
        again = d.reverse().reverse()
        assert again.nodes == d.nodes

    def test_single_node(self):
        d = build_st_decomposition(edge_node(0, 1), "ab")
        r = d.reverse()
        assert named(r, (r.bag[0][0], r.bag[0][-1])) == ("b", "a")

    def test_in_order_exactly_reversed(self):
        _, d = random_decomposition(20, 2)
        assert in_order(d.reverse()) == list(reversed(in_order(d)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_reversed_validates_for_swapped_terminals(self, n, seed):
        emb, d = random_decomposition(n, seed)
        assert validate_decomposition(d.reverse(), id_host(emb), emb.sp.sink, emb.sp.source)


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
        _, d = raw_decomposition(g)
        s = d.swap_size2_children()
        root = d.nodes[d.root]
        sroot = s.nodes[s.root]
        assert (sroot.left, sroot.right) == (root.right, root.left)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_swap_still_validates_same_terminals(self, n, seed):
        emb, d = random_decomposition(n, seed)
        assert validate_decomposition(d.swap_size2_children(), id_host(emb), emb.sp.source, emb.sp.sink)


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
        with pytest.raises(PreconditionViolated, match="edge is not on the tree path"):
            separation_hits(d, id_host(emb), root.left, d.root, (d.root, root.right), ids(d, {"a"}))

    def test_single_shared_vertex(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        assert separation_hits(d, id_host(emb), root.left, root.right, (d.root, root.right),
                               ids(d, {"b"}))

    def test_disconnected_subgraph_rejected(self):
        emb, d = path_decomposition()
        root = d.nodes[d.root]
        with pytest.raises(PreconditionViolated, match="subgraph is not connected"):
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
        with pytest.raises(PreconditionViolated, match="nodes are not comparable in the tree"):
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
                s1, t2 = d.nodes[u1].bag[0], d.nodes[u2].bag[-1]
                H = grow_connected_subset(g, rng, s1, [t2])
                v = st_subset_witness(d, g, u1, u2, H)
                path = tree_path(d, u1, u2)
                assert v in path
                assert d.nodes[v].bag[0] in H and d.nodes[v].bag[-1] in H
                assert any(d.nodes[w].bag[0] in H and d.nodes[w].bag[-1] in H for w in path)
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

    @pytest.mark.parametrize("bag, names", [((0, 1, 2, 3), "abcd"), ((0,), "a")],
                             ids=["four-members", "one-member"])
    def test_bag_of_other_size_is_refused(self, bag, names):
        # The writer has a branch per bag size of 2 or 3: no decomposition holds
        # a bag of another size for it to write.
        with pytest.raises(PreconditionViolated, match="node 0 has a bag of size %d, not 2 or 3" % len(bag)):
            STDecomposition([None], [None], [bag], names)
