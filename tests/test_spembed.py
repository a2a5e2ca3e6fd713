import builtins
import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spdim import spembed
from spdim.errors import NotTreewidth2, PreconditionViolated, UnknownElement
from spdim.generators import antichain, chain, forest_poset, kelly, random_tw2_poset
from spdim.graphs import Graph, dumps_dot
from spdim.spembed import (
    EDGE,
    PARALLEL,
    SERIES,
    Embedding,
    SPNode,
    edge_node,
    embed_into_sp,
    parallel,
    series,
)
from spdim.stdecomp import build_st_decomposition

from oracles import (
    all_labeled_graphs,
    has_k4_minor,
    mirror,
    raw_embedding,
    read_dot,
    reference_decomposition,
    reference_reduce_component,
    reference_resolve,
    reference_sp_tree_violations,
    reference_terminal_candidates,
    reference_tw2_with_extra_edge,
    walk_postorder,
)
from test_acceptance import embedding_refused


def k4():
    return Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d"),
                          ("b", "c"), ("b", "d"), ("c", "d")])


def cycle_graph(n):
    verts = ["v%d" % i for i in range(n)]
    return Graph(verts, list(zip(verts, verts[1:])) + [(verts[-1], verts[0])])


def random_partial_2tree(n, seed):
    return random_tw2_poset(n, seed).cover_graph()


def leaf_edge_set(tree):
    return {frozenset((n.source, n.sink)) for n in walk_postorder(tree) if n.kind == EDGE}


class TestRecognition:
    # The recognizer is the embedding itself: it refuses treewidth above 2.
    def test_k4_rejected(self):
        assert embedding_refused(k4())

    def test_trees_and_cycles(self):
        path = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        star = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
        assert not embedding_refused(path)
        assert not embedding_refused(star)
        assert not embedding_refused(cycle_graph(5))

    def test_kelly3_cover_graph_is_not_tw2(self):
        assert embedding_refused(kelly(3).cover_graph())

    def test_agrees_with_minor_oracle_small(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n, Graph):
                assert embedding_refused(g) == has_k4_minor(g)


class TestSPTreeAlgebra:
    def test_leaf(self):
        leaf = edge_node("a", "b")
        assert reference_sp_tree_violations(leaf) == []
        assert leaf.source == "a" and leaf.sink == "b"

    def test_series_needs_shared_terminal(self):
        with pytest.raises(PreconditionViolated, match="^series children do not share a terminal$"):
            series(edge_node("a", "b"), edge_node("c", "d"))
        # A series node forged past the constructor: both readers of the checked walk, the
        # decomposition build and the host, raise at its first broken rule and list no leaf.
        names = "abcd"
        forged = SPNode(SERIES, edge_node(0, 1), edge_node(2, 3), 0, 3)
        with pytest.raises(PreconditionViolated, match="^node 0: series children do not share a terminal$"):
            build_st_decomposition(forged, names)
        with pytest.raises(PreconditionViolated, match="^node 0: series children do not share a terminal$"):
            Embedding(Graph(names, [("a", "b"), ("c", "d")]), forged, names).host

    def test_parallel_needs_same_terminals(self):
        with pytest.raises(PreconditionViolated, match="^parallel children disagree on terminals$"):
            parallel(edge_node("a", "b"), edge_node("a", "c"))

    def test_parallel_extra_shared_vertex_invalid(self):
        left = series(edge_node("a", "m"), edge_node("m", "b"))
        right = series(edge_node("a", "m"), edge_node("m", "b"))
        bad = parallel(left, right)
        assert reference_sp_tree_violations(bad)
        with pytest.raises(PreconditionViolated,
                           match="^node 4: shared vertex 'm' is an outer terminal or shared twice$"):
            build_st_decomposition(bad, "amb")

    def test_violations_reported_on_forged_node(self):
        left = series(edge_node("a", "m"), edge_node("m", "b"))
        bad = type(left)(PARALLEL, left, left, "a", "b")
        assert reference_sp_tree_violations(bad)
        with pytest.raises(PreconditionViolated,
                           match="^node 4: shared vertex 'm' is an outer terminal or shared twice$"):
            build_st_decomposition(bad, "amb")

    def test_mirror_round_trip(self):
        tree = parallel(edge_node("a", "b"),
                        series(edge_node("a", "c"), edge_node("c", "b")))
        rev = mirror(tree)
        assert rev.source == "b" and rev.sink == "a"
        assert reference_sp_tree_violations(rev) == []
        assert leaf_edge_set(rev) == leaf_edge_set(tree)
        again = mirror(rev)
        assert again.source == "a" and leaf_edge_set(again) == leaf_edge_set(tree)


def preorder_paths(root):
    "Every node of a tree with its path from the root, in pre-order."
    out = []
    stack = [(root, ())]
    while stack:
        node, path = stack.pop()
        out.append((node, path))
        if node.kind != EDGE:
            stack.append((node.right, path + ("right",)))
            stack.append((node.left, path + ("left",)))
    return out


def replace_at(root, path, new):
    "The tree with the node at ``path`` replaced; its ancestors are rebuilt raw."
    if not path:
        return new
    step, rest = path[0], path[1:]
    left = replace_at(root.left, rest, new) if step == "left" else root.left
    right = replace_at(root.right, rest, new) if step == "right" else root.right
    return SPNode(root.kind, left, right, root.source, root.sink)


def relabel(node, old, new):
    "The subtree with vertex ``old`` renamed to ``new`` at every node."
    def name(v):
        return new if v == old else v
    if node.kind == EDGE:
        return leaf(name(node.source), name(node.sink))
    return SPNode(node.kind, relabel(node.left, old, new), relabel(node.right, old, new),
                  name(node.source), name(node.sink))


def leaf(u, v):
    "A raw leaf, with none of the constructor's checks."
    return SPNode(EDGE, None, None, u, v)


def mutate(data, root):
    """One raw mutation of the tree at a drawn node, on vertices drawn from
    the tree's own and one fresh id; the result may be valid or not."""
    nodes = preorder_paths(root)
    verts = sorted({v for node, _ in nodes for v in (node.source, node.sink)})
    verts.append(verts[-1] + 1)
    vertex = st.sampled_from(verts)
    how = data.draw(st.sampled_from(["repoint", "parallel", "swap", "relabel",
                                     "graft-path", "graft-tail", "forge"]))
    if how == "repoint":
        node, path = data.draw(st.sampled_from([(n, p) for n, p in nodes if n.kind == EDGE]))
        v = data.draw(vertex)
        new = leaf(v, node.sink) if data.draw(st.booleans()) else leaf(node.source, v)
    elif how == "swap":
        serial = [(n, p) for n, p in nodes if n.kind == SERIES]
        if not serial:
            return root
        node, path = data.draw(st.sampled_from(serial))
        new = SPNode(SERIES, node.right, node.left, node.source, node.sink)
    else:
        node, path = data.draw(st.sampled_from(nodes))
        s, t = node.source, node.sink
        if how == "parallel":
            other = data.draw(st.sampled_from(nodes))[0]
            new = SPNode(PARALLEL, node, other, s, t)
        elif how == "relabel":
            new = relabel(node, data.draw(vertex), data.draw(vertex))
        elif how == "graft-path":
            w = data.draw(vertex)
            new = SPNode(PARALLEL, node, SPNode(SERIES, leaf(s, w), leaf(w, t), s, t), s, t)
        elif how == "graft-tail":
            w = data.draw(vertex)
            new = SPNode(SERIES, node, leaf(t, w), s, w)
        else:
            new = SPNode(node.kind, node.left, node.right, data.draw(vertex), t)
    return replace_at(root, path, new)


class TestLinearValidator:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([random_tw2_poset, forest_poset]),
           st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6),
           st.booleans(), st.integers(min_value=0, max_value=2))
    def test_agrees_with_reference_on_mutated_trees(self, data, family, n, seed, augment, k):
        emb = embed_into_sp(family(n, seed).cover_graph())
        tree = emb.sp if augment else raw_embedding(emb)[0]
        for _ in range(k):
            tree = mutate(data, tree)
        want = reference_sp_tree_violations(tree)
        if k == 0:
            assert not want
        # The decomposition build's checked walk refuses exactly the trees
        # in which the reference finds a violation.
        names = [str(v) for v in range(1 + max(v for node, _ in preorder_paths(tree)
                                                   for v in (node.source, node.sink)))]
        if want:
            with pytest.raises(PreconditionViolated, match=r"^node \d+: "):
                build_st_decomposition(tree, names)
        else:
            assert len(build_st_decomposition(tree, names)) == len(preorder_paths(tree))


def random_path(n, seed):
    "A path on v0..v(n-1) that visits the vertices in a random order."
    names = ["v%d" % i for i in range(n)]
    walk = names[:]
    random.Random(seed).shuffle(walk)
    return Graph(names, list(zip(walk, walk[1:])))


def family_graph(family, n, seed):
    "A random path, or the cover graph of a random treewidth-2 poset or forest."
    if family == "path":
        return random_path(n, seed)
    return {"random_tw2": random_tw2_poset, "forest": forest_poset}[family](n, seed).cover_graph()


def all_nodes(root):
    "Every node of a tree."
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(child for child in (node.left, node.right) if child is not None)
    return out


def leaf_sequence(tree):
    return [(n.source, n.sink) for n in walk_postorder(tree) if n.kind == EDGE]


class TestBalancedTree:
    @pytest.mark.parametrize("make", [lambda: chain(4000), lambda: forest_poset(2000, 1)],
                             ids=["chain", "forest"])
    def test_decomposition_depth_is_logarithmic(self, make):
        p = make()
        emb = embed_into_sp(p.cover_graph())
        d = build_st_decomposition(emb.sp, emb.names)
        assert max(d.depth(u) for u in range(len(d))) <= 2 * math.log2(len(p)) + 8

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random_tw2", "forest", "path"]),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_same_embedding_as_reference(self, family, n, seed):
        graph = family_graph(family, n, seed)
        emb = embed_into_sp(graph)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spembed, "_normalized", reference_resolve)
            ref = embed_into_sp(graph)
        assert reference_sp_tree_violations(emb.sp) == []
        assert (Counter(frozenset(e) for e in leaf_sequence(emb.sp))
                == Counter(frozenset(e) for e in leaf_sequence(ref.sp)))
        # Re-bracketing is associativity: the oriented leaves keep their order.
        assert leaf_sequence(emb.sp) == leaf_sequence(ref.sp)
        assert emb.host == ref.host
        assert emb.added_edges == ref.added_edges
        assert emb.added_vertices == ref.added_vertices
        assert (emb.sp.source, emb.sp.sink) == (ref.sp.source, ref.sp.sink)

    def test_long_path_builds_few_nodes(self, monkeypatch):
        made = [0]

        class Counted(SPNode):
            __slots__ = ()

            def __init__(self, *args):
                made[0] += 1
                super().__init__(*args)

        monkeypatch.setattr(spembed, "SPNode", Counted)
        emb = embed_into_sp(random_path(3000, 5))
        assert made[0] <= 4 * len(leaf_edge_set(emb.sp))


def raw_tree(graph):
    """The tree ``embed_into_sp`` hands to its normaliser, stored lower id to higher id, and the
    vertex names it has then (the fresh outer terminals are named later)."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spembed, "_normalized", lambda root, names: got.append((root, tuple(names))) or root)
        embed_into_sp(graph)
    return got[0]


def reversed_children(root, rng):
    """A copy of an oriented tree with each node below the root stored reversed at random:
    its terminals exchanged and, on a series node, its children too, so that a left child
    still holds its parent's source."""
    done = {}
    for node in walk_postorder(root):
        flip = node is not root and rng.random() < 0.5
        s, t = (node.sink, node.source) if flip else (node.source, node.sink)
        left, right = done.get(id(node.left)), done.get(id(node.right))
        if flip and node.kind == SERIES:
            left, right = right, left
        done[id(node)] = SPNode(node.kind, left, right, s, t)
    return done[id(root)]


class TestOrientation:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=2))
    def test_reduction_stores_lower_to_higher(self, n, seed, extra):
        graph = partial_2tree_plus(n, seed, extra)
        for comp in nontrivial_components(graph):
            for pinned in [()] + list(combinations(comp, 2)):
                try:
                    tree = spembed._reduce_component(comp, graph.adjacency(), pinned)
                except NotTreewidth2:
                    continue
                for node in all_nodes(tree):
                    assert node.source < node.sink
                    if node.kind == SERIES:
                        assert node.source in (node.left.source, node.left.sink)
                        assert node.sink in (node.right.source, node.right.sink)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["random_tw2", "forest", "path"]),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_reversed_children_normalise_as_the_oriented_tree(self, family, n, seed):
        root, names = raw_tree(family_graph(family, n, seed))
        oriented = reference_resolve(root)
        want = shape(spembed._normalized(reference_resolve(oriented), names))
        assert shape(spembed._normalized(reversed_children(oriented, random.Random(seed)), names)) == want
        assert shape(spembed._normalized(root, names)) == want


def raw_embedded(graph):
    "``embed_into_sp(graph)`` as it was before its fresh outer terminals."
    return Embedding(graph, *raw_embedding(embed_into_sp(graph)))


class TestEmbedding:
    def test_single_edge(self):
        g = Graph("ab", [("a", "b")])
        emb = raw_embedded(g)
        assert emb.sp.kind == EDGE
        assert emb.host == g
        assert not emb.added_edges and not emb.added_vertices

    def test_path_series_of_two_leaves(self):
        g = Graph("abc", [("a", "b"), ("b", "c")])
        emb = raw_embedded(g)
        assert emb.host == g
        assert not emb.added_edges
        assert (emb.names[emb.sp.source], emb.names[emb.sp.sink]) == ("a", "c")
        assert emb.sp.kind == SERIES
        assert emb.sp.left.kind == EDGE and emb.sp.right.kind == EDGE

    def test_four_cycle_host_unchanged(self):
        g = cycle_graph(4)
        emb = raw_embedded(g)
        assert emb.host == g
        assert not emb.added_edges
        assert reference_sp_tree_violations(emb.sp) == []

    def test_isolated_vertices_get_connectors(self):
        g = Graph("ab", [])
        emb = raw_embedded(g)
        assert reference_sp_tree_violations(emb.sp) == []
        assert set(g.vertices) <= set(emb.host.vertices)
        assert len(emb.added_vertices) == 2

    def test_empty_graph(self):
        emb = raw_embedded(Graph([], []))
        assert reference_sp_tree_violations(emb.sp) == []
        assert len(emb.host.vertices) == 2

    def test_k4_refused(self):
        with pytest.raises(NotTreewidth2):
            embed_into_sp(k4())

    def test_treewidth3_refused_after_two_reductions(self, monkeypatch):
        # A guard against unbounded work that does not depend on timing: the
        # one reduction of a random 3-tree stops with vertices of degree 3
        # left, which refuses it.
        rng = random.Random(3)
        n = 2000
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        cliques = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for v in range(4, n):
            a, b, c = rng.choice(cliques)
            edges += [(a, v), (b, v), (c, v)]
            cliques += [(a, b, v), (a, c, v), (b, c, v)]
        g = Graph(range(n), edges)
        calls = Counter()
        monkeypatch.setattr(spembed, "_reduce_component",
                            counting(calls, "_reduce_component", spembed._reduce_component))
        with pytest.raises(NotTreewidth2, match="^input graph has treewidth greater than 2$"):
            embed_into_sp(g)
        assert calls == Counter({"_reduce_component": 1})

    def test_pendants_on_k4_minus_edge_block(self):
        # The two degree-2 vertices of K4-e each carry a pendant; their
        # pendant ends are not jointly usable as terminals.
        g = Graph("abcdpq",
                  [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                   ("c", "p"), ("d", "q")])
        emb = embed_into_sp(g)
        assert reference_sp_tree_violations(emb.sp) == []
        assert g.edges <= emb.host.edges

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_random_partial_2trees_embed(self, n, seed):
        g = random_partial_2tree(n, seed)
        emb = embed_into_sp(g)
        assert g.edges <= emb.host.edges
        assert set(g.vertices) <= set(emb.host.vertices)
        assert reference_sp_tree_violations(emb.sp) == []
        embed_into_sp(emb.host)  # NotTreewidth2 if the host's treewidth were above 2
        assert emb.host.edges - g.edges == emb.added_edges

    def test_exhaustive_small_graphs_embed(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n, Graph):
                if not has_k4_minor(g):
                    emb = embed_into_sp(g)
                    assert reference_sp_tree_violations(emb.sp) == []
                    assert g.edges <= emb.host.edges
                    assert not has_k4_minor(emb.host)
        # Six vertices, connected, each reduced without pins when it has more edges
        # than vertices; criterion 10 ties acceptance to the minor oracle.
        accepted = 0
        for g in connected_graphs(6, 6):
            try:
                emb = embed_into_sp(g)
            except NotTreewidth2:
                continue
            accepted += 1
            assert reference_sp_tree_violations(emb.sp) == []
            assert g.edges <= emb.host.edges
            embed_into_sp(emb.host)  # NotTreewidth2 if the host's treewidth were above 2
        assert accepted

    def test_vertex_in_no_leaf_refused(self, monkeypatch):
        # A reduction that loses a vertex is caught by the normalising pass,
        # also under python -O, which strips asserts.
        monkeypatch.setattr(spembed, "_reduce_component", dropping_middles(spembed._reduce_component))
        with pytest.raises(PreconditionViolated, match="host vertex 'b' is in no leaf"):
            embed_into_sp(Graph("abc", [("a", "b"), ("b", "c")]))
        code = ("from spdim import spembed\n"
                "from spdim.errors import PreconditionViolated\n"
                "from spdim.graphs import Graph\n"
                "from test_spembed import dropping_middles\n"
                "spembed._reduce_component = dropping_middles(spembed._reduce_component)\n"
                "try:\n    spembed.embed_into_sp(Graph('abc', [('a', 'b'), ('b', 'c')]))\n"
                "except PreconditionViolated as exc:\n    print(exc)\n")
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr
        assert res.stdout == "host vertex 'b' is in no leaf\n"


def dropping_middles(reduce):
    "``_reduce_component`` with each tree replaced by one edge between its terminals."
    def reduce_to_one_edge(comp, adjacency, pinned):
        tree = reduce(comp, adjacency, pinned)
        return edge_node(tree.source, tree.sink)
    return reduce_to_one_edge


def terminals_by_name(graph):
    "The terminals ``embed_into_sp`` gives a connected graph, inside its fresh outer terminals, as names."
    emb = raw_embedded(graph)
    return emb.names[emb.sp.source], emb.names[emb.sp.sink]


def connected_graphs(min_n, max_n):
    "Every connected labeled graph on ``min_n`` to ``max_n`` vertices."
    return [g for n in range(min_n, max_n + 1) for g in all_labeled_graphs(n, Graph)
            if len(g.components()) == 1]


class TestTerminalCandidates:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.booleans())
    def test_sparse_components_pass_every_pair(self, n, seed, chord):
        # A connected graph with m <= n edges plus any edge st has cyclomatic
        # number <= 2 and so no K4 minor: a sparse component's pair needs no test.
        rng = random.Random(seed)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        if chord and n > 2:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        assert len(edges) <= n
        comp = list(range(n))
        for s, t in combinations(comp, 2):
            assert reference_tw2_with_extra_edge(comp, sorted(edges), s, t), (s, t)


class TestTerminals:
    def test_sparse_pair_is_the_first_candidate_on_small_graphs(self):
        # The two vertices of least degree are the first pair of the reference
        # order: ends of paths first, then by degree sum and index.
        sparse = [g for g in connected_graphs(2, 6) if len(g.edges) <= len(g.vertices)]
        assert sparse
        for g in sparse:
            comp = list(g.vertices)
            assert terminals_by_name(g) == next(reference_terminal_candidates(g, comp, g.sorted_edges()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6),
           st.booleans())
    def test_sparse_pair_is_the_first_candidate_on_random_graphs(self, n, seed, chord):
        # A random tree, unicyclic with ``chord``, and each component of a forest's cover graph.
        rng = random.Random(seed)
        verts = ["v%d" % i for i in range(n)]
        edges = {(verts[rng.randrange(v)], verts[v]) for v in range(1, n)}
        if chord and n > 2:
            edges.add(tuple(sorted(rng.sample(verts, 2), key=verts.index)))
        graphs = [Graph(verts, edges)]
        forest = forest_poset(n, seed).cover_graph()
        graphs += [Graph([forest.vertices[v] for v in comp],
                         [(forest.vertices[u], forest.vertices[v]) for u in comp
                          for v in forest.adjacency()[u] if u < v])
                   for comp in nontrivial_components(forest)]
        for g in graphs:
            assert len(g.edges) <= len(g.vertices)
            comp = list(g.vertices)
            assert terminals_by_name(g) == next(reference_terminal_candidates(g, comp, g.sorted_edges()))

    def test_k2m_with_pendants_takes_one_reduction(self, monkeypatch):
        # A guard against unbounded work, counted: K_{2,m} with a pendant on
        # every middle vertex, where no two pendants can be terminals together,
        # takes one reduction, which ends on a pair that can.
        g = k2m_with_pendants(1000)
        calls = Counter()
        monkeypatch.setattr(spembed, "_reduce_component",
                            counting(calls, "_reduce_component", spembed._reduce_component))
        emb = embed_into_sp(g)
        assert calls == Counter({"_reduce_component": 1})
        assert reference_sp_tree_violations(emb.sp) == []
        assert g.edges <= emb.host.edges

    def test_star_pendant_fills_take_linear_work(self, monkeypatch):
        # A guard against unbounded work, counted: every leaf of a star is filled to the
        # hub's least other neighbour, which a scan of the hub's neighbours made quadratic.
        m = 3000
        work = Counter()
        for name in ("min", "sorted"):
            monkeypatch.setattr(spembed, name, reading(work, name, getattr(builtins, name)), raising=False)
        monkeypatch.setattr(spembed, "heappop", counting(work, "heappop", spembed.heappop))
        emb = embed_into_sp(star(m))
        assert sum(work.values()) <= 10 * m, work
        assert reference_sp_tree_violations(emb.sp) == []

    def test_long_path_ends_without_reduction(self, monkeypatch):
        # A guard against extra work that does not depend on timing: a path has
        # no more edges than vertices, so one reduction, pinned at its ends,
        # builds its tree.
        verts = ["v%d" % i for i in range(20000)]
        g = Graph(verts, list(zip(verts, verts[1:])))
        pins = []
        reduce_component = spembed._reduce_component

        def recorded(comp, adjacency, pinned):
            pins.append(tuple(pinned))
            return reduce_component(comp, adjacency, pinned)

        monkeypatch.setattr(spembed, "_reduce_component", recorded)
        assert terminals_by_name(g) == ("v0", "v19999")
        assert pins == [(0, 19999)]


def k2m_with_pendants(m):
    "K_{2,m} on a, b and m0..m{m-1}, with a pendant p_i on every middle vertex m_i."
    mids = ["m%d" % i for i in range(m)]
    return Graph(["a", "b"] + mids + ["p%d" % i for i in range(m)],
                 [(x, mid) for mid in mids for x in "ab"] + [(mid, "p" + mid[1:]) for mid in mids])


def star(m):
    "K_{1,m}: a hub h with leaves l0..l{m-1}."
    leaves = ["l%d" % i for i in range(m)]
    return Graph(["h"] + leaves, [("h", leaf) for leaf in leaves])


def hub_with_pendant_paths(k, length):
    """A hub h with a leaf l and k paths q<i>_0..q<i>_<length-1> hanging from it, each with a leaf r<i>
    of the hub numbered after q<i>_0: reduced unpinned, q<i>_0 goes first and joins the hub to
    q<i>_1, the least other neighbour the hub has when r<i> is filled."""
    paths = [["q%d_%d" % (i, j) for j in range(length)] for i in range(k)]
    vertices = ["h", "l"] + [v for i, path in enumerate(paths) for v in [path[0], "r%d" % i] + path[1:]]
    edges = [("h", "l")] + [e for i, path in enumerate(paths)
                            for e in [("h", "r%d" % i), ("h", path[0])] + list(zip(path, path[1:]))]
    return Graph(vertices, edges)


def nontrivial_components(graph):
    "Each component of more than one vertex, as ascending ids."
    return [comp for comp in graph.components() if len(comp) > 1]


def partial_2tree_plus(n, seed, extra):
    "A random partial 2-tree over ids 0..n-1 plus ``extra`` random edges, often making a K4 minor."
    rng = random.Random(seed)
    edges = set(random_partial_2tree(n, seed).index_edges())
    for _ in range(extra if n > 3 else 0):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(range(n), edges)


def counting(calls, name, function):
    "``function`` counting its calls in ``calls[name]``."
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counted


def reading(work, name, function):
    "``function`` of one iterable, or of its arguments, counting the items it reads in ``work[name]``."
    def counted(*args, **kwargs):
        items = list(args[0] if len(args) == 1 else args)
        work[name] += len(items)
        return function(items, **kwargs)
    return counted


def shape(tree):
    "The (kind, source, sink) of every node in post-order."
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append((node.kind, node.source, node.sink))
        stack.extend(child for child in (node.left, node.right) if child is not None)
    return out[::-1]


def fills_of(tree, adjacency):
    "A component tree's fill edges, sorted: its leaves, lower id first, whose ends ``adjacency`` does not join."
    leaves = (tuple(sorted((n.source, n.sink))) for n in walk_postorder(tree) if n.kind == EDGE)
    return sorted((u, v) for u, v in leaves if v not in adjacency[u])


def kernel_reduction(comp, adjacency, pinned):
    "``spembed._reduce_component``'s tree and its fills, read off the tree."
    tree = spembed._reduce_component(comp, adjacency, pinned)
    return tree, fills_of(tree, adjacency)


def reduction(reduce, comp, adjacency, pinned):
    """The sorted fills and the shape of the tree ``reduce`` builds, oriented from its root, or the
    message of its refusal; ``reduce`` returns the tree and its fills in any order."""
    try:
        tree, fills = reduce(comp, adjacency, pinned)
    except NotTreewidth2 as exc:
        return str(exc)
    return sorted(fills), shape(reference_resolve(tree))


class TestReduceComponent:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=2))
    def test_matches_reference_on_every_pair(self, n, seed, extra):
        graph = partial_2tree_plus(n, seed, extra)
        adjacency = graph.adjacency()
        for comp in nontrivial_components(graph):
            for pinned in [()] + list(combinations(comp, 2)):
                assert (reduction(kernel_reduction, comp, adjacency, pinned)
                        == reduction(reference_reduce_component, comp, adjacency, pinned)), pinned

    @pytest.mark.parametrize("make", [pytest.param(lambda: star(200), id="star"),
                                      pytest.param(lambda: hub_with_pendant_paths(20, 4), id="hub-pendant-paths")])
    def test_matches_reference_on_hubs(self, make):
        # Many pendant fills partner the hub, whose neighbours change by removals and series joins.
        graph = make()
        adjacency = graph.adjacency()
        (comp,) = nontrivial_components(graph)
        for pinned in [(), (0, comp[-1])] + random.Random(0).sample(list(combinations(comp, 2)), 20):
            assert (reduction(kernel_reduction, comp, adjacency, pinned)
                    == reduction(reference_reduce_component, comp, adjacency, pinned)), pinned


class TestNeighbourOrder:
    """``_reduce_component`` reads each vertex's neighbours as stored, and its tree, so the
    embedding, must not depend on that order."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: random_tw2_poset(300, 1).cover_graph(), id="random_tw2-1"),
        pytest.param(lambda: random_tw2_poset(300, 2).cover_graph(), id="random_tw2-2"),
        pytest.param(lambda: forest_poset(300, 1).cover_graph(), id="forest"),
        pytest.param(lambda: k2m_with_pendants(150), id="k2m-pendants"),
        pytest.param(lambda: star(300), id="star"),
        pytest.param(lambda: hub_with_pendant_paths(30, 4), id="hub-pendant-paths")])
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_columns_ignore_neighbour_order(self, make, order, monkeypatch):
        graph = make()
        plain = spembed._checked_preorder(embed_into_sp(graph).sp)
        reduce_component, rng, calls = spembed._reduce_component, random.Random(5), []

        def permuted(comp, adjacency, pinned):
            lists = list(adjacency)
            for v in comp:
                lists[v] = sorted(adjacency[v], reverse=True)
                if order == "shuffled":
                    rng.shuffle(lists[v])
            calls.append(len(comp))
            return reduce_component(comp, lists, pinned)

        monkeypatch.setattr(spembed, "_reduce_component", permuted)
        assert spembed._checked_preorder(embed_into_sp(graph).sp) == plain
        assert calls


BENCH_SHAPES = [("chain", lambda: chain(1500))] + [
    ("forest-%d" % s, lambda s=s: forest_poset(800, s)) for s in (3, 4, 5)] + [
    ("random_tw2-%d" % s, lambda s=s: random_tw2_poset(500, s)) for s in (2, 3)]


class TestBenchmarkShapes:
    """The rewritten kernels at the sizes the benchmark runs: one series run of
    1,499 operands, ~200 forest components with singletons and bridges, and
    components reduced without pins to their terminals."""

    @pytest.mark.parametrize("make", [pytest.param(make, id=k) for k, make in BENCH_SHAPES])
    def test_kernels_match_references(self, make, monkeypatch):
        graph = make().cover_graph()
        reduce_component, reductions = spembed._reduce_component, []

        def checked(*args):  # compared before the normaliser rewires the tree
            got, (want, fills) = reduce_component(*args), reference_reduce_component(*args)
            assert fills_of(got, args[1]) == sorted(fills), args[2]
            assert shape(reference_resolve(got)) == shape(want), args[2]
            reductions.append(args[2])
            return got

        monkeypatch.setattr(spembed, "_reduce_component", checked)
        emb = embed_into_sp(graph)
        assert reductions
        monkeypatch.setattr(spembed, "_reduce_component", reduce_component)
        monkeypatch.setattr(spembed, "_normalized", reference_resolve)
        ref = embed_into_sp(graph)
        assert leaf_sequence(emb.sp) == leaf_sequence(ref.sp)
        assert reference_sp_tree_violations(emb.sp) == []
        assert (build_st_decomposition(emb.sp, emb.names).nodes
                == reference_decomposition(emb.sp, emb.names).nodes)


class TestAugment:
    def test_single_edge_becomes_three_path(self):
        emb = embed_into_sp(Graph("ab", [("a", "b")]))
        assert len(emb.host.vertices) == 4
        assert len(emb.host.edges) == 3
        source, sink = emb.names[emb.sp.source], emb.names[emb.sp.sink]
        assert source not in ("a", "b") and sink not in ("a", "b")

    @settings(max_examples=45, deadline=None)
    @given(st.sampled_from(["random_tw2", "forest", "antichain"]), st.integers(min_value=1, max_value=25),
           st.integers(min_value=0, max_value=10**6))
    def test_fresh_terminals_and_counts(self, family, n, seed):
        # Forests and antichains are disconnected: their hosts hold connector and bridge fills.
        g = antichain(n).cover_graph() if family == "antichain" else family_graph(family, n, seed)
        emb = embed_into_sp(g)
        base = raw_embedded(g)
        source, sink = emb.names[emb.sp.source], emb.names[emb.sp.sink]
        assert source not in g.vertices and sink not in g.vertices
        assert (emb.sp.source, emb.sp.sink) == (len(emb.names) - 2, len(emb.names) - 1)
        assert len(emb.host.vertices) == len(base.host.vertices) + 2
        assert len(emb.host.edges) == len(base.host.edges) + 2
        assert reference_sp_tree_violations(emb.sp) == []
        names = emb.names
        assert emb.host.edges == {(names[min(u, v)], names[max(u, v)])
                                  for u, v in leaf_sequence(emb.sp)}


class TestGraphEdges:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]), max_size=40))
    def test_edges_merge_duplicates_and_orientations(self, pairs):
        names = ["v%d" % i for i in range(12)]
        g = Graph(names, [(names[i], names[j]) for i, j in pairs])
        assert g.edges == {(names[min(e)], names[max(e)]) for e in pairs}


class TestGraphRefusals:
    @pytest.mark.parametrize("vertices, edges, message", [
        ("aba", [], "duplicate vertex 'a'"),
        ("ab", [("z", "b")], "unknown vertex 'z'"),
        ("ab", [("a", "z")], "unknown vertex 'z'"),
        ("ab", [("a", "a")], "loop edge at 'a'"),
    ], ids=["duplicate-vertex", "unknown-first-end", "unknown-second-end", "loop-edge"])
    def test_bad_graph_is_refused(self, vertices, edges, message):
        with pytest.raises(UnknownElement, match=message):
            Graph(vertices, edges)

    def test_index_of_an_unknown_vertex(self):
        with pytest.raises(UnknownElement, match="unknown vertex 'z'"):
            Graph("ab", [("a", "b")]).index("z")


class TestGraphText:
    def test_dot_dashed_fill_edges(self):
        g = Graph("abc", [("a", "b"), ("b", "c")])
        dot = dumps_dot(g, dashed_edges=[("b", "c")])
        assert '"a" -- "b";' in dot
        assert '"b" -- "c" [style=dashed];' in dot

    def test_dot_ids_decode_to_names(self):
        names = ['a"b', "c\\", "d", "<e&f>", "g'h\\\"", "\u00e9"]
        g = Graph(names, list(zip(names, names[1:])))
        dot = dumps_dot(g, dashed_edges=[("c\\", "d")])
        assert read_dot(dot) == (names, g.sorted_edges())
        assert '  <a&quot;b> -- <c\\>;' in dot.splitlines()
        assert '  <c\\> -- "d" [style=dashed];' in dot.splitlines()
