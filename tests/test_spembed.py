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
from spdim.errors import InvalidSPTree, NotTreewidth2
from spdim.generators import chain, forest_poset, kelly, random_tw2_poset
from spdim.graphs import Graph, dumps_dot
from spdim.spembed import (
    EDGE,
    PARALLEL,
    SERIES,
    SPNode,
    augment_with_fresh_terminals,
    edge_node,
    embed_into_sp,
    parallel,
    series,
    sp_tree_violations,
    walk_postorder,
)
from spdim.stdecomp import build_st_decomposition

from oracles import (
    all_labeled_graphs,
    has_k4_minor,
    mirror,
    reference_decomposition,
    reference_reduce_component,
    reference_resolve,
    reference_sp_tree_violations,
    reference_terminal_candidates,
    reference_tw2_with_extra_edge,
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
        assert sp_tree_violations(leaf) == []
        assert leaf.source == "a" and leaf.sink == "b"

    def test_series_needs_shared_terminal(self):
        with pytest.raises(InvalidSPTree):
            series(edge_node("a", "b"), edge_node("c", "d"))

    def test_parallel_needs_same_terminals(self):
        with pytest.raises(InvalidSPTree):
            parallel(edge_node("a", "b"), edge_node("a", "c"))

    def test_parallel_extra_shared_vertex_invalid(self):
        left = series(edge_node("a", "m"), edge_node("m", "b"))
        right = series(edge_node("a", "m"), edge_node("m", "b"))
        bad = parallel(left, right)
        assert sp_tree_violations(bad)
        with pytest.raises(InvalidSPTree):
            build_st_decomposition(bad, "amb")

    def test_violations_reported_on_forged_node(self):
        left = series(edge_node("a", "m"), edge_node("m", "b"))
        bad = type(left)(PARALLEL, left, left, "a", "b")
        assert sp_tree_violations(bad)

    def test_mirror_round_trip(self):
        tree = parallel(edge_node("a", "b"),
                        series(edge_node("a", "c"), edge_node("c", "b")))
        rev = mirror(tree)
        assert rev.source == "b" and rev.sink == "a"
        assert sp_tree_violations(rev) == []
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
        if augment:
            emb = augment_with_fresh_terminals(emb)
        tree = emb.sp
        for _ in range(k):
            tree = mutate(data, tree)
        got = sp_tree_violations(tree)
        assert bool(got) == bool(reference_sp_tree_violations(tree)), got
        if k == 0:
            assert not got
        # The decomposition build shares the validator's walk: it refuses
        # exactly the trees with a violation.
        names = [str(v) for v in range(1 + max(v for node, _ in preorder_paths(tree)
                                                   for v in (node.source, node.sink)))]
        if got:
            with pytest.raises(InvalidSPTree):
                build_st_decomposition(tree, names)
        else:
            assert len(build_st_decomposition(tree, names)) == len(preorder_paths(tree))


def random_path(n, seed):
    "A path on v0..v(n-1) that visits the vertices in a random order."
    names = ["v%d" % i for i in range(n)]
    walk = names[:]
    random.Random(seed).shuffle(walk)
    return Graph(names, list(zip(walk, walk[1:])))


def all_nodes(root):
    "Every node of a tree, including any unary FLIP view."
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
        emb = augment_with_fresh_terminals(embed_into_sp(p.cover_graph()))
        d = build_st_decomposition(emb.sp, emb.names)
        assert max(d.depth(u) for u in range(len(d))) <= 2 * math.log2(len(p)) + 8

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random_tw2", "forest", "path"]),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_same_embedding_as_reference(self, family, n, seed):
        if family == "path":
            graph = random_path(n, seed)
        else:
            graph = {"random_tw2": random_tw2_poset, "forest": forest_poset}[family](n, seed).cover_graph()
        emb = embed_into_sp(graph)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spembed, "_normalized", reference_resolve)
            ref = embed_into_sp(graph)
        assert all(node.kind != spembed.FLIP for node in all_nodes(emb.sp))
        assert sp_tree_violations(emb.sp) == []
        assert (Counter(frozenset(e) for e in leaf_sequence(emb.sp))
                == Counter(frozenset(e) for e in leaf_sequence(ref.sp)))
        # Re-bracketing is associativity: the oriented leaves keep their order.
        assert leaf_sequence(emb.sp) == leaf_sequence(ref.sp)
        assert emb.host == ref.host
        assert emb.added_edges == ref.added_edges
        assert emb.added_vertices == ref.added_vertices
        assert (emb.source, emb.sink) == (ref.source, ref.sink)

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


class TestEmbedding:
    def test_single_edge(self):
        g = Graph("ab", [("a", "b")])
        emb = embed_into_sp(g)
        assert emb.sp.kind == EDGE
        assert emb.host == g
        assert not emb.added_edges and not emb.added_vertices

    def test_path_series_of_two_leaves(self):
        g = Graph("abc", [("a", "b"), ("b", "c")])
        emb = embed_into_sp(g)
        assert emb.host == g
        assert not emb.added_edges
        assert (emb.names[emb.source], emb.names[emb.sink]) == ("a", "c")
        assert emb.sp.kind == SERIES
        assert emb.sp.left.kind == EDGE and emb.sp.right.kind == EDGE

    def test_four_cycle_host_unchanged(self):
        g = cycle_graph(4)
        emb = embed_into_sp(g)
        assert emb.host == g
        assert not emb.added_edges
        assert sp_tree_violations(emb.sp) == []

    def test_isolated_vertices_get_connectors(self):
        g = Graph("ab", [])
        emb = embed_into_sp(g)
        assert sp_tree_violations(emb.sp) == []
        assert set(g.vertices) <= set(emb.host.vertices)
        assert len(emb.added_vertices) == 2

    def test_empty_graph(self):
        emb = embed_into_sp(Graph([], []))
        assert sp_tree_violations(emb.sp) == []
        assert len(emb.host.vertices) == 2

    def test_k4_refused(self):
        with pytest.raises(NotTreewidth2):
            embed_into_sp(k4())

    def test_treewidth3_refused_after_two_reductions(self, monkeypatch):
        # A guard against unbounded work that does not depend on timing: the
        # reduction that picks a random 3-tree's terminals stops with vertices
        # of degree 3 left, which refuses it, and no tree is built.
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
        for name in ("_reduce", "_reduce_component"):
            monkeypatch.setattr(spembed, name, counting(calls, name, getattr(spembed, name)))
        with pytest.raises(NotTreewidth2, match="^input graph has treewidth greater than 2$"):
            embed_into_sp(g)
        assert calls == Counter({"_reduce": 1})

    def test_pendants_on_k4_minus_edge_block(self):
        # The two degree-2 vertices of K4-e each carry a pendant; their
        # pendant ends are not jointly usable as terminals.
        g = Graph("abcdpq",
                  [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                   ("c", "p"), ("d", "q")])
        emb = embed_into_sp(g)
        assert sp_tree_violations(emb.sp) == []
        assert g.edges <= emb.host.edges

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_random_partial_2trees_embed(self, n, seed):
        g = random_partial_2tree(n, seed)
        emb = embed_into_sp(g)
        assert g.edges <= emb.host.edges
        assert set(g.vertices) <= set(emb.host.vertices)
        assert sp_tree_violations(emb.sp) == []
        embed_into_sp(emb.host)  # NotTreewidth2 if the host's treewidth were above 2
        assert emb.host.edges - g.edges == emb.added_edges

    def test_exhaustive_small_graphs_embed(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n, Graph):
                if not has_k4_minor(g):
                    emb = embed_into_sp(g)
                    assert sp_tree_violations(emb.sp) == []
                    assert g.edges <= emb.host.edges
                    assert not has_k4_minor(emb.host)

    def test_vertex_in_no_leaf_refused(self, monkeypatch):
        # A reduction that loses a vertex is caught by the normalising pass,
        # also under python -O, which strips asserts.
        monkeypatch.setattr(spembed, "_reduce_component", dropping_middles(spembed._reduce_component))
        with pytest.raises(InvalidSPTree, match="host vertex 'b' is in no leaf"):
            embed_into_sp(Graph("abc", [("a", "b"), ("b", "c")]))
        code = ("from spdim import spembed\n"
                "from spdim.errors import InvalidSPTree\n"
                "from spdim.graphs import Graph\n"
                "from test_spembed import dropping_middles\n"
                "spembed._reduce_component = dropping_middles(spembed._reduce_component)\n"
                "try:\n    spembed.embed_into_sp(Graph('abc', [('a', 'b'), ('b', 'c')]))\n"
                "except InvalidSPTree as exc:\n    print(exc)\n")
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr
        assert res.stdout == "host vertex 'b' is in no leaf\n"


def dropping_middles(reduce):
    "``_reduce_component`` with each tree replaced by one edge between its terminals."
    def reduce_to_one_edge(comp, comp_edges, s, t):
        tree, fills = reduce(comp, comp_edges, s, t)
        return edge_node(s, t), fills
    return reduce_to_one_edge


def id_arguments(graph, comp, comp_edges):
    "The degrees, component and edges ``_terminals`` takes, over vertex ids."
    idx = graph.index
    return ([len(nb) for nb in graph.adjacency()], [idx(v) for v in comp],
            [(idx(u), idx(v)) for u, v in comp_edges])


def terminals_by_name(graph):
    "``_terminals`` of a connected graph, as names."
    s, t = spembed._terminals(*id_arguments(graph, graph.vertices, graph.sorted_edges()))
    return graph.vertices[s], graph.vertices[t]


def connected_graphs(max_n):
    "Every connected labeled graph on 2 to ``max_n`` vertices."
    return [g for n in range(2, max_n + 1) for g in all_labeled_graphs(n, Graph) if len(g.components()) == 1]


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
        sparse = [g for g in connected_graphs(6) if len(g.edges) <= len(g.vertices)]
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
                         [(forest.vertices[u], forest.vertices[v]) for u, v in comp_edges])
                   for comp, comp_edges in components_with_edges(forest)]
        for g in graphs:
            assert len(g.edges) <= len(g.vertices)
            comp = list(g.vertices)
            assert terminals_by_name(g) == next(reference_terminal_candidates(g, comp, g.sorted_edges()))

    def test_dense_pair_passes_the_minor_oracle(self):
        # Every connected graph of treewidth <= 2 with more edges than vertices:
        # the component plus st has no K4 minor, by an oracle that does not reduce.
        dense = [g for g in connected_graphs(6) if len(g.edges) > len(g.vertices) and not has_k4_minor(g)]
        assert dense
        for g in dense:
            s, t = terminals_by_name(g)
            assert not has_k4_minor(Graph(g.vertices, list(g.edges) + [(s, t)])), (g.edges, s, t)

    def test_k2m_with_pendants_takes_one_reduction(self, monkeypatch):
        # A guard against unbounded work, counted: K_{2,m} with a pendant on
        # every middle vertex, where every pair of pendants fails, takes one
        # reduction, which picks a pair that passes.
        m = 1000
        mids = ["m%d" % i for i in range(m)]
        g = Graph(["a", "b"] + mids + ["p%d" % i for i in range(m)],
                  [(x, mid) for mid in mids for x in "ab"] + [(mid, "p" + mid[1:]) for mid in mids])
        calls = Counter()
        monkeypatch.setattr(spembed, "_reduce", counting(calls, "_reduce", spembed._reduce))
        emb = embed_into_sp(g)
        assert calls == Counter({"_reduce": 1})
        assert sp_tree_violations(emb.sp) == []
        assert g.edges <= emb.host.edges

    def test_long_path_ends_without_reduction(self, monkeypatch):
        # A guard against extra work that does not depend on timing: a path has
        # no more edges than vertices, so its ends are its terminals, unreduced.
        verts = ["v%d" % i for i in range(20000)]
        g = Graph(verts, list(zip(verts, verts[1:])))

        def forbidden(*args, **kwargs):
            raise AssertionError("a sparse component was reduced")

        monkeypatch.setattr(spembed, "_reduce", forbidden)
        assert terminals_by_name(g) == ("v0", "v19999")
        emb = embed_into_sp(g)
        assert (emb.names[emb.source], emb.names[emb.sink]) == ("v0", "v19999")


def components_with_edges(graph):
    "Each component of more than one vertex, with its edges, over ids."
    edges = graph.index_edges()
    for comp in graph.components():
        if len(comp) > 1:
            comp_set = set(comp)
            yield comp, [e for e in edges if e[0] in comp_set]


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


def shape(tree):
    "The (kind, source, sink) of every node in post-order, ``FLIP`` views included."
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append((node.kind, node.source, node.sink))
        stack.extend(child for child in (node.left, node.right) if child is not None)
    return out[::-1]


def assert_same_reduction(comp, comp_edges, pairs):
    for s, t in pairs:
        got = spembed._reduce_component(comp, comp_edges, s, t)
        want = reference_reduce_component(comp, comp_edges, s, t)
        assert (got is None) == (want is None), (s, t)
        if got is not None:
            assert got[1] == want[1] and shape(got[0]) == shape(want[0]), (s, t)


class TestReduceComponent:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=2))
    def test_matches_reference_on_every_pair(self, n, seed, extra):
        for comp, comp_edges in components_with_edges(partial_2tree_plus(n, seed, extra)):
            assert_same_reduction(comp, comp_edges, combinations(comp, 2))


BENCH_SHAPES = [("chain", lambda: chain(1500))] + [
    ("forest-%d" % s, lambda s=s: forest_poset(800, s)) for s in (3, 4, 5)] + [
    ("random_tw2-%d" % s, lambda s=s: random_tw2_poset(500, s)) for s in (2, 3)]


class TestBenchmarkShapes:
    """The rewritten kernels at the sizes the benchmark runs: one series run of
    1,499 operands, ~200 forest components with singletons and bridges, and
    components whose terminals one reduction picks."""

    @pytest.mark.parametrize("make", [pytest.param(make, id=k) for k, make in BENCH_SHAPES])
    def test_kernels_match_references(self, make, monkeypatch):
        graph = make().cover_graph()
        reduce_component, reductions = spembed._reduce_component, []

        def checked(*args):  # compared before the normaliser rewires the tree
            got, want = reduce_component(*args), reference_reduce_component(*args)
            assert (got is None) == (want is None), args[2:]
            if got is not None:
                assert got[1] == want[1] and shape(got[0]) == shape(want[0]), args[2:]
            reductions.append(got is not None)
            return got

        monkeypatch.setattr(spembed, "_reduce_component", checked)
        emb = embed_into_sp(graph)
        assert reductions and reductions[-1]
        monkeypatch.setattr(spembed, "_reduce_component", reduce_component)
        monkeypatch.setattr(spembed, "_normalized", reference_resolve)
        ref = embed_into_sp(graph)
        assert leaf_sequence(emb.sp) == leaf_sequence(ref.sp)
        assert sp_tree_violations(emb.sp) == []
        aug = augment_with_fresh_terminals(emb)
        assert (build_st_decomposition(aug.sp, aug.names).nodes
                == reference_decomposition(aug.sp, aug.names).nodes)


class TestAugment:
    def test_single_edge_becomes_three_path(self):
        emb = augment_with_fresh_terminals(embed_into_sp(Graph("ab", [("a", "b")])))
        assert len(emb.host.vertices) == 4
        assert len(emb.host.edges) == 3
        source, sink = emb.names[emb.source], emb.names[emb.sink]
        assert source not in ("a", "b") and sink not in ("a", "b")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_fresh_terminals_and_counts(self, n, seed):
        g = random_partial_2tree(n, seed)
        base = embed_into_sp(g)
        emb = augment_with_fresh_terminals(base)
        source, sink = emb.names[emb.source], emb.names[emb.sink]
        assert source not in g.vertices and sink not in g.vertices
        assert len(emb.host.vertices) == len(base.host.vertices) + 2
        assert len(emb.host.edges) == len(base.host.edges) + 2
        assert sp_tree_violations(emb.sp) == []


class TestGraphText:
    def test_dot_dashed_fill_edges(self):
        g = Graph("abc", [("a", "b"), ("b", "c")])
        dot = dumps_dot(g, dashed_edges=[("b", "c")])
        assert '"a" -- "b";' in dot
        assert '"b" -- "c" [style=dashed];' in dot
