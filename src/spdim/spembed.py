"""Treewidth-2 recognition and embedding into two-terminal series-parallel hosts.

An ``SPNode`` is one node of a binary composition tree: leaves are single
edges with a fixed source and sink; internal nodes are series or parallel
compositions of their children.  A node stores only its shape and its two
terminals; the subgraph of a node is the set of its leaves' edges, and the
composition rules are checked by one linear pre-order walk (``sp_tree_violations``)
whose positions, a parents-first order, become the decomposition's node ids.

``embed_into_sp`` turns any treewidth-<=2 graph into a supergraph that is
two-terminal series-parallel, together with its composition tree.  The
original graph is untouched: missing structure is added as fresh *fill* edges
and fresh connector vertices, never by identifying existing vertices.  The
tree is built with O(1) reversals (``FLIP`` views), which are resolved before
it is returned, balanced by leaf weight: paths and forests get depth O(log n).
Terminal pairs are tested in batches, one partly reduced kernel per batch; after
``MAX_REJECTIONS`` rejections the last two vertices of a reduction are taken.

Vertices are integer ids throughout: a graph vertex's id is its position in
the graph, fresh vertices get the next ids in the order they are made, and
id order is the canonical order of every tie-break.  ``Embedding.names``
maps ids back to names; the host graph is built only when it is read.
"""

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, islice

from .errors import InvalidSPTree, NotTreewidth2
from .graphs import Graph

SERIES = "series"
PARALLEL = "parallel"
EDGE = "edge"
FLIP = "flip"  # private: a reversed view of its left child, resolved inside embed_into_sp
MAX_REJECTIONS = 64  # rejected terminal pairs per component before the fallback pair


class SPNode:
    """One node of a series-parallel composition tree (not changed once built
    by ``embed_into_sp``, which rewires only the nodes of its own tree).

    A leaf (kind ``EDGE``) is the edge source-sink; a series node glues its
    left child's sink onto its right child's source; a parallel node
    identifies both terminals of its children.  A ``FLIP`` node exists only
    inside ``embed_into_sp``: its left child with source and sink exchanged.
    The constructors below check only the terminals of the two children;
    whether the children's subgraphs meet exactly where they should is a
    property of the whole tree, checked by ``sp_tree_violations``.
    """

    __slots__ = ("kind", "left", "right", "source", "sink")

    def __init__(self, kind, left, right, source, sink):
        self.kind = kind
        self.left = left
        self.right = right
        self.source = source
        self.sink = sink

    def __repr__(self):
        return "SPNode(%s, %s->%s)" % (self.kind, self.source, self.sink)

    def leaves(self):
        return sum(1 for node in walk_postorder(self) if node.kind == EDGE)


def edge_node(u, v):
    if u == v:
        raise InvalidSPTree("loop edge %r" % (u,))
    return SPNode(EDGE, None, None, u, v)


def series(a, b):
    "Series composition: glue a's sink onto b's source."
    if a.sink != b.source:
        raise InvalidSPTree("series children do not share a terminal")
    return SPNode(SERIES, a, b, a.source, b.sink)


def parallel(a, b):
    "Parallel composition: identify both terminals."
    if a.source != b.source or a.sink != b.sink:
        raise InvalidSPTree("parallel children disagree on terminals")
    return SPNode(PARALLEL, a, b, a.source, a.sink)


def walk_postorder(root):
    "Iterative post-order over an SP tree (children before parents)."
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.kind != EDGE:
            stack.append(node.left)
            stack.append(node.right)
    return reversed(out)


def sp_tree_violations(root):
    """Check the composition rules in one top-down pass; node numbers are
    pre-order positions.

    Under the terminal rules, a subtree's vertices are its two terminals and
    the shared vertices of the series nodes inside it, and every terminal is
    an outer terminal or the shared vertex of an ancestor.  The children of
    every node then meet exactly where they should iff no node has equal
    terminals, no shared vertex is an outer terminal or shared twice, and no
    edge lies in two leaves.
    """
    return _checked_preorder(root)[1]


def _checked_preorder(root):
    """The walk behind ``sp_tree_violations``.  Node positions are pre-order
    (parents first, a left child right after its parent); by position, it
    fills the decomposition columns ``(parent, left, right, bag, s, t)`` of
    ``build_st_decomposition`` and returns them with the problems."""
    problems = []
    shared = {root.source, root.sink}
    edges = set()
    parent, left, right, bag, source, sink = columns = [], [], [], [], [], []
    nodes, parents = [root], [None]
    while nodes:
        node, up = nodes.pop(), parents.pop()
        pos = len(parent)
        parent.append(up)
        right.append(None)
        if up is not None:  # the right child comes last, after the left subtree
            right[up] = pos
        s, t = node.source, node.sink
        source.append(s)
        sink.append(t)
        if s == t:
            problems.append("node %d: source equals sink" % pos)
        if node.kind == EDGE:
            left.append(None)
            bag.append((s, t))
            edge = (s, t) if s < t else (t, s)
            if edge in edges:
                problems.append("node %d: edge %r-%r is in two leaves" % (pos, s, t))
            edges.add(edge)
            continue
        a, b = node.left, node.right
        left.append(pos + 1)
        bag.append((s, a.sink, t) if node.kind == SERIES else (s, t))
        if node.kind == SERIES:
            if a.sink != b.source:
                problems.append("node %d: series children do not share a terminal" % pos)
            if (s, t) != (a.source, b.sink):
                problems.append("node %d: series terminals mismatch" % pos)
            if a.sink in shared:
                problems.append("node %d: shared vertex %r is an outer terminal or shared twice"
                                % (pos, a.sink))
            shared.add(a.sink)
        elif node.kind == PARALLEL:
            if not ((s, t) == (a.source, a.sink) == (b.source, b.sink)):
                problems.append("node %d: parallel children disagree on terminals" % pos)
        else:
            problems.append("node %d: unknown kind %r" % (pos, node.kind))
            continue
        nodes += b, a
        parents += pos, pos
    return columns, problems


def validate_sp_tree(root):
    return not sp_tree_violations(root)


@dataclass(frozen=True)
class Embedding:
    """A graph embedded in a two-terminal series-parallel host.

    The vertices of ``sp``, ``source`` and ``sink`` are ids: ``names[i]`` is
    the name of vertex i, the input graph's vertices first, in their order.
    ``added_edges`` (canonical name pairs) and ``added_vertices`` (names) are
    the fresh fill material.
    """

    sp: SPNode
    names: tuple
    added_edges: frozenset
    added_vertices: frozenset
    source: int
    sink: int

    @cached_property
    def host(self):
        "The graph of the leaf edges of ``sp``, over ``names``; the input graph is a subgraph of it."
        names = self.names
        return Graph(names, ((names[node.source], names[node.sink])
                             for node in walk_postorder(self.sp) if node.kind == EDGE))


def _reduces_to_empty(adj):
    "Whether ``_reduce`` empties the adjacency-set dict."
    return not _reduce(adj)


def _reduce(adj, pinned=(), keep=0):
    "Destructive partial-2-tree reduction of ``adj``; spares ``pinned``, stops at ``keep`` left."
    queue = [v for v, nb in adj.items() if len(nb) <= 2]
    while queue and len(adj) > keep:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 2 or v in pinned:
            continue
        nb = list(adj.pop(v))
        for u in nb:
            adj[u].discard(v)
        if len(nb) == 2:
            u, w = nb
            adj[u].add(w)
            adj[w].add(u)
        for u in nb:
            if len(adj[u]) <= 2:
                queue.append(u)
    return adj


def has_treewidth_at_most_2(graph):
    """Standard partial-2-tree reduction: repeatedly delete vertices of degree
    <= 1 and suppress degree-2 vertices (joining their neighbors); the graph
    has treewidth <= 2 iff this empties it."""
    return _reduces_to_empty({v: set(nb) for v, nb in enumerate(graph.adjacency())})


class _Names:
    "The vertex names by id, extended by fresh names that avoid every existing one."

    def __init__(self, names):
        self.names = list(names)
        self.taken = set(self.names)

    def make(self, base):
        "A fresh vertex named ``base`` plus enough primes to be new; returns its id."
        name = base
        while name in self.taken:
            name += "'"
        self.taken.add(name)
        self.names.append(name)
        return len(self.names) - 1

    def edges(self, pairs):
        "The id pairs as canonical name pairs (lower id first)."
        names = self.names
        return frozenset((names[u], names[v]) if u < v else (names[v], names[u]) for u, v in pairs)


def _flipped(tree):
    """The tree with source and sink exchanged, in O(1): a flip undone, a leaf
    reversed in place (a leaf under construction has one parent), or a ``FLIP`` view."""
    if tree.kind == FLIP:
        return tree.left
    if tree.kind == EDGE:
        tree.source, tree.sink = tree.sink, tree.source
        return tree
    return SPNode(FLIP, tree, None, tree.sink, tree.source)


def _one_flipped(a, b):
    "Reverse one of two trees, one that needs no new node if there is one."
    if a.kind in (FLIP, EDGE) or b.kind not in (FLIP, EDGE):
        return _flipped(a), b
    return a, _flipped(b)


def _normalized(root, names):
    """Resolve the ``FLIP`` views and re-bracket each maximal series or parallel run;
    ``InvalidSPTree`` unless every vertex id, an index of ``names``, is in a leaf.

    A flip parity is carried down: under odd parity leaves are reversed and
    series operands are read right to left.  A run's operands are normalised
    first, then joined on the run's own internal nodes at the midpoints of
    their leaf counts.  Every node has one parent, so the pass rewires nodes
    in place and allocates no node.
    """
    seen = bytearray(len(names))
    done = []  # normalised operands with their leaf counts, in order
    todo = [(root, 0)]  # (node, parity), or (a run's internal nodes, None) to join
    while todo:
        node, parity = todo.pop()
        if parity is None:
            k = len(done) - len(node) - 1
            done[k:] = [_rebracket(node, done[k:])]
            continue
        while node.kind == FLIP:
            node, parity = node.left, parity ^ 1
        if node.kind == EDGE:
            if parity:
                node.source, node.sink = node.sink, node.source
            seen[node.source] = seen[node.sink] = 1
            done.append((node, 1))
            continue
        inner, ops, stack = [], [], [(node, parity)]
        while stack:
            run, parity = stack.pop()
            while run.kind == FLIP:
                run, parity = run.left, parity ^ 1
            if run.kind != node.kind:
                ops.append((run, parity))
                continue
            inner.append(run)
            first, second = (run.right, run.left) if parity and run.kind == SERIES else (run.left, run.right)
            stack += ((second, parity), (first, parity))
        todo.append((inner, None))
        todo.extend(reversed(ops))
    if 0 in seen:
        raise InvalidSPTree("host vertex %r is in no leaf" % (names[seen.index(0)],))
    return done[0][0]


def _rebracket(inner, ops):
    """Join (tree, leaf count) operands in order on a run's internal nodes, splitting
    each range at the operand boundary nearest the midpoint of its leaf count."""
    if len(ops) == 2:  # most runs: one internal node, joined directly
        (node,), ((left, a), (right, b)) = inner, ops
        node.left, node.right = left, right
        node.source, node.sink = left.source, (right if node.kind == SERIES else left).sink
        return node, a + b
    prefix = list(accumulate((w for _, w in ops), initial=0))
    built = []
    todo = [(0, len(ops))]
    while todo:
        i, j = todo.pop()
        if i < 0:
            node = inner.pop()
            node.right = right = built.pop()
            node.left = left = built.pop()
            node.source, node.sink = left.source, (right if node.kind == SERIES else left).sink
            built.append(node)
        elif j - i == 1:
            built.append(ops[i][0])
        else:
            twice_mid = prefix[i] + prefix[j]
            m = bisect_left(prefix, twice_mid / 2, i + 1, j - 1)
            if m > i + 1 and twice_mid - 2 * prefix[m - 1] <= 2 * prefix[m] - twice_mid:
                m -= 1
            todo += ((-1, 0), (m, j), (i, m))
    return built[0], prefix[-1]


def _adjacency(comp, comp_edges):
    adj = {v: set() for v in comp}
    for u, v in comp_edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _batch_verdicts(comp, comp_edges, batch, untested):
    """Whether the component plus st has treewidth <= 2, lazily for each pair (s, t) of the
    batch.  One kernel, the component reduced sparing every vertex the batch names,
    serves them all: a pair costs one reduction of a copy of the kernel plus st.  If the
    component is ``untested``, at the first rejection a copy of the kernel, reduced sparing
    nothing, tests the component itself: one of treewidth > 2, which no pair can pass,
    raises ``NotTreewidth2``."""
    kernel = _reduce(_adjacency(comp, comp_edges), {v for pair in batch for v in pair})
    for s, t in batch:
        adj = {v: set(nb) for v, nb in kernel.items()}
        adj[s].add(t)
        adj[t].add(s)
        ok = _reduces_to_empty(adj)
        if not ok and untested:
            untested = False
            if not _reduces_to_empty({v: set(nb) for v, nb in kernel.items()}):
                raise NotTreewidth2("input graph has treewidth greater than 2")
        yield ok


def _terminal_candidates(degree, comp, comp_edges):
    """Terminal pairs to try, best first, generated lazily.

    A pair (s, t) admits a series-parallel host containing the component iff
    the component plus the edge st still has treewidth <= 2 (any host would
    tolerate a parallel st edge, and with it contains component + st as a
    subgraph).  Pairs of vertices of degree <= 2 come first, by degree sum,
    then id, so that paths keep their ends as terminals and fills stay rare;
    then the edges with an endpoint of higher degree (an edge always
    qualifies).  ``comp`` is a whole component, ascending, and ``degree[v]``
    is the graph degree of vertex v.

    With at most as many edges as vertices, the component plus st has
    cyclomatic number at most 2, K4 needs 3, so every pair passes untested.
    Otherwise batches of 8, 16, 32, ... pairs are each tested on one kernel
    (``_batch_verdicts``), exactly: a step on a vertex outside {s, t} sees the
    same neighbours with or without st, so the kernel's steps begin a reduction
    of the component plus st; each step keeps "treewidth <= 2" both ways, and
    minimum degree 3 forces treewidth 3, so any maximal reduction empties a
    graph iff its treewidth is <= 2, and the kernel also tests the component
    itself, once, at its first rejection.  A pair is yielded with its batch's
    verdicts and kernel freed, before the caller builds the tree.  After
    ``MAX_REJECTIONS`` rejections and no pass (never on ordinary inputs;
    K_{2,m} with pendants rejects every pendant pair), the search ends with the
    last two vertices of one unpinned reduction, lower id first: by the same
    argument they pass.
    """
    ones = [v for v in comp if degree[v] == 1]
    twos = [v for v in comp if degree[v] == 2]
    stream = chain(combinations(ones, 2), _mixed_pairs(degree, comp, ones, twos),
                   combinations(twos, 2),
                   ((u, v) for u, v in comp_edges if degree[u] > 2 or degree[v] > 2))
    if len(comp_edges) <= len(comp):
        yield from stream
        return
    size, rejections, passed = 8, 0, False
    while batch := list(islice(stream, size)):
        size *= 2
        while batch:
            for k, ok in enumerate(_batch_verdicts(comp, comp_edges, batch, not rejections)):
                if ok:
                    break
                rejections += 1
                if rejections == MAX_REJECTIONS and not passed:
                    last = _reduce(_adjacency(comp, comp_edges), keep=2)
                    if len(last) == 2:
                        yield min(last), max(last)
                    return
            else:
                break
            passed = True
            pair, batch = batch[k], batch[k + 1:]  # the kernel went with the verdicts
            yield pair


def _mixed_pairs(degree, comp, ones, twos):
    "Pairs of one degree-1 and one degree-2 vertex, in id order."
    seen = {1: 0, 2: 0}  # vertices of each degree up to u
    for u in comp:
        d = degree[u]
        if d <= 2:
            seen[d] += 1
            yield from ((u, v) for v in islice((twos, ones)[d - 1], seen[3 - d], None))


def _reduce_component(comp, comp_edges, s, t):
    """Build the composition tree of one connected component on terminals (s, t).

    The component is reduced by repeatedly suppressing a non-terminal vertex
    of degree 2 (a series composition of its two incident bundles, merged as
    a parallel composition with any bundle already joining its neighbors).
    A non-terminal vertex of degree 1 first receives a fill edge to another
    neighbor of its only neighbor, which makes it suppressible.  Returns the
    tree and the fill edges used, or None when the reduction cannot finish on
    these terminals.  Ties go to the least id.
    """
    adj = _adjacency(comp, comp_edges)
    N = comp[-1] + 1  # the bundle joining u < v is keyed u * N + v
    bundles = {u * N + v: SPNode(EDGE, None, None, u, v) for u, v in comp_edges}
    fills = []
    # The least reducible vertex: a min-heap of non-terminal ids (comp is
    # sorted, so the list starts as a heap), re-checked when popped and pushed
    # again when its degree drops to 2.
    ready = [v for v in comp if len(adj[v]) <= 2 and v != s and v != t]
    while len(adj) > 2:
        while ready:
            pick = heapq.heappop(ready)
            if pick in adj and len(adj[pick]) <= 2:
                break
        else:
            return None
        nb = adj[pick]
        if len(nb) == 1:
            (u,) = nb
            w = min((w for w in adj[u] if w != pick), default=None)
            assert w is not None, "dangling vertex with no fill partner"
            fill = (pick, w) if pick < w else (w, pick)
            fills.append(fill)
            bundles[fill[0] * N + fill[1]] = SPNode(EDGE, None, None, *fill)
            nb.add(w)
            adj[w].add(pick)
        u, w = adj.pop(pick)
        u, w = (u, w) if u < w else (w, u)
        left = bundles.pop(u * N + pick if u < pick else pick * N + u)
        right = bundles.pop(pick * N + w if pick < w else w * N + pick)
        if (left.sink == pick) != (right.source == pick):
            left, right = _one_flipped(left, right)
        if left.sink != pick:
            left, right = right, left
        tree = SPNode(SERIES, left, right, left.source, right.sink)
        adj[u].discard(pick)
        adj[w].discard(pick)
        old = bundles.get(u * N + w)
        if old is None:  # u and w keep their degrees
            bundles[u * N + w] = tree
            adj[u].add(w)
            adj[w].add(u)
            continue
        if old.source != tree.source:
            old, tree = _one_flipped(old, tree)
        bundles[u * N + w] = SPNode(PARALLEL, old, tree, old.source, old.sink)
        for v in (u, w):  # one fewer neighbour: reducible now if down to 2
            if len(adj[v]) == 2 and v != s and v != t:
                heapq.heappush(ready, v)

    assert set(adj) == {s, t} and len(bundles) == 1
    tree = bundles[s * N + t if s < t else t * N + s]
    return (tree if tree.source == s else _flipped(tree)), fills


def embed_into_sp(graph):
    """Embed a treewidth-<=2 graph into a two-terminal series-parallel host.

    Components are reduced independently with their own terminals, then
    chained with fresh bridge edges (component i's sink to component i+1's
    source).  Isolated vertices are first tied to a fresh connector vertex by
    one fill edge.  An edgeless input with no vertices becomes a single fresh
    edge so that the host is never empty.  The tree is returned normalised:
    no ``FLIP`` view, and every series or parallel run balanced.

    A component's treewidth is tested only when a terminal pair is rejected,
    on the kernel that judged the pair, never on the whole graph: reducing every
    component proves treewidth <= 2, and one of treewidth > 2 rejects its first pair.
    """
    names = _Names(graph.vertices)
    added_edges = []
    added_vertices = []
    trees = []
    degree = [len(nb) for nb in graph.adjacency()]
    comps = graph.components()
    comp_of = [0] * len(degree)
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    edges_of = [[] for _ in comps]
    for e in graph.index_edges():
        edges_of[comp_of[e[0]]].append(e)
    for k, (comp, comp_edges) in enumerate(zip(comps, edges_of)):
        if len(comp) == 1:
            v = comp[0]
            c = names.make("+c%d" % k)
            added_vertices.append(c)
            added_edges.append((v, c))
            trees.append(edge_node(v, c))
            continue
        result = None
        for s, t in _terminal_candidates(degree, comp, comp_edges):
            result = _reduce_component(comp, comp_edges, s, t)
            if result is not None:
                break
        if result is None:
            raise NotTreewidth2("component cannot be reduced to a series-parallel host")
        tree, fills = result
        added_edges.extend(fills)
        trees.append(tree)
    if not trees:
        a = names.make("+c0")
        b = names.make("+c1")
        added_vertices += [a, b]
        added_edges.append((a, b))
        trees.append(edge_node(a, b))
    root = trees[0]
    for tree in trees[1:]:
        bridge = (root.sink, tree.source)
        added_edges.append(bridge)
        root = series(root, series(edge_node(*bridge), tree))
    root = _normalized(root, names.names)
    return Embedding(sp=root, names=tuple(names.names), added_edges=names.edges(added_edges),
                     added_vertices=frozenset(names.names[v] for v in added_vertices),
                     source=root.source, sink=root.sink)


def augment_with_fresh_terminals(embedding):
    """Extend the host by fresh outer terminals so that neither terminal is a
    vertex of the original graph: series(edge(s*, s), series(tree, edge(t, t*)))."""
    names = _Names(embedding.names)
    s_new = names.make("+s")
    t_new = names.make("+t")
    tree = series(edge_node(s_new, embedding.source),
                  series(embedding.sp, edge_node(embedding.sink, t_new)))
    extra = names.edges([(s_new, embedding.source), (embedding.sink, t_new)])
    return Embedding(sp=tree, names=tuple(names.names),
                     added_edges=embedding.added_edges | extra,
                     added_vertices=embedding.added_vertices | {names.names[s_new], names.names[t_new]},
                     source=s_new, sink=t_new)
