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

from heapq import heappop, heappush
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
    """The walk behind ``sp_tree_violations``, over a flat stack of (node, parent
    position) pairs.  Node positions are pre-order (parents first, a left child right
    after its parent); by position, it fills the decomposition columns ``(parent, left,
    right, bag, s, t)`` of ``build_st_decomposition`` and returns them with the problems."""
    problems = []
    shared = {root.source, root.sink}
    edges = set()
    parent, left, right, bag, source, sink = columns = [], [], [], [], [], []
    todo, pos = [root, -1], -1
    while todo:
        up, node = todo.pop(), todo.pop()
        pos += 1
        parent.append(up)
        right.append(None)
        if pos - up > 1:  # a right child, placed after its parent's left subtree
            right[up] = pos
        s, t = node.source, node.sink
        source.append(s)
        sink.append(t)
        if s == t:
            problems.append("node %d: source equals sink" % pos)
        kind = node.kind
        if kind == EDGE:
            left.append(None)
            bag.append(edge := (s, t))
            edge = edge if s < t else (t, s)
            if edge in edges:
                problems.append("node %d: edge %r-%r is in two leaves" % (pos, s, t))
            edges.add(edge)
            continue
        a, b = node.left, node.right
        left.append(pos + 1)
        bag.append((s, a.sink, t) if kind == SERIES else (s, t))
        if kind == SERIES:
            if a.sink != b.source:
                problems.append("node %d: series children do not share a terminal" % pos)
            if s != a.source or t != b.sink:
                problems.append("node %d: series terminals mismatch" % pos)
            if a.sink in shared:
                problems.append("node %d: shared vertex %r is an outer terminal or shared twice"
                                % (pos, a.sink))
            shared.add(a.sink)
        elif kind == PARALLEL:
            if not (s == a.source == b.source and t == a.sink == b.sink):
                problems.append("node %d: parallel children disagree on terminals" % pos)
        else:
            problems.append("node %d: unknown kind %r" % (pos, kind))
            continue
        todo += b, pos, a, pos
    parent[0] = None
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
    in place and allocates no node.  ``todo`` is one flat stack of (node, parity)
    pairs, parity 2 marking a run of two operands to join and 3 a longer run's
    internal nodes; ``trees`` and ``counts`` hold the operands done and their leaf counts.
    """
    seen = bytearray(len(names))
    trees, counts = [], []
    todo = [root, 0]
    while todo:
        parity, node = todo.pop(), todo.pop()
        if parity == 2:
            node.right = right = trees.pop()
            node.left = left = trees[-1]
            node.source, node.sink = left.source, (right if node.kind == SERIES else left).sink
            trees[-1] = node
            counts.append(counts.pop() + counts.pop())
        elif parity == 3:
            k = len(trees) - len(node) - 1
            trees[k:], counts[k:] = _rebracket(node, trees[k:], counts[k:])
        elif node.kind == EDGE:
            if parity:
                node.source, node.sink = node.sink, node.source
            seen[node.source] = seen[node.sink] = 1
            trees.append(node)
            counts.append(1)
        else:
            while node.kind == FLIP:  # a view is never of a leaf or of another view
                node, parity = node.left, parity ^ 1
            kind = node.kind
            first, second = (node.right, node.left) if parity and kind == SERIES else (node.left, node.right)
            if ((first.left if first.kind == FLIP else first).kind != kind
                    and (second.left if second.kind == FLIP else second).kind != kind):
                todo += node, 2, second, parity, first, parity
                continue
            inner, ops, stack = [], [], [node, parity]
            while stack:
                parity, run = stack.pop(), stack.pop()
                while run.kind == FLIP:
                    run, parity = run.left, parity ^ 1
                if run.kind != kind:
                    ops += parity, run
                    continue
                inner.append(run)
                first, second = (run.right, run.left) if parity and kind == SERIES else (run.left, run.right)
                stack += second, parity, first, parity
            todo += inner, 3, *reversed(ops)
    if 0 in seen:
        raise InvalidSPTree("host vertex %r is in no leaf" % (names[seen.index(0)],))
    return trees[0]


def _rebracket(inner, ops, counts):
    """Join operands in order, ``counts`` their leaf counts, on a run's internal nodes, splitting
    each range at the operand boundary nearest the midpoint of its leaf count; returns the tree and
    its leaf count as one-item lists.  ``todo`` is a flat stack of ranges (i, j) and joins (node, None)."""
    prefix = list(accumulate(counts, initial=0))
    built = []
    todo = [0, len(ops)]
    while todo:
        j, i = todo.pop(), todo.pop()
        if j is None or j - i == 2:  # a join: node i over the last two trees built, or two operands
            node, left, right = (i, built.pop(-2), built.pop()) if j is None else (inner.pop(), ops[i], ops[i + 1])
            node.left, node.right = left, right
            node.source, node.sink = left.source, (right if node.kind == SERIES else left).sink
            built.append(node)
        elif j - i == 1:
            built.append(ops[i])
        else:
            twice_mid = prefix[i] + prefix[j]
            m = bisect_left(prefix, twice_mid / 2, i + 1, j - 1)
            if m > i + 1 and twice_mid - 2 * prefix[m - 1] <= 2 * prefix[m] - twice_mid:
                m -= 1
            todo += inner.pop(), None, m, j, i, m
    return built, prefix[-1:]


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
    these terminals.  Ties go to the least id.  Each vertex maps every neighbour
    to the bundle joining them, one tree for both ends (``adj[u][v] is adj[v][u]``).
    """
    adj = {v: {} for v in comp}
    for u, v in comp_edges:
        adj[u][v] = adj[v][u] = SPNode(EDGE, None, None, u, v)
    fills = []
    # The least reducible vertex: a min-heap of non-terminal ids (comp is
    # sorted, so the list starts as a heap), re-checked when popped and pushed
    # again when its degree drops to 2.
    ready = [v for v in comp if len(adj[v]) <= 2 and v != s and v != t]
    while len(adj) > 2:
        while ready:
            pick = heappop(ready)
            if pick in adj and len(adj[pick]) <= 2:
                break
        else:
            return None
        nb = adj.pop(pick)
        if len(nb) == 1:
            (u,) = nb
            w = min((w for w in adj[u] if w != pick), default=None)
            assert w is not None, "dangling vertex with no fill partner"
            fill = (pick, w) if pick < w else (w, pick)
            fills.append(fill)
            nb[w] = adj[w][pick] = SPNode(EDGE, None, None, *fill)
        (u, left), (w, right) = nb.items()
        if u > w:
            u, w, left, right = w, u, right, left
        if (left.sink == pick) != (right.source == pick):
            left, right = _one_flipped(left, right)
        if left.sink != pick:
            left, right = right, left
        tree = SPNode(SERIES, left, right, left.source, right.sink)
        at_u, at_w = adj[u], adj[w]
        del at_u[pick], at_w[pick]
        old = at_u.get(w)
        if old is None:  # u and w keep their degrees
            at_u[w] = at_w[u] = tree
            continue
        if old.source != tree.source:
            old, tree = _one_flipped(old, tree)
        at_u[w] = at_w[u] = SPNode(PARALLEL, old, tree, old.source, old.sink)
        for v in (u, w):  # one fewer neighbour: reducible now if down to 2
            if len(adj[v]) == 2 and v != s and v != t:
                heappush(ready, v)

    assert set(adj) == {s, t} and len(adj[s]) == 1
    tree = adj[s][t]
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
    adjacency = graph.adjacency()
    degree = [len(nb) for nb in adjacency]
    for k, comp in enumerate(graph.components()):
        if len(comp) == 1:
            v = comp[0]
            c = names.make("+c%d" % k)
            added_vertices.append(c)
            added_edges.append((v, c))
            trees.append(edge_node(v, c))
            continue
        comp_edges = [(u, v) for u in comp for v in sorted(adjacency[u]) if u < v]  # index_edges() order
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
