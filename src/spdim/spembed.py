"""Treewidth-2 recognition and embedding into two-terminal series-parallel hosts.

An ``SPNode`` is one node of a binary composition tree: leaves are single
edges with a fixed source and sink; internal nodes are series or parallel
compositions of their children.  A node stores only its shape and its two
terminals; the subgraph of a node is the set of its leaves' edges, and the
composition rules are checked by one linear pre-order walk, which stops at the first
broken rule and whose positions, a parents-first order, become the decomposition's node ids.

``embed_into_sp`` turns any treewidth-<=2 graph into a supergraph that is
two-terminal series-parallel, together with its composition tree, and ends it
at two fresh outer terminals, so that neither terminal is a vertex of the graph.
The original graph is untouched: missing structure is added as fresh *fill* edges
and fresh connector vertices, never by identifying existing vertices.  The
reduction stores every bundle from its lower-id end to its higher-id end and
reverses nothing; one final pass orients the tree from its root and balances
it by leaf weight: paths and forests get depth O(log n).
Each component is reduced once, and that reduction is also its treewidth test.  A
component with no more edges than vertices pins its two vertices of least degree
as terminals; any other component ends on two vertices, which become its terminals.

Vertices are integer ids throughout: a graph vertex's id is its position in
the graph, fresh vertices get the next ids in the order they are made, and
id order is the canonical order of every tie-break.  ``Embedding.names``
maps ids back to names; the host graph and its fill edges are built only when read.
"""

from heapq import heappop, heappush, nsmallest
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import NotTreewidth2, PreconditionViolated
from .graphs import Graph

SERIES = "series"
PARALLEL = "parallel"
EDGE = "edge"


class SPNode:
    """One node of a series-parallel composition tree (not changed once built
    by ``embed_into_sp``, which rewires only the nodes of its own tree).

    A leaf (kind ``EDGE``) is the edge source-sink; a series node glues its
    left child's sink onto its right child's source; a parallel node
    identifies both terminals of its children.  Inside ``embed_into_sp`` every
    node runs from its lower id to its higher id, a series node's left child
    holding its source, so a child may run against what its parent composes.
    The constructors below check only the terminals of the two children;
    whether the children's subgraphs meet exactly where they should is a
    property of the whole tree, checked by the walk of ``build_st_decomposition``.
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


def edge_node(u, v):
    if u == v:
        raise PreconditionViolated("loop edge %r" % (u,))
    return SPNode(EDGE, None, None, u, v)


def series(a, b):
    "Series composition: glue a's sink onto b's source."
    if a.sink != b.source:
        raise PreconditionViolated("series children do not share a terminal")
    return SPNode(SERIES, a, b, a.source, b.sink)


def parallel(a, b):
    "Parallel composition: identify both terminals."
    if a.source != b.source or a.sink != b.sink:
        raise PreconditionViolated("parallel children disagree on terminals")
    return SPNode(PARALLEL, a, b, a.source, a.sink)


def _checked_preorder(root):
    """Check the composition rules in one top-down walk over a flat stack of (node, parent position)
    pairs; ``PreconditionViolated`` names the first broken rule and its node's position.  Positions
    are pre-order (parents first, a left child right after its parent); by position, the walk returns
    the decomposition columns ``(left, right, bag)``, each bag running from the node's source to its sink.

    Under the terminal rules, a subtree's vertices are its two terminals and the shared vertices
    of the series nodes inside it, and every terminal is an outer terminal or the shared vertex
    of an ancestor.  The children of every node then meet exactly where they should iff no node
    has equal terminals, no shared vertex is an outer terminal or shared twice, and no edge lies
    in two leaves.
    """
    shared = {root.source, root.sink}
    edges = set()
    left, right, bag = columns = [], [], []
    todo, pos = [root, -1], -1
    while todo:
        up, node = todo.pop(), todo.pop()
        pos += 1
        right.append(None)
        if pos - up > 1:  # a right child, placed after its parent's left subtree
            right[up] = pos
        s, t = node.source, node.sink
        if s == t:
            raise PreconditionViolated("node %d: source equals sink" % pos)
        kind = node.kind
        if kind == EDGE:
            left.append(None)
            bag.append(edge := (s, t))
            edge = edge if s < t else (t, s)
            if edge in edges:
                raise PreconditionViolated("node %d: edge %r-%r is in two leaves" % (pos, s, t))
            edges.add(edge)
            continue
        a, b = node.left, node.right
        left.append(pos + 1)
        bag.append((s, a.sink, t) if kind == SERIES else (s, t))
        if kind == SERIES:
            if a.sink != b.source:
                raise PreconditionViolated("node %d: series children do not share a terminal" % pos)
            if s != a.source or t != b.sink:
                raise PreconditionViolated("node %d: series terminals mismatch" % pos)
            if a.sink in shared:
                raise PreconditionViolated("node %d: shared vertex %r is an outer terminal or shared twice"
                                           % (pos, a.sink))
            shared.add(a.sink)
        elif kind != PARALLEL:
            raise PreconditionViolated("node %d: unknown kind %r" % (pos, kind))
        elif not (s == a.source == b.source and t == a.sink == b.sink):
            raise PreconditionViolated("node %d: parallel children disagree on terminals" % pos)
        todo += b, pos, a, pos
    return columns


@dataclass(frozen=True)
class Embedding:
    """The graph ``graph`` embedded in a two-terminal series-parallel host, the leaves of ``sp``.

    The vertices of ``sp`` are ids: ``names[i]`` is the name of vertex i, the graph's own
    vertices first, in their order, then the fresh ones.  ``embed_into_sp`` makes the outer
    terminals last, so ``sp`` runs between the last two names.  The rest is read off these three:
    the fresh vertices off ``names``, the fill edges off the host.
    """

    graph: Graph
    sp: SPNode
    names: tuple

    @cached_property
    def host(self):
        "The graph of ``sp``'s leaf edges over ``names``, a supergraph of ``graph``; refuses a broken ``sp``."
        names = self.names
        left, _, bag = _checked_preorder(self.sp)
        return Graph(names, ((names[b[0]], names[b[1]]) for b, kid in zip(bag, left) if kid is None))

    @cached_property
    def added_edges(self):
        "The host's edges that ``graph`` lacks (canonical name pairs): fills, bridges, fresh-vertex edges."
        return self.host.edges - self.graph.edges

    @property
    def added_vertices(self):
        "The names of the fresh vertices, in the order they were made."
        return self.names[len(self.graph):]


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


def _normalized(root, names):
    """Orient the tree from its root and re-bracket each maximal series or parallel run;
    ``PreconditionViolated`` unless every vertex id, an index of ``names``, is in a leaf.

    The root keeps its terminals, and a flip parity is carried down: a left child whose source,
    or a right child whose sink, is not its parent's flips it, so a tree stored lower id first
    comes out oriented.  Under odd parity leaves are reversed and series operands are read right
    to left.  A run's operands are normalised first, then joined on the run's own internal nodes
    at the midpoints of their leaf counts.  Every node has one parent, so the pass rewires nodes
    in place and allocates no node.  ``todo`` is one flat stack of (node, parity) pairs, parity 2
    marking a run of two operands to join and 3 a longer run's internal nodes; ``trees`` and
    ``counts`` hold the operands done and their leaf counts.  A run of two operands, the most
    common, is joined here and not by ``_rebracket``, which made the SP path 8-21% slower.
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
            kind = node.kind
            left, right = node.left, node.right
            lp, rp = parity ^ (left.source != node.source), parity ^ (right.sink != node.sink)
            pair = (left, lp, right, rp) if parity and kind == SERIES else (right, rp, left, lp)
            if left.kind != kind and right.kind != kind:
                todo += node, 2, *pair
                continue
            inner, ops, stack = [node], [], list(pair)
            while stack:
                parity, run = stack.pop(), stack.pop()
                if run.kind != kind:
                    ops += parity, run
                    continue
                inner.append(run)
                left, right = run.left, run.right
                lp, rp = parity ^ (left.source != run.source), parity ^ (right.sink != run.sink)
                stack += (left, lp, right, rp) if parity and kind == SERIES else (right, rp, left, lp)
            todo += inner, 3, *reversed(ops)
    if 0 in seen:
        raise PreconditionViolated("host vertex %r is in no leaf" % (names[seen.index(0)],))
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


def _reduce_component(comp, adjacency, pinned):
    """Build the composition tree of one connected component, ascending ``comp``, whose
    neighbours ``adjacency[v]`` gives as ids; every vertex starts with one leaf per neighbour.

    The component is reduced by repeatedly suppressing a vertex of degree 2 outside
    ``pinned`` (a series composition of its two incident bundles, merged as a parallel
    composition with any bundle already joining its neighbours).  A vertex of degree 1
    first receives a fill edge to another neighbour of its only neighbour, which makes
    it suppressible.  Ties go to the least id.  The two vertices left are the terminals,
    lower id first: the ``pinned`` pair, or the last two of the reduction when ``pinned``
    is empty.  Each vertex maps every neighbour to the bundle joining them, one tree for
    both ends (``adj[u][v] is adj[v][u]``).

    Nothing is reversed: every bundle runs from its lower id to its higher id.  Suppressing
    ``pick`` between u < w makes the series node u -> w whose left child is the bundle at u;
    a parallel node keeps the bundle already there on the left.  ``_normalized`` orients.
    No step reads the order in which a vertex's neighbours are stored, so neither does the tree.

    Each step takes a minor (a contraction, or the deletion of a pendant after its fill),
    and a graph of minimum degree 3 has treewidth 3 or more: so an unpinned reduction
    stops with more than two vertices left, raising ``NotTreewidth2``, iff the
    component's treewidth is above 2, in whatever order it takes vertices.  A pinned
    pair always finishes on a component with no more edges than vertices: with the edge
    between the pair its cyclomatic number is at most 2, and a K4 minor needs 3.
    """
    adj = {v: {} for v in comp}
    for u in comp:
        for v in adjacency[u]:
            if u < v:
                adj[u][v] = adj[v][u] = SPNode(EDGE, None, None, u, v)
    # The least reducible vertex: a min-heap of unpinned ids (comp is sorted, so
    # the list starts as a heap), re-checked when popped and pushed again when
    # its degree drops to 2.
    ready = [v for v in comp if len(adj[v]) <= 2 and v not in pinned]
    # A pendant's fill partner is the least other neighbour of its neighbour u: read off a
    # min-heap of u's neighbour ids, made at u's first pendant fill, that drops removed ids
    # and the pendant when they reach the top and takes both ends of every new bundle.
    partners = {}
    while len(adj) > 2:
        while ready:
            pick = heappop(ready)
            if pick in adj and len(adj[pick]) <= 2:
                break
        else:
            raise NotTreewidth2("input graph has treewidth greater than 2")
        nb = adj.pop(pick)
        if len(nb) == 1:
            (u,) = nb
            near = partners.get(u)
            if near is None:
                near = partners[u] = sorted(adj[u])
            while near[0] == pick or near[0] not in adj[u]:
                heappop(near)
            w = near[0]
            nb[w] = adj[w][pick] = SPNode(EDGE, None, None, *((pick, w) if pick < w else (w, pick)))
        (u, left), (w, right) = nb.items()
        if u > w:
            u, w, left, right = w, u, right, left
        tree = SPNode(SERIES, left, right, u, w)
        at_u, at_w = adj[u], adj[w]
        del at_u[pick], at_w[pick]
        old = at_u.get(w)
        if old is None:  # u and w keep their degrees
            at_u[w] = at_w[u] = tree
            if u in partners:
                heappush(partners[u], w)
            if w in partners:
                heappush(partners[w], u)
            continue
        at_u[w] = at_w[u] = SPNode(PARALLEL, old, tree, u, w)
        for v in (u, w):  # one fewer neighbour: reducible now if down to 2
            if len(adj[v]) == 2 and v not in pinned:
                heappush(ready, v)

    s, t = sorted(adj)
    return adj[s][t]


def embed_into_sp(graph):
    """Embed a treewidth-<=2 graph into a two-terminal series-parallel host.

    Components are reduced independently with their own terminals, then
    chained with fresh bridge edges (component i's sink to component i+1's
    source).  Isolated vertices are first tied to a fresh connector vertex by
    one fill edge.  An edgeless input with no vertices becomes a single fresh
    edge so that the host is never empty.  Each component's tree is stored lower
    id to higher id, its root from its lower terminal; the tree is then
    normalised: oriented from the root's source, every series or parallel run balanced.
    Last come two fresh outer terminals, ``+s`` and ``+t`` (primed if taken), each joined
    by one edge: the tree returned is ``series(edge(+s, s), series(tree, edge(t, +t)))``.

    Each component is reduced once, by ``_reduce_component``, which also tests its
    treewidth; the graph is never tested as a whole.  A component with no more
    edges than vertices pins its two vertices of least degree as terminals, the
    lower id first among equals, so that a path keeps its ends; any other
    component is reduced unpinned and ends on its terminals.
    """
    names = _Names(graph.vertices)
    trees = []
    adjacency = graph.adjacency()
    degree = [len(nb) for nb in adjacency]
    for k, comp in enumerate(graph.components()):
        if len(comp) == 1:
            trees.append(edge_node(comp[0], names.make("+c%d" % k)))
            continue
        sparse = sum(degree[v] for v in comp) <= 2 * len(comp)  # no more edges than vertices
        pinned = sorted(nsmallest(2, comp, key=degree.__getitem__)) if sparse else ()
        trees.append(_reduce_component(comp, adjacency, pinned))
    if not trees:
        trees.append(edge_node(names.make("+c0"), names.make("+c1")))
    root = trees[0]
    for tree in trees[1:]:
        root = series(root, series(edge_node(root.sink, tree.source), tree))
    tree = _normalized(root, names.names)
    s, t = names.make("+s"), names.make("+t")
    return Embedding(graph, series(edge_node(s, tree.source), series(tree, edge_node(tree.sink, t))),
                     tuple(names.names))
