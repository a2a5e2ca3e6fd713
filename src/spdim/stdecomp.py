"""Binary tree-decompositions with per-bag source/sink terminals.

Every node carries a bag of 2 or 3 host vertices plus two distinguished bag
members, its source and sink.  Leaf bags have size 2; a size-2 internal node
passes its terminals to both children; a size-3 internal node splits at its
middle vertex (left child runs source -> middle, right child middle -> sink).

Vertices are the integer ids of the embedding; ``STDecomposition.names`` maps
them to names, which only the writers and error messages use.

Decomposition node ids mirror the series-parallel tree they were built from
(pre-order), and are preserved by ``reverse`` and ``swap_size2_children`` so
that nodes can be compared across transformed decompositions.
"""

from json.encoder import encode_basestring_ascii as _string
from typing import NamedTuple

from .errors import InvalidSPTree, PreconditionViolated, VertexNotInDecomposition
from .spembed import EDGE, SERIES, validate_sp_tree


class DecompNode(NamedTuple):
    "One node: its id, its tree links, its bag of vertex ids, and its source and sink ids."

    id: int
    parent: int | None
    left: int | None
    right: int | None
    bag: tuple
    s: int
    t: int

    @property
    def middle(self):
        "The bag member that is neither source nor sink (size-3 bags only)."
        rest = [v for v in self.bag if v != self.s and v != self.t]
        if len(self.bag) != 3 or len(rest) != 1:
            raise PreconditionViolated("node %d has no middle vertex: bag %r, terminals (%r, %r)"
                                       % (self.id, self.bag, self.s, self.t))
        return rest[0]

    @property
    def is_leaf(self):
        return self.left is None


class STDecomposition:
    """An s-t tree-decomposition of a two-terminal graph (immutable); ``names[v]``
    is the name of vertex id v."""

    def __init__(self, nodes, root, names):
        self.nodes = tuple(nodes)
        self.root = root
        self.names = tuple(names)
        depth = self._depth = [0] * len(self.nodes)
        for node in self.preorder():
            if node.parent is not None:
                depth[node.id] = depth[node.parent] + 1
        least = self._least = [None] * len(self.names)
        for node in self.nodes:
            for v in node.bag:
                best = least[v]
                if best is None or depth[node.id] < depth[best]:
                    least[v] = node.id

    @property
    def source(self):
        return self.nodes[self.root].s

    @property
    def sink(self):
        return self.nodes[self.root].t

    def __len__(self):
        return len(self.nodes)

    def preorder(self):
        "Nodes in pre-order (node, left subtree, right subtree)."
        stack = [self.root]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def in_order(self):
        "Node ids in in-order traversal (left subtree, node, right subtree)."
        out = []
        stack = []
        cur = self.root
        while stack or cur is not None:
            while cur is not None:
                stack.append(cur)
                cur = self.nodes[cur].left
            cur = stack.pop()
            out.append(cur)
            cur = self.nodes[cur].right
        return out

    def depth(self, u):
        return self._depth[u]

    def parent(self, u):
        return self.nodes[u].parent

    def lca(self, u, v):
        while self._depth[u] > self._depth[v]:
            u = self.nodes[u].parent
        while self._depth[v] > self._depth[u]:
            v = self.nodes[v].parent
        while u != v:
            u = self.nodes[u].parent
            v = self.nodes[v].parent
        return u

    def least_node(self, vertex):
        "The node closest to the root whose bag contains the vertex id."
        if 0 <= vertex < len(self._least) and self._least[vertex] is not None:
            return self._least[vertex]
        name = self.names[vertex] if 0 <= vertex < len(self.names) else vertex
        raise VertexNotInDecomposition("vertex %r is in no bag" % (name,))

    # -- transforms ---------------------------------------------------------

    def reverse(self):
        """Swap children everywhere and exchange every (source, sink); the
        result decomposes the same host with the outer terminals exchanged,
        and its in-order is the exact reverse."""
        nodes = [DecompNode(n.id, n.parent, n.right, n.left,
                            tuple(reversed(n.bag)), n.t, n.s)
                 for n in self.nodes]
        return STDecomposition(nodes, self.root, self.names)

    def swap_size2_children(self):
        "Swap the children of every size-2 internal node; bags and terminals stay."
        nodes = [DecompNode(n.id, n.parent, n.right, n.left, n.bag, n.s, n.t)
                 if (not n.is_leaf and len(n.bag) == 2) else n
                 for n in self.nodes]
        return STDecomposition(nodes, self.root, self.names)


def build_st_decomposition(sp_root, names):
    """Decomposition mirroring a series-parallel tree node for node.

    Leaf -> bag {source, sink}; parallel -> bag {source, sink}; series ->
    the size-3 bag {source, shared vertex, sink}.  Node ids are assigned in
    pre-order of the composition tree; its vertices are ids into ``names``.
    """
    if not validate_sp_tree(sp_root):
        raise InvalidSPTree("refusing to decompose an invalid composition tree")
    nodes = []
    stack = [(sp_root, None, None)]
    while stack:
        sp, parent, side = stack.pop()
        nid = len(nodes)
        if sp.kind == SERIES:
            bag = (sp.source, sp.left.sink, sp.sink)
        else:
            bag = (sp.source, sp.sink)
        nodes.append([nid, parent, None, None, bag, sp.source, sp.sink])
        if parent is not None:
            nodes[parent][2 if side == "left" else 3] = nid
        if sp.kind != EDGE:
            stack.append((sp.right, nid, "right"))
            stack.append((sp.left, nid, "left"))
    return STDecomposition(map(DecompNode._make, nodes), 0, names)


# -- JSON export -------------------------------------------------------------

def decomposition_to_json(decomp):
    names = decomp.names
    out = []
    for node in decomp.nodes:
        parent = node.parent
        side = None
        if parent is not None:
            side = "left" if decomp.nodes[parent].left == node.id else "right"
        out.append({"id": node.id, "parent": parent, "side": side,
                    "bag": [names[v] for v in node.bag], "s": names[node.s], "t": names[node.t]})
    return out


def dumps_decomposition(decomp):
    "``json.dumps(decomposition_to_json(decomp), indent=2)``, written from a fixed template."
    quoted = [_string(name) for name in decomp.names]
    out = []
    for node in decomp.nodes:
        parent = side = "null"
        if node.parent is not None:
            parent = node.parent
            side = '"left"' if decomp.nodes[parent].left == node.id else '"right"'
        out.append('  {\n    "id": %d,\n    "parent": %s,\n    "side": %s,\n    "bag": [\n      %s\n'
                   '    ],\n    "s": %s,\n    "t": %s\n  }'
                   % (node.id, parent, side, ",\n      ".join([quoted[v] for v in node.bag]),
                      quoted[node.s], quoted[node.t]))
    return "[\n%s\n]\n" % ",\n".join(out)
