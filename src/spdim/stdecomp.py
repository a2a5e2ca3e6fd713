"""Binary tree-decompositions with per-bag source/sink terminals.

Every node carries a bag of 2 or 3 host vertices plus two distinguished bag
members, its source and sink.  Leaf bags have size 2; a size-2 internal node
passes its terminals to both children; a size-3 internal node splits at its
middle vertex (left child runs source -> middle, right child middle -> sink).

Decomposition node ids mirror the series-parallel tree they were built from
(pre-order), and are preserved by ``reverse`` and ``swap_size2_children`` so
that nodes can be compared across transformed decompositions.
"""

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

from .errors import InvalidSPTree, PreconditionViolated, VertexNotInDecomposition
from .spembed import EDGE, SERIES, validate_sp_tree


@dataclass(frozen=True)
class DecompNode:
    id: int
    parent: int | None
    left: int | None
    right: int | None
    bag: tuple
    s: str
    t: str

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
    """An s-t tree-decomposition of a two-terminal graph (immutable)."""

    def __init__(self, nodes, root, graph):
        self.nodes = tuple(nodes)
        self.root = root
        self.graph = graph
        self._depth = [0] * len(self.nodes)
        for node in self.preorder():
            if node.parent is not None:
                self._depth[node.id] = self._depth[node.parent] + 1
        self._least = {}
        for node in self.nodes:
            for v in node.bag:
                best = self._least.get(v)
                if best is None or self._depth[node.id] < self._depth[best]:
                    self._least[v] = node.id

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

    def is_ancestor(self, u, v):
        "True iff u lies on the root path of v (u <= v in the tree order)."
        while v is not None and self._depth[v] > self._depth[u]:
            v = self.nodes[v].parent
        return v == u

    def lca(self, u, v):
        while self._depth[u] > self._depth[v]:
            u = self.nodes[u].parent
        while self._depth[v] > self._depth[u]:
            v = self.nodes[v].parent
        while u != v:
            u = self.nodes[u].parent
            v = self.nodes[v].parent
        return u

    def tree_path(self, u, v):
        "Node ids along the unique tree path from u to v, inclusive."
        w = self.lca(u, v)
        up = []
        x = u
        while x != w:
            up.append(x)
            x = self.nodes[x].parent
        down = []
        x = v
        while x != w:
            down.append(x)
            x = self.nodes[x].parent
        return up + [w] + list(reversed(down))

    def least_node(self, vertex):
        "The node closest to the root whose bag contains the vertex."
        try:
            return self._least[vertex]
        except KeyError:
            raise VertexNotInDecomposition("vertex %r is in no bag" % (vertex,)) from None

    # -- transforms ---------------------------------------------------------

    def reverse(self):
        """Swap children everywhere and exchange every (source, sink); the
        result decomposes the same host with the outer terminals exchanged,
        and its in-order is the exact reverse."""
        nodes = [DecompNode(n.id, n.parent, n.right, n.left,
                            tuple(reversed(n.bag)), n.t, n.s)
                 for n in self.nodes]
        return STDecomposition(nodes, self.root, self.graph)

    def swap_size2_children(self):
        "Swap the children of every size-2 internal node; bags and terminals stay."
        nodes = [DecompNode(n.id, n.parent, n.right, n.left, n.bag, n.s, n.t)
                 if (not n.is_leaf and len(n.bag) == 2) else n
                 for n in self.nodes]
        return STDecomposition(nodes, self.root, self.graph)


def build_st_decomposition(sp_root, graph):
    """Decomposition mirroring a series-parallel tree node for node.

    Leaf -> bag {source, sink}; parallel -> bag {source, sink}; series ->
    the size-3 bag {source, shared vertex, sink}.  Node ids are assigned in
    pre-order of the composition tree; ``graph`` is the host it decomposes.
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
    decomp_nodes = [DecompNode(nid, parent, left, right, bag, s, t)
                    for nid, parent, left, right, bag, s, t in nodes]
    return STDecomposition(decomp_nodes, 0, graph)


# -- JSON export -------------------------------------------------------------

def decomposition_to_json(decomp):
    out = []
    for node in decomp.nodes:
        parent = node.parent
        side = None
        if parent is not None:
            side = "left" if decomp.nodes[parent].left == node.id else "right"
        out.append({"id": node.id, "parent": parent, "side": side,
                    "bag": list(node.bag), "s": node.s, "t": node.t})
    return out


def dumps_decomposition(decomp):
    "``json.dumps(decomposition_to_json(decomp), indent=2)``, written from a fixed template."
    out = []
    for node in decomp.nodes:
        parent = side = "null"
        if node.parent is not None:
            parent = node.parent
            side = '"left"' if decomp.nodes[parent].left == node.id else '"right"'
        out.append('  {\n    "id": %d,\n    "parent": %s,\n    "side": %s,\n    "bag": [\n      %s\n'
                   '    ],\n    "s": %s,\n    "t": %s\n  }'
                   % (node.id, parent, side, ",\n      ".join(map(_string, node.bag)),
                      _string(node.s), _string(node.t)))
    return "[\n%s\n]\n" % ",\n".join(out)
