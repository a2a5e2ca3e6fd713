"""Binary tree-decompositions with per-bag source/sink terminals.

Every node carries a bag of 2 or 3 host vertices plus two distinguished bag
members, its source and sink.  Leaf bags have size 2; a size-2 internal node
passes its terminals to both children; a size-3 internal node splits at its
middle vertex (left child runs source -> middle, right child middle -> sink).

Vertices are the integer ids of the embedding; ``STDecomposition.names`` maps
them to names, which only the writers and error messages use.

Decomposition node ids mirror the series-parallel tree they were built from
(pre-order), and are preserved by ``reverse`` and ``swap_size2_children`` so
that nodes can be compared across transformed decompositions.  The ids are a
parents-first order: one pass over them runs top-down, one in reverse bottom-up.
"""

from json.encoder import encode_basestring_ascii as _string
from typing import NamedTuple

from .errors import InvalidSPTree, PreconditionViolated, VertexNotInDecomposition
from .spembed import EDGE, SERIES, _checked_preorder


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
    is the name of vertex id v.  ``nodes[k]`` is the node with id k, and every
    parent's id is below its children's (``PreconditionViolated`` otherwise)."""

    def __init__(self, nodes, root, names):
        self.nodes = tuple(nodes)
        self.root = root
        self.names = tuple(names)
        depth = self._depth = [0] * len(self.nodes)
        least = self._least = [None] * len(self.names)
        for nid, parent, _, _, bag, _, _ in self.nodes:
            if parent is not None and parent >= nid:
                raise PreconditionViolated("node %d has parent %d, not a lower id" % (nid, parent))
            d = depth[nid] = 0 if parent is None else depth[parent] + 1
            for v in bag:
                best = least[v]
                if best is None or d < depth[best]:
                    least[v] = nid

    @property
    def source(self):
        return self.nodes[self.root].s

    @property
    def sink(self):
        return self.nodes[self.root].t

    def __len__(self):
        return len(self.nodes)

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
    pre-order by the walk that checks the tree; its vertices index ``names``.
    """
    order, parents, problems = _checked_preorder(sp_root)
    if problems:
        raise InvalidSPTree("refusing to decompose an invalid composition tree")
    right = [None] * len(order)
    for nid, parent in enumerate(parents):
        if parent is not None and parent != nid - 1:
            right[parent] = nid
    nodes = [DecompNode(nid, parents[nid], None if sp.kind == EDGE else nid + 1, right[nid],
                        (sp.source, sp.left.sink, sp.sink) if sp.kind == SERIES
                        else (sp.source, sp.sink), sp.source, sp.sink)
             for nid, sp in enumerate(order)]
    return STDecomposition(nodes, 0, names)


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


_NODE = ('  {\n    "id": %%d,\n    "parent": %%s,\n    "side": %%s,\n    "bag": [\n      %s\n'
         '    ],\n    "s": %%s,\n    "t": %%s\n  }')
_NODE2 = _NODE % ",\n      ".join(["%s"] * 2)
_NODE3 = _NODE % ",\n      ".join(["%s"] * 3)


def dumps_decomposition(decomp):
    "``json.dumps(decomposition_to_json(decomp), indent=2)``, from one template per bag size."
    quoted = [_string(name) for name in decomp.names]
    nodes = decomp.nodes
    out = []
    for nid, parent, _, _, bag, s, t in nodes:
        if parent is None:
            parent = side = "null"
        else:
            side = '"left"' if nodes[parent].left == nid else '"right"'
        if len(bag) == 3:
            a, b, c = bag
            out.append(_NODE3 % (nid, parent, side, quoted[a], quoted[b], quoted[c], quoted[s], quoted[t]))
        else:
            a, b = bag
            out.append(_NODE2 % (nid, parent, side, quoted[a], quoted[b], quoted[s], quoted[t]))
    return "[\n%s\n]\n" % ",\n".join(out)
