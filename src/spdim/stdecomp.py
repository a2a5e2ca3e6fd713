"""Binary tree-decompositions with per-bag source/sink terminals.

Every node carries a bag of 2 or 3 host vertices plus two distinguished bag
members, its source and sink.  Leaf bags have size 2; a size-2 internal node
passes its terminals to both children; a size-3 internal node splits at its
middle vertex (left child runs source -> middle, right child middle -> sink).

Vertices are the integer ids of the embedding; ``STDecomposition.names`` maps
them to names, which only the writers and error messages use.

A decomposition is stored as columns indexed by node id (``parent``, ``left``,
``right``, ``bag``, ``s``, ``t``), read off the walk that checks the
series-parallel tree; ``nodes``, the same nodes as ``DecompNode`` records, is
a view built only when read.  Node ids mirror the series-parallel tree
(pre-order), and are preserved by ``reverse`` and ``swap_size2_children`` so
that nodes can be compared across transformed decompositions.  The ids are a
parents-first order: one pass over them runs top-down, one in reverse bottom-up.
"""

from json.encoder import encode_basestring_ascii as _string
from functools import cached_property
from typing import NamedTuple

from .errors import InvalidSPTree, PreconditionViolated, VertexNotInDecomposition
from .spembed import _checked_preorder


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


class STDecomposition:
    """An s-t tree-decomposition of a two-terminal graph (immutable); ``names[v]``
    is the name of vertex id v.  Node k is stored across the columns
    ``parent[k]``, ``left[k]``, ``right[k]`` (None where absent), ``bag[k]``,
    ``s[k]`` and ``t[k]``; ``nodes[k]`` is the same node as a ``DecompNode``,
    a view built on first read.  Every parent's id is below its children's.

    ``STDecomposition(nodes, root, names)`` takes hand-made nodes and raises
    ``PreconditionViolated`` unless ``nodes[k]`` has id k and every parent id
    is below its child's.
    """

    def __init__(self, nodes, root, names):
        self.nodes = tuple(nodes)
        for k, (nid, parent, *_) in enumerate(self.nodes):
            if nid != k:
                raise PreconditionViolated("node %d is at position %d" % (nid, k))
            if parent is not None and parent >= nid:
                raise PreconditionViolated("node %d has parent %d, not a lower id" % (nid, parent))
        _, self.parent, self.left, self.right, self.bag, self.s, self.t = map(list, zip(*self.nodes))
        self.root, self.names = root, tuple(names)

    @cached_property
    def nodes(self):
        return tuple(map(DecompNode, range(len(self.bag)), self.parent, self.left, self.right,
                         self.bag, self.s, self.t))

    @cached_property
    def _depth(self):
        depth = [0] * len(self.parent)
        for nid, parent in enumerate(self.parent):
            if parent is not None:
                depth[nid] = depth[parent] + 1
        return depth

    @cached_property
    def _least(self):
        # The lowest id whose bag holds v: bags holding v form a subtree, whose
        # root has both the least depth and, ids being parents-first, the lowest id.
        least = [None] * len(self.names)
        for nid in range(len(self.bag) - 1, -1, -1):
            for v in self.bag[nid]:
                least[v] = nid
        return least

    @property
    def source(self):
        return self.s[self.root]

    @property
    def sink(self):
        return self.t[self.root]

    def __len__(self):
        return len(self.bag)

    def depth(self, u):
        return self._depth[u]

    def lca(self, u, v):
        depth, parent = self._depth, self.parent
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u = parent[u]
            v = parent[v]
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
        return _from_columns(self.parent, self.right, self.left, [bag[::-1] for bag in self.bag],
                             self.t, self.s, self.root, self.names)

    def swap_size2_children(self):
        "Swap the children of every size-2 internal node; bags and terminals stay."
        swap = [left is not None and len(bag) == 2 for left, bag in zip(self.left, self.bag)]
        return _from_columns(
            self.parent, [r if sw else l for sw, l, r in zip(swap, self.left, self.right)],
            [l if sw else r for sw, l, r in zip(swap, self.left, self.right)],
            self.bag, self.s, self.t, self.root, self.names)


def _from_columns(parent, left, right, bag, s, t, root, names):
    "A decomposition over columns whose parents-first order the caller guarantees."
    d = STDecomposition.__new__(STDecomposition)
    d.parent, d.left, d.right, d.bag, d.s, d.t = parent, left, right, bag, s, t
    d.root, d.names = root, tuple(names)
    return d


def build_st_decomposition(sp_root, names):
    """Decomposition mirroring a series-parallel tree node for node.

    Leaf -> bag {source, sink}; parallel -> bag {source, sink}; series ->
    the size-3 bag {source, shared vertex, sink}.  Node ids are assigned in
    pre-order by the walk that checks the tree, and the columns are read off
    that walk; its vertices index ``names``.
    """
    columns, problems = _checked_preorder(sp_root)
    if problems:
        raise InvalidSPTree("refusing to decompose an invalid composition tree")
    return _from_columns(*columns, 0, names)


# -- JSON export -------------------------------------------------------------

def dumps_decomposition(decomp):
    "The node records ``{id, parent, side, bag, s, t}`` as ``json.dumps(records, indent=2)`` writes them."
    quoted = [_string(name) for name in decomp.names]
    left = decomp.left
    out = []
    for nid, (parent, bag, s, t) in enumerate(zip(decomp.parent, decomp.bag, decomp.s, decomp.t)):
        if parent is None:
            parent = side = "null"
        else:
            side = '"left"' if left[parent] == nid else '"right"'
        if len(bag) == 3:
            out.append(f'  {{\n    "id": {nid},\n    "parent": {parent},\n    "side": {side},\n    "bag": [\n'
                       f'      {quoted[bag[0]]},\n      {quoted[bag[1]]},\n      {quoted[bag[2]]}\n'
                       f'    ],\n    "s": {quoted[s]},\n    "t": {quoted[t]}\n  }}')
        else:
            out.append(f'  {{\n    "id": {nid},\n    "parent": {parent},\n    "side": {side},\n    "bag": [\n'
                       f'      {quoted[bag[0]]},\n      {quoted[bag[1]]}\n'
                       f'    ],\n    "s": {quoted[s]},\n    "t": {quoted[t]}\n  }}')
    return "[\n%s\n]\n" % ",\n".join(out)
