"""Binary tree-decompositions with per-bag source/sink terminals.

Every node carries a bag of 2 or 3 host vertices plus two distinguished bag
members, its source and sink.  Leaf bags have size 2; a size-2 internal node
passes its terminals to both children; a size-3 internal node splits at its
middle vertex (left child runs source -> middle, right child middle -> sink).

Vertices are the integer ids of the embedding; ``STDecomposition.names`` maps
them to names, which only the writers and error messages use.

A decomposition is its columns indexed by node id (``parent``, ``left``,
``right``, ``bag``, ``s``, ``t``) and its names, and ``STDecomposition(parent,
left, right, bag, s, t, names)`` is the one way to make one; ``nodes``, the same
nodes as ``DecompNode`` records, is a view built only when read.  Node ids mirror
the series-parallel tree (pre-order), and are preserved by ``reverse`` and
``swap_size2_children`` so that nodes can be compared across transformed
decompositions.  The ids are a parents-first order, so node 0 is the root: one
pass over them runs top-down, one in reverse bottom-up.
"""

from json.encoder import encode_basestring_ascii as _string
from functools import cached_property
from itertools import compress, islice, repeat
from operator import eq, is_not, lt
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
    a view built on first read.  Node 0 is the root, and every other node's
    parent id is below its own.

    ``STDecomposition(parent, left, right, bag, s, t, names)`` raises
    ``PreconditionViolated`` unless the columns are non-empty and of one
    length, node 0 has no parent, every other node's parent is an int id below
    its own, and ``left`` and ``right`` agree with ``parent``: each node has no
    children or two distinct ones whose parent it is, and every other node is
    a child of its parent.
    """

    root = 0

    def __init__(self, parent, left, right, bag, s, t, names):
        count = len(bag)
        if not count or not len(parent) == len(left) == len(right) == len(s) == len(t) == count:
            raise PreconditionViolated("columns of lengths %s, not one length above 0"
                                       % [len(column) for column in (parent, left, right, bag, s, t)])
        # One C-level pass per test on the good path; the loop only names the offender.
        if not (parent[0] is None and set(map(type, islice(parent, 1, None))) <= {int}
                and min(islice(parent, 1, None), default=0) >= 0
                and all(map(lt, islice(parent, 1, None), range(1, count)))):
            for nid, up in enumerate(parent):
                if up is None and nid:
                    raise PreconditionViolated("node %d has no parent: only node 0 is a root" % nid)
                if up is not None and not (nid and type(up) is int and 0 <= up < nid):
                    raise PreconditionViolated("node %d has parent %r, not a lower id" % (nid, up))
        # Children: ``right`` is set wherever ``left`` is and nowhere else (equal None counts,
        # int ids only).  Ids in 1..count-1 whose parent is the node listing them, unequal at
        # each node, are unequal everywhere, so count - 1 of them are every node but the root.
        inner = list(map(is_not, left, repeat(None)))
        lk, rk = list(compress(left, inner)), list(compress(right, inner))
        kids = lk + rk
        if not (left.count(None) == right.count(None) and len(kids) == count - 1
                and set(map(type, kids)) <= {int} and 0 < min(kids, default=1) and max(kids, default=0) < count
                and list(map(parent.__getitem__, lk)) == list(compress(range(count), inner))
                == list(map(parent.__getitem__, rk)) and not any(map(eq, lk, rk))):
            for nid, pair in enumerate(zip(left, right)):
                if pair != (None, None) and not (pair[0] != pair[1] and all(
                        type(c) is int and 0 < c < count and parent[c] == nid for c in pair)):
                    raise PreconditionViolated("node %d has children %r, not none or two distinct"
                                               " nodes whose parent it is" % (nid, pair))
            for nid in range(1, count):
                if nid not in (left[parent[nid]], right[parent[nid]]):
                    raise PreconditionViolated("node %d is no child of its parent %d" % (nid, parent[nid]))
        self.parent, self.left, self.right, self.bag, self.s, self.t = parent, left, right, bag, s, t
        self.names = tuple(names)

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
        return self.s[0]

    @property
    def sink(self):
        return self.t[0]

    def __len__(self):
        return len(self.bag)

    def depth(self, u):
        return self._depth[u]

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
        return STDecomposition(self.parent, self.right, self.left, [bag[::-1] for bag in self.bag],
                               self.t, self.s, self.names)

    def swap_size2_children(self):
        "Swap the children of every size-2 internal node; bags and terminals stay."
        swap = [left is not None and len(bag) == 2 for left, bag in zip(self.left, self.bag)]
        return STDecomposition(
            self.parent, [r if sw else l for sw, l, r in zip(swap, self.left, self.right)],
            [l if sw else r for sw, l, r in zip(swap, self.left, self.right)],
            self.bag, self.s, self.t, self.names)


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
    return STDecomposition(*columns, names)


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
