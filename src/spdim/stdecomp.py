"""Binary tree-decompositions with per-bag source/sink terminals.

Every node carries a bag ``(source, sink)`` or ``(source, middle, sink)`` of host
vertices.  Leaf bags have size 2; a size-2 internal node passes its terminals to
both children; a size-3 internal node splits at its middle vertex (left child
runs source -> middle, right child middle -> sink).

Vertices are the integer ids of the embedding; ``STDecomposition.names`` maps
them to names, which only the writers and error messages use.

A decomposition is its columns ``left``, ``right`` and ``bag``, indexed by node
id, and its names, and ``STDecomposition(left, right, bag, names)`` is the one
way to make one.  The constructor reads ``parent`` off the child columns in the
same pass that checks they are a tree; ``nodes``, the same nodes as
``DecompNode`` records, is a view built only when read.  Node ids mirror the
series-parallel tree (pre-order), and are preserved by ``reverse`` and
``swap_size2_children`` so that nodes can be compared across transformed
decompositions.  Every child id is above its parent's, so node 0 is the root:
one pass over the ids runs top-down, one in reverse bottom-up.
"""

from json.encoder import encode_basestring_ascii as _string
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple

from .errors import PreconditionViolated
from .spembed import _checked_preorder


class DecompNode(NamedTuple):
    "One node: its id, its tree links, and its bag of vertex ids, which runs from its source to its sink."

    id: int
    parent: int | None
    left: int | None
    right: int | None
    bag: tuple


class STDecomposition:
    """An s-t tree-decomposition of a two-terminal graph (immutable); ``names[v]``
    is the name of vertex id v.  Node k is stored across the columns ``left[k]``
    and ``right[k]`` (None where absent) and ``bag[k]``, whose ends are its source
    and sink; ``parent[k]`` (None at the root) is read off the child columns, and
    ``nodes[k]`` is the same node as a ``DecompNode``, a view built on first read.
    Node 0 is the root, and every other node's parent id is below its own.

    ``STDecomposition(left, right, bag, names)`` raises ``PreconditionViolated``
    unless the columns are non-empty and of one length, the child columns are a
    full binary tree rooted at node 0 with every child id above its parent's
    (each node has children ``(None, None)`` or two int ids above its own that
    no other node lists, and every node but 0 is some node's child), and every
    bag has 2 or 3 members, each an int from 0 to ``len(names) - 1``.
    """

    root = 0

    def __init__(self, left, right, bag, names):
        count = len(bag)
        if not count or not len(left) == len(right) == count:
            raise PreconditionViolated("columns of lengths %s, not one length above 0"
                                       % [len(column) for column in (left, right, bag)])
        # One loop reads the parents off the children and is the whole tree check:
        # a child id above its parent's that no node listed before is a tree edge.
        parent = [None] * count
        for nid, a, b in zip(range(count), left, right):
            if a is None is b:
                continue
            if not (type(a) is int is type(b) and nid < a < count and nid < b < count and a != b
                    and parent[a] is None is parent[b]):
                raise PreconditionViolated("node %d has children %r, not none or two ids above"
                                           " its own that no other node lists" % (nid, (a, b)))
            parent[a] = parent[b] = nid
        if None in islice(parent, 1, None):
            raise PreconditionViolated("node %d is no node's child" % parent.index(None, 1))
        # Bags of 2 or 3 ids that index ``names``: C-level passes on the good path; the loop names the offender.
        names = tuple(names)
        ids = [*chain.from_iterable(bag)]
        if not (set(map(len, bag)) <= {2, 3} and set(map(type, ids)) <= {int}
                and 0 <= min(distinct := set(ids)) and max(distinct) < len(names)):
            for nid, members in enumerate(bag):
                if len(members) not in (2, 3):
                    raise PreconditionViolated("node %d has a bag of size %d, not 2 or 3" % (nid, len(members)))
                for v in members:
                    if not (type(v) is int and 0 <= v < len(names)):
                        raise PreconditionViolated("node %d has vertex id %r, not an int from 0 to %d"
                                                   % (nid, v, len(names) - 1))
        self.parent, self.left, self.right, self.bag, self.names = parent, left, right, bag, names

    @cached_property
    def nodes(self):
        return tuple(map(DecompNode, range(len(self.bag)), self.parent, self.left, self.right, self.bag))

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

    def __len__(self):
        return len(self.bag)

    def depth(self, u):
        return self._depth[u]

    def least_node(self, vertex):
        "The node closest to the root whose bag contains the vertex id; ``PreconditionViolated`` if none does."
        if 0 <= vertex < len(self._least) and self._least[vertex] is not None:
            return self._least[vertex]
        name = self.names[vertex] if 0 <= vertex < len(self.names) else vertex
        raise PreconditionViolated("vertex %r is in no bag" % (name,))

    # -- transforms ---------------------------------------------------------

    def reverse(self):
        """Swap children everywhere and reverse every bag, which exchanges every
        (source, sink); the result decomposes the same host with the outer
        terminals exchanged, and its in-order is the exact reverse."""
        return STDecomposition(self.right, self.left, [bag[::-1] for bag in self.bag], self.names)

    def swap_size2_children(self):
        "Swap the children of every size-2 internal node; bags and terminals stay."
        swap = [left is not None and len(bag) == 2 for left, bag in zip(self.left, self.bag)]
        return STDecomposition(
            [r if sw else l for sw, l, r in zip(swap, self.left, self.right)],
            [l if sw else r for sw, l, r in zip(swap, self.left, self.right)],
            self.bag, self.names)


def build_st_decomposition(sp_root, names):
    """Decomposition mirroring a series-parallel tree node for node.

    Leaf -> bag {source, sink}; parallel -> bag {source, sink}; series ->
    the size-3 bag (source, shared vertex, sink).  Node ids are assigned in
    pre-order by the walk that checks the tree, and the child and bag columns
    are read off that walk; the constructor reads the parents off the child
    columns.  Its vertices index ``names``.  A tree that breaks a composition
    rule raises ``PreconditionViolated`` at the walk's first broken rule.
    """
    return STDecomposition(*_checked_preorder(sp_root), names)


# -- JSON export -------------------------------------------------------------

def dumps_decomposition(decomp):
    "``json.dumps(records, indent=2)`` of the records ``{id, parent, side, bag, s, t}``, s and t the bag's ends."
    quoted = [_string(name) for name in decomp.names]
    left = decomp.left
    out = []
    for nid, (parent, bag) in enumerate(zip(decomp.parent, decomp.bag)):
        if parent is None:
            parent = side = "null"
        else:
            side = '"left"' if left[parent] == nid else '"right"'
        s, t = quoted[bag[0]], quoted[bag[-1]]
        if len(bag) == 3:
            members = f'{s},\n      {quoted[bag[1]]},\n      {t}'
        else:
            members = f'{s},\n      {t}'
        out.append(f'  {{\n    "id": {nid},\n    "parent": {parent},\n    "side": {side},\n    "bag": [\n'
                   f'      {members}\n    ],\n    "s": {s},\n    "t": {t}\n  }}')
    return "[\n%s\n]\n" % ",\n".join(out)
