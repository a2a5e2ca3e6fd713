"""Immutable simple graphs over named vertices.

Vertex order is the declaration order and doubles as the canonical order for
all deterministic tie-breaking; a vertex's position is its id, which
``adjacency``, ``index_edges`` and ``components`` use.  Edges are stored as
tuples (u, v) with u before v canonically.
"""

from .errors import UnknownElement


class Graph:
    __slots__ = ("vertices", "_index", "_edges", "_adj")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        index = {}
        for v in vertices:
            if v in index:
                raise UnknownElement("duplicate vertex %r" % (v,))
            index[v] = len(index)
        adj = [set() for _ in vertices]
        normalized = set()
        for u, v in edges:
            if u not in index:
                raise UnknownElement("unknown vertex %r" % (u,))
            if v not in index:
                raise UnknownElement("unknown vertex %r" % (v,))
            if u == v:
                raise UnknownElement("loop edge at %r" % (u,))
            i, j = index[u], index[v]
            if i > j:
                u, v = v, u
            normalized.add((u, v))
            adj[i].add(j)
            adj[j].add(i)
        self.vertices = vertices
        self._index = index
        self._edges = frozenset(normalized)
        self._adj = adj

    @classmethod
    def from_adjacency(cls, vertices, index, adj):
        "The graph of vertices[i] with neighbour ids adj[i], index its id map; none is copied."
        g = cls.__new__(cls)
        g.vertices, g._index, g._adj, g._edges = vertices, index, adj, None
        return g

    @property
    def edges(self):
        "The edges as a frozenset of canonical name pairs, built on first read."
        if self._edges is None:
            names = self.vertices
            self._edges = frozenset([(names[i], names[j]) for i, nb in enumerate(self._adj) for j in nb if i < j])
        return self._edges

    def __contains__(self, v):
        return v in self._index

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise UnknownElement("unknown vertex %r" % (v,)) from None

    def edge(self, u, v):
        "Canonical form of the edge between u and v."
        if self.index(u) > self.index(v):
            u, v = v, u
        return (u, v)

    def adjacency(self):
        "Per vertex id, the set of its neighbours' ids (read only)."
        return self._adj

    def index_edges(self):
        "The edges as id pairs (i, j) with i < j, ascending."
        return [(i, j) for i, nb in enumerate(self._adj) for j in sorted(nb) if i < j]

    def sorted_edges(self):
        names = self.vertices
        return [(names[i], names[j]) for i, j in self.index_edges()]

    def components(self):
        "Id lists of the connected components, each ascending, by least id."
        comp_of = [None] * len(self._adj)
        comps = []
        for v in range(len(comp_of)):
            if comp_of[v] is not None:
                continue
            comp = [v]
            comp_of[v] = len(comps)
            for u in comp:
                for w in self._adj[u]:
                    if comp_of[w] is None:
                        comp_of[w] = len(comps)
                        comp.append(w)
            comp.sort()
            comps.append(comp)
        return comps


def dumps_dot(graph, dashed_edges=(), name="G"):
    "DOT text for the graph; edges in ``dashed_edges`` are styled dashed."
    dashed = {graph.edge(u, v) for u, v in dashed_edges}
    lines = ["graph %s {" % name]
    for v in graph.vertices:
        lines.append('  "%s";' % v)
    for u, v in graph.sorted_edges():
        style = " [style=dashed]" if (u, v) in dashed else ""
        lines.append('  "%s" -- "%s"%s;' % (u, v, style))
    lines.append("}")
    return "\n".join(lines) + "\n"
