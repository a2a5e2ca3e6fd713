"""Immutable simple graphs over named vertices.

Vertex order is the declaration order and doubles as the canonical order for
all deterministic tie-breaking.  Edges are stored as tuples (u, v) with u
before v canonically.

Text format::

    # comment
    vertices: a b c
    a -- b
    b -- c
"""

from collections import deque

from .errors import ParseError, UnknownElement


class Graph:
    __slots__ = ("vertices", "_index", "edges", "_adj")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        index = {}
        for v in vertices:
            if v in index:
                raise UnknownElement("duplicate vertex %r" % (v,))
            index[v] = len(index)
        adj = {v: set() for v in vertices}
        normalized = set()
        for u, v in edges:
            if u not in index:
                raise UnknownElement("unknown vertex %r" % (u,))
            if v not in index:
                raise UnknownElement("unknown vertex %r" % (v,))
            if u == v:
                raise UnknownElement("loop edge at %r" % (u,))
            if index[u] > index[v]:
                u, v = v, u
            normalized.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = vertices
        self._index = index
        self.edges = frozenset(normalized)
        self._adj = adj

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

    def has_edge(self, u, v):
        return self.edge(u, v) in self.edges

    def neighbors(self, v):
        return sorted(self._adj[v], key=self._index.__getitem__)

    def degree(self, v):
        return len(self._adj[v])

    def sorted_edges(self):
        return sorted(self.edges, key=lambda e: (self._index[e[0]], self._index[e[1]]))

    def connected_components(self):
        "Vertex lists of the connected components, canonical order throughout."
        seen = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = []
            queue = deque([v])
            seen.add(v)
            while queue:
                u = queue.popleft()
                comp.append(u)
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            comp.sort(key=self._index.__getitem__)
            comps.append(comp)
        return comps

    def is_connected_set(self, subset):
        "True iff the induced subgraph on ``subset`` is connected (and nonempty)."
        subset = set(subset)
        if not subset:
            return False
        for v in subset:
            if v not in self._index:
                raise UnknownElement("unknown vertex %r" % (v,))
        start = next(iter(subset))
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w in subset and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen == subset


def dumps(graph):
    lines = ["vertices: %s" % " ".join(graph.vertices)]
    for u, v in graph.sorted_edges():
        lines.append("%s -- %s" % (u, v))
    return "\n".join(lines) + "\n"


def loads(text):
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            vertices = line[len("vertices:"):].split()
            known = set(vertices)
            continue
        if vertices is None:
            raise ParseError("expected a 'vertices:' line first", lineno)
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "--":
            raise ParseError("expected an edge 'u -- v'", lineno)
        u, _, v = tokens
        if u not in known:
            raise ParseError("unknown vertex %r" % (u,), lineno)
        if v not in known:
            raise ParseError("unknown vertex %r" % (v,), lineno)
        edges.append((u, v))
    if vertices is None:
        raise ParseError("missing 'vertices:' line", 1)
    return Graph(vertices, edges)


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
