"""Instance generators: named families plus seeded random families.

Determinism contract: a (family, n, seed) triple produces the same poset on
every platform and run.  Random families draw only from
``random.Random(seed)`` via ``randrange``/``random``/``shuffle``, which are
stable Mersenne-Twister consumers.

``random_tw2`` tests each drawn deletion by a shared neighbour of its ends,
else by a search from both ends that stops where the sides meet, not by a
search of the whole graph; every seed gives the same poset as the
whole-graph test.  The random families hand index arcs to the closure.
n = 2,000 takes about 0.015 s of CPU and n = ``MAX_N`` about 0.4 s (2-core VM).
"""

import math
import random
from collections import deque

from .errors import BadParameter, TooLarge
from .poset import MAX_N, Poset


def standard_example(n):
    "Height-2 poset with minimal a_i, maximal b_j and a_i < b_j iff i != j."
    if n < 2:
        raise BadParameter("standard examples need n >= 2")
    elements = ["a%d" % i for i in range(1, n + 1)] + ["b%d" % i for i in range(1, n + 1)]
    relations = [("a%d" % i, "b%d" % j)
                 for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return Poset(elements, relations)


def kelly(n):
    """A planar-cover-graph poset inducing the order-n standard example.

    Two auxiliary chains sandwich the standard example:

    * an ascending chain c0 < c1 < ... < cn, where ci sits above exactly
      a1..ai and below exactly b(i+1)..bn;
    * a descending chain d1 > d2 > ... > d(n+1), where dk sits above exactly
      ak..an and below exactly b1..b(k-1).

    Each a_i is covered by c_i and d_i; each b_j covers c_(j-1) and d_(j+1).
    The cover graph is two paths joined by one rung per element of the
    standard example (a_i between c_i and d_i, b_j between c_(j-1) and
    d_(j+1)); the offset between the two rung families makes the graph
    treewidth 3 for n >= 3 while keeping it planar (a-rungs nest inside the
    c/d frame, b-rungs outside).
    """
    if n < 2:
        raise BadParameter("the construction needs n >= 2")
    elements = (["a%d" % i for i in range(1, n + 1)]
                + ["b%d" % i for i in range(1, n + 1)]
                + ["c%d" % i for i in range(n + 1)]
                + ["d%d" % i for i in range(1, n + 2)])
    relations = []
    for i in range(n):
        relations.append(("c%d" % i, "c%d" % (i + 1)))
    for k in range(1, n + 1):
        relations.append(("d%d" % (k + 1), "d%d" % k))
    for i in range(1, n + 1):
        relations.append(("a%d" % i, "c%d" % i))
        relations.append(("a%d" % i, "d%d" % i))
    for j in range(1, n + 1):
        relations.append(("c%d" % (j - 1), "b%d" % j))
        relations.append(("d%d" % (j + 1), "b%d" % j))
    return Poset(elements, relations)


def chain(n):
    if n < 1:
        raise BadParameter("chains need n >= 1")
    elements = ["v%d" % i for i in range(n)]
    return Poset(elements, list(zip(elements, elements[1:])))


def antichain(n):
    if n < 1:
        raise BadParameter("antichains need n >= 1")
    return Poset(["v%d" % i for i in range(n)], [])


def _oriented_poset(n, edges, rng):
    "Orient edges of a graph by a random vertex ranking, lower rank below; closure gives the poset."
    rank = list(range(n))
    rng.shuffle(rank)
    elements = tuple(["v%d" % i for i in range(n)])
    arcs = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in edges]
    return Poset.__new__(Poset)._close(elements, dict(zip(elements, range(n))), arcs)


def random_tw2_poset(n, seed, delete_prob=0.3):
    """Random poset whose cover graph has treewidth at most 2.

    A random 2-tree is grown edge by edge, thinned by random deletions that
    keep it connected, then oriented by a random linear order; the poset is
    the transitive closure.  Cover edges are a subset of the oriented edges,
    so the treewidth bound is inherited.  The graph is connected before each
    drawn deletion of an edge uv, so the deletion keeps it connected iff u
    and v stay joined without uv: a search from each end, always growing the
    side that has seen fewer vertices, stops as soon as the sides meet.
    """
    if n < 1:
        raise BadParameter("need n >= 1")
    rng = random.Random(seed)
    if n == 1:
        return Poset(["v0"], [])
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = edges[rng.randrange(len(edges))]
        edges.append((a, v))
        edges.append((b, v))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in edges[1:]:
        if rng.random() < delete_prob:
            adj[u].remove(v)
            adj[v].remove(u)
            if not _joined(adj, u, v):
                adj[u].add(v)
                adj[v].add(u)
    return _oriented_poset(n, [(u, v) for u, v in edges if v in adj[u]], rng)


def forest_poset(n, seed):
    "Random forest, randomly oriented; dimension is at most 3."
    if n < 1:
        raise BadParameter("need n >= 1")
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() >= 0.25:  # about a quarter of the vertices are roots
            edges.append((rng.randrange(v), v))
    return _oriented_poset(n, edges, rng)


def _joined(adj, u, v):
    """True iff a path joins u and v: at once if they share a neighbour, else by a breadth-first
    search from each side, the smaller one grown."""
    if not adj[u].isdisjoint(adj[v]):
        return True
    small, large = (deque([u]), {u}), (deque([v]), {v})
    while small[0]:
        queue, seen = small
        for w in adj[queue.popleft()]:
            if w in large[1]:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
        if len(seen) > len(large[1]):
            small, large = large, small
    return False


FAMILIES = {
    "standard_example": lambda n, seed: standard_example(n),
    "kelly": lambda n, seed: kelly(n),
    "chain": lambda n, seed: chain(n),
    "antichain": lambda n, seed: antichain(n),
    "forest": forest_poset,
    "random_tw2": random_tw2_poset,
}


def check_request(family, n):
    """Refuse a request before any work: ``BadParameter`` for an unknown family
    or an n below its least size, ``TooLarge`` for an n above ``MAX_N`` (above
    its square root for the standard example, whose relations grow as n²)."""
    if family not in FAMILIES:
        raise BadParameter("unknown family %r" % (family,))
    least = 2 if family in ("standard_example", "kelly") else 1
    if n < least:
        raise BadParameter("%s needs n >= %d" % (family, least))
    largest = math.isqrt(MAX_N) if family == "standard_example" else MAX_N
    if n > largest:
        raise TooLarge("n = %d is above the largest %s size, %d" % (n, family, largest))


def generate(family, n, seed=0):
    check_request(family, n)
    return FAMILIES[family](n, seed)
