"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and structurally unrelated to the
implementations under test: reversibility by trying every permutation,
K4 minors via explicit subdivisions, covering chains by path enumeration,
signatures by one lowest-common-ancestor walk per pair, the closure by
Warshall's loop, terminal candidates by sorting every pair and testing
each by a fresh reduction of the whole component, component reductions
through the checked constructors, composition trees by re-deriving every
node's subgraph, reversed composition trees by rebuilding every node,
topological orders by Kahn's algorithm over one arc per pair, witness
cycles by one breadth-first search per pair, linear extensions by sorting,
realizers by comparing positions pair by pair, decompositions one record
per node, their depths by a walk from the root, incomparable pairs by one
test per ordered pair, the thinning of random 2-trees by a whole-graph
search per drawn deletion, the poset text and the ``verify`` bundle by one
test per line.  The validation, the separation predicates and the in-order
comparison of s-t decompositions live here too, with the order, graph and
tree queries that only tests need, standard-example containment by
backtracking, and the JSON records the hand-written writers must match.

Decompositions and embeddings carry vertex ids; ``id_host`` gives the host
graph over those ids, which the decomposition checks take.
"""

import heapq
from itertools import permutations


# -- queries only tests need -----------------------------------------------

def less(poset, x, y):
    "True iff x < y (strictly)."
    return poset.leq(x, y) and poset.index(x) != poset.index(y)


def cover_edges(poset):
    return frozenset(poset.covers())


class NotComparable(Exception):
    "``covering_chain`` was asked for a chain between elements that are not ordered."


def covering_chain(poset, x, y):
    """A chain x = z1 < z2 < ... < zk = y where each step is a cover.

    Tie-break: always step to the smallest cover (canonical order) above
    the current element that still lies below y.
    """
    if not poset.leq(x, y):
        raise NotComparable("%r is not below %r" % (x, y))
    ups = {}
    for a, b in poset.covers():
        ups.setdefault(a, []).append(b)
    chain = [x]
    while chain[-1] != y:
        chain.append(next(b for b in ups[chain[-1]] if poset.leq(b, y)))
    return chain


def is_reversible(poset, pairs):
    "True iff one linear extension can reverse every pair at once."
    return find_strict_alternating_cycle(poset, pairs) is None


def find_strict_alternating_cycle(poset, pairs):
    """A strict alternating cycle with all pairs from ``pairs``, or None.

    None is returned exactly when the set is reversible.
    """
    from spdim.errors import NotReversible

    try:
        poset.linear_extension_reversing(pairs)
    except NotReversible as exc:
        return exc.cycle
    return None


def is_alternating_cycle(poset, cycle):
    cycle = list(cycle)
    if len(cycle) < 2:
        return False
    if any(poset.leq(x, y) or poset.leq(y, x) for x, y in cycle):
        return False
    m = len(cycle)
    return all(poset.leq(cycle[i][0], cycle[(i + 1) % m][1]) for i in range(m))


def is_strict_alternating_cycle(poset, cycle):
    cycle = list(cycle)
    if not is_alternating_cycle(poset, cycle):
        return False
    m = len(cycle)
    return all(poset.leq(cycle[i][0], cycle[j][1]) == (j == (i + 1) % m)
               for i in range(m) for j in range(m))


def has_edge(graph, u, v):
    return graph.edge(u, v) in graph.edges


def neighbors(graph, v):
    "The neighbours of vertex v, in canonical order."
    return [graph.vertices[j] for j in sorted(graph.adjacency()[graph.index(v)])]


def is_connected_set(graph, subset):
    "True iff the induced subgraph on ``subset`` is connected (and nonempty)."
    subset = set(subset)
    if not subset:
        return False
    for v in subset:
        graph.index(v)  # UnknownElement for a vertex not in the graph
    start = next(iter(subset))
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbors(graph, stack.pop()):
            if w in subset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == subset


def is_ancestor(decomp, u, v):
    "True iff u lies on the root path of v (u <= v in the tree order)."
    while v is not None and decomp.depth(v) > decomp.depth(u):
        v = decomp.parent[v]
    return v == u


def tree_path(decomp, u, v):
    "Node ids along the unique tree path from u to v, inclusive."
    w = decomp.lca(u, v)
    up, down = [], []
    for x, out in ((u, up), (v, down)):
        while x != w:
            out.append(x)
            x = decomp.parent[x]
    return up + [w] + down[::-1]


def id_host(embedding):
    "The host graph of an embedding over vertex ids (its vertices are listed in id order)."
    from spdim.graphs import Graph

    host = embedding.host
    return Graph(range(len(host)), [(host.index(u), host.index(v)) for u, v in host.edges])


# -- brute force -------------------------------------------------------------

def brute_is_reversible(poset, pairs):
    "Try every permutation of the ground set (posets of ~8 elements max)."
    pairs = list(pairs)
    for perm in permutations(poset.elements):
        pos = {e: k for k, e in enumerate(perm)}
        if any(pos[x] > pos[y] for x, y in poset.covers()):
            continue
        if all(pos[y] < pos[x] for x, y in pairs):
            return True
    return False


def brute_strict_alternating_cycles(poset, pairs, max_len=None):
    "All strict alternating cycles (as pair tuples) with pairs from the set."
    pairs = list(pairs)
    max_len = max_len or len(pairs)
    found = []

    def strict(seq):
        m = len(seq)
        for i in range(m):
            for j in range(m):
                if poset.leq(seq[i][0], seq[j][1]) != (j == (i + 1) % m):
                    return False
        return True

    def grow(seq, used):
        if 2 <= len(seq) and strict(seq):
            found.append(tuple(seq))
        if len(seq) == max_len:
            return
        for k, p in enumerate(pairs):
            if k not in used:
                grow(seq + [p], used | {k})

    grow([], frozenset())
    return found


def brute_dimension(poset, max_d=6):
    """Least number of reversible parts covering Inc, by exhaustive assignment.

    Reversibility is read off every permutation of the ground set once: a
    part is reversible iff some linear extension reverses all of its pairs,
    and the answer is memoized per part.  Pairs are assigned in order, each
    to a part it keeps reversible or to one new part.
    """
    inc = poset.incomparable_pairs()
    if not inc:
        return 1
    reversers = _maximal_reversed_sets(poset, inc)
    memo = {}

    def reversible(part):
        ok = memo.get(part)
        if ok is None:
            ok = memo[part] = any(part & r == part for r in reversers)
        return ok

    for d in range(2, max_d + 1):
        if _assign(reversible, len(inc), 0, [], d):
            return d
    raise AssertionError("dimension above %d" % max_d)


def _maximal_reversed_sets(poset, inc):
    """Per permutation of the ground set that puts every cover in order, the
    mask of the pairs of ``inc`` it reverses; only the maximal masks are kept."""
    covers = poset.covers()
    found = set()
    for perm in permutations(poset.elements):
        pos = {e: k for k, e in enumerate(perm)}
        if any(pos[x] > pos[y] for x, y in covers):
            continue
        found.add(sum(1 << k for k, (x, y) in enumerate(inc) if pos[y] < pos[x]))
    return [m for m in found if not any(m != o and m & o == m for o in found)]


def _assign(reversible, m, k, parts, d):
    "Place pairs k..m-1 into at most d parts (masks over pair indices), each reversible."
    if k == m:
        return True
    bit = 1 << k
    for i, part in enumerate(parts):
        if reversible(part | bit):
            parts[i] = part | bit
            if _assign(reversible, m, k + 1, parts, d):
                return True
            parts[i] = part
    if len(parts) < d:
        parts.append(bit)
        if _assign(reversible, m, k + 1, parts, d):
            return True
        parts.pop()
    return False


def brute_covering_chains(poset, x, y):
    "All covering chains from x to y, by depth-first path enumeration."
    covers = {}
    for a, b in poset.covers():
        covers.setdefault(a, []).append(b)
    out = []

    def grow(path):
        if path[-1] == y:
            out.append(list(path))
            return
        for nxt in covers.get(path[-1], []):
            if poset.leq(nxt, y):
                grow(path + [nxt])

    if poset.leq(x, y):
        grow([x])
    return out


def has_k4_minor(graph):
    """K4 minor via K4 subdivisions (equivalent since K4 is cubic): four
    branch vertices of degree >= 3 joined by six internally-disjoint paths,
    with the spare vertices distributed over the paths."""
    verts = list(graph.vertices)
    n = len(verts)
    if n < 4 or len(graph.edges) < 6:
        return False
    branch_candidates = [v for v, nb in zip(verts, graph.adjacency()) if len(nb) >= 3]
    if len(branch_candidates) < 4:
        return False
    from itertools import combinations, product

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for branch in combinations(branch_candidates, 4):
        spare = [v for v in verts if v not in branch]
        for assignment in product(range(7), repeat=len(spare)):
            groups = [[] for _ in range(6)]
            for v, slot in zip(spare, assignment):
                if slot < 6:
                    groups[slot].append(v)
            if all(_path_through(graph, branch[a], branch[b], groups[k])
                   for k, (a, b) in enumerate(pairs)):
                return True
    return False


def _path_through(graph, u, v, inner):
    "Is there a u-v path using exactly the vertices of ``inner`` in between?"
    if not inner:
        return has_edge(graph, u, v)
    for order in permutations(inner):
        seq = [u, *order, v]
        if all(has_edge(graph, a, b) for a, b in zip(seq, seq[1:])):
            return True
    return False


def all_labeled_graphs(n, graph_cls):
    "Every labeled simple graph on n vertices (2^(n choose 2) of them)."
    from itertools import combinations

    verts = ["g%d" % i for i in range(n)]
    slots = list(combinations(verts, 2))
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        yield graph_cls(verts, edges)


class ReferenceClassifier:
    """Per-pair signature classification, one ``lca`` walk per pair.

    This is the classifier the row-wise ``SignatureRows`` replaced, kept as
    an independent reference: every field is computed for the pair itself,
    and the span test uses one top-down tree walk per element.
    """

    def __init__(self, poset, decomp):
        from spdim.errors import MalformedInstance

        self.poset = poset
        self.decomp = decomp
        self.in_pos = in_order_positions(decomp)
        n = len(poset)
        nodes = decomp.nodes
        self.home = {}
        for i, x in enumerate(poset.elements):
            w = decomp.least_node(i)
            node = nodes[w]
            if len(node.bag) != 3 or node.middle != i:
                raise MalformedInstance(
                    "least node of %r does not carry it as its middle vertex" % (x,))
            self.home[x] = w
        self.bagmask = []
        self.s_idx = []
        self.t_idx = []
        for node in nodes:
            mask = 0
            for v in node.bag:
                if v < n:  # vertex id v is element v; the rest are fresh
                    mask |= 1 << v
            self.bagmask.append(mask)
            self.s_idx.append(node.s if node.s < n else None)
            self.t_idx.append(node.t if node.t < n else None)
        # For every element, the set of nodes u such that some ancestor-or-self
        # of u has both terminals inside the up/down set of the element.
        self.up, self.down = poset.closed_masks()
        self.up_span = {}
        self.down_span = {}
        for i, x in enumerate(poset.elements):
            self.up_span[x] = self._span_mask(self.up[i])
            self.down_span[x] = self._span_mask(self.down[i])

    def _span_mask(self, member_mask):
        decomp = self.decomp
        out = 0
        stack = [(decomp.root, False)]
        while stack:
            nid, flag = stack.pop()
            si, ti = self.s_idx[nid], self.t_idx[nid]
            if (si is not None and member_mask >> si & 1
                    and ti is not None and member_mask >> ti & 1):
                flag = True
            if flag:
                out |= 1 << nid
            node = decomp.nodes[nid]
            if node.left is not None:
                stack.append((node.left, flag))
                stack.append((node.right, flag))
        return out

    def classify(self, x, y):
        from spdim.errors import MalformedInstance
        from spdim.realizer import PairClass

        poset = self.poset
        decomp = self.decomp
        wx, wy = self.home[x], self.home[y]
        if wx == wy:
            raise MalformedInstance("incomparable elements share a least node")
        meet = decomp.lca(wx, wy)
        up_mask = self.up[poset.index(x)]
        down_mask = self.down[poset.index(y)]
        up_hits = up_mask & self.bagmask[meet]
        down_hits = down_mask & self.bagmask[meet]
        order = 1 if self.in_pos[wx] < self.in_pos[wy] else 2
        if not up_hits or not down_hits:
            return PairClass(1, order, up=(1 if not up_hits else 2))
        span = 2 if self.up_span[x] >> meet & 1 else 1
        if len(decomp.nodes[meet].bag) == 3:
            gate = order
        else:
            si, ti = self.s_idx[meet], self.t_idx[meet]
            s_up = si is not None and bool(up_mask >> si & 1)
            t_up = ti is not None and bool(up_mask >> ti & 1)
            s_down = si is not None and bool(down_mask >> si & 1)
            t_down = ti is not None and bool(down_mask >> ti & 1)
            if s_up and t_down and not (t_up or s_down):
                gate = 1
            elif t_up and s_down and not (s_up or t_down):
                gate = 2
            else:
                raise MalformedInstance(
                    "meeting bag of (%r, %r) is not split between upset and downset" % (x, y))
        return PairClass(2, order, span=span, gate=gate)

    def terminal_pair_conflict(self, x, y):
        "Both the upset of x and the downset of y span an ancestor of the meet."
        meet = self.decomp.lca(self.home[x], self.home[y])
        return bool(self.up_span[x] >> meet & 1 and self.down_span[y] >> meet & 1)


def reference_classification(poset, decomp):
    "Signature of every incomparable ordered pair, by the per-pair reference."
    classifier = ReferenceClassifier(poset, decomp)
    return {(x, y): classifier.classify(x, y) for x, y in poset.incomparable_pairs()}


def reference_metamorphic_check(poset, decomp, base):
    """The transform checks pair by pair, against the classification dict
    ``base``: the report ``spdim.realizer.metamorphic_check`` must match."""
    from spdim.realizer import PairClass, Violation

    report = []
    dual_cls = reference_classification(poset.dual(), decomp)
    for (x, y), cls in base.items():
        got = dual_cls[(y, x)]
        if cls.kind == 1:
            if cls.up == 2:
                want = PairClass(1, 3 - cls.order, up=1)
                if got != want:
                    report.append(Violation("dual/kind1", (x, y), want, got))
        else:
            ok = got.kind == 2 and got.order == 3 - cls.order and got.gate == 3 - cls.gate
            if ok and cls.span == 2:
                ok = got.span == 1
            if not ok:
                want = "kind=2 order=%d gate=%d%s" % (3 - cls.order, 3 - cls.gate,
                                                      " span=1" if cls.span == 2 else "")
                report.append(Violation("dual/kind2", (x, y), want, got))

    rev_cls = reference_classification(poset, decomp.reverse())
    for (x, y), cls in base.items():
        got = rev_cls[(x, y)]
        if cls.kind == 1:
            want = PairClass(1, 3 - cls.order, up=cls.up)
        else:
            want = PairClass(2, 3 - cls.order, span=cls.span, gate=3 - cls.gate)
        if got != want:
            report.append(Violation("reversed", (x, y), want, got))

    swap_cls = reference_classification(poset, decomp.swap_size2_children())
    for (x, y), cls in base.items():
        if cls.kind == 2 and cls.order == 2 and cls.gate == 1:
            got = swap_cls[(x, y)]
            want = PairClass(2, 1, span=cls.span, gate=cls.gate)
            if got != want:
                report.append(Violation("child-swap", (x, y), want, got))

    classifier = ReferenceClassifier(poset, decomp)
    for (x, y) in base:
        if classifier.terminal_pair_conflict(x, y):
            report.append(Violation("terminal-pair-exclusion", (x, y),
                                    "at most one of upset/downset spans an ancestor", "both"))
    return report


def reference_closure(elements, relations):
    """Warshall's closure over bitmask rows, one step per element pair.

    Returns the rows ``(above, below, cover_up)`` that ``spdim.poset.Poset``
    stores, or the element the ``CycleError`` must name: the lowest-index
    element below itself.
    """
    from spdim.poset import bits

    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    above = [0] * n
    for x, y in relations:
        above[index[x]] |= 1 << index[y]
    for k in range(n):
        bit = 1 << k
        row = above[k]
        for i in range(n):
            if above[i] & bit:
                above[i] |= row
    for i in range(n):
        if above[i] & (1 << i):
            return elements[i]
    below = [0] * n
    for i in range(n):
        for j in bits(above[i]):
            below[j] |= 1 << i
    cover_up = [0] * n
    for i in range(n):
        implied = 0
        for k in bits(above[i]):
            implied |= above[k]
        cover_up[i] = above[i] & ~implied
    return tuple(above), tuple(below), tuple(cover_up)


def reference_loads(text):
    """The poset ``spdim.poset.loads`` must return, or the ``ParseError`` it must
    raise: one pass over the lines, each stripped, split and checked in turn,
    and the checked name pairs handed to ``Poset``."""
    from spdim.errors import ParseError
    from spdim.poset import Poset

    elements = None
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise ParseError("duplicate elements line", lineno)
            elements = line[len("elements:"):].split()
            known, elements_line = set(elements), lineno
            continue
        if elements is None:
            raise ParseError("expected an 'elements:' line first", lineno)
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "<":
            raise ParseError("expected a cover relation 'x < y'", lineno)
        x, _, y = tokens
        if x not in known:
            raise ParseError("unknown element %r" % (x,), lineno)
        if y not in known:
            raise ParseError("unknown element %r" % (y,), lineno)
        relations.append((x, y))
    if elements is None:
        raise ParseError("missing 'elements:' line", 1)
    if len(known) != len(elements):
        raise ParseError("duplicate identifiers in elements line", elements_line)
    return Poset(elements, relations)


def reference_dumps(poset):
    "The text ``spdim.poset.dumps`` must write: the elements line, then one line per pair of ``covers()``."
    return "".join(["elements: %s\n" % " ".join(poset.elements)]
                   + ["%s < %s\n" % pair for pair in poset.covers()])


def reference_split_bundle(text):
    """The split ``spdim.cli._split_bundle`` must make: every line of the stream
    tested in turn, the poset text and the JSON joined again from the lines.  A
    relation line as ``spdim.poset.loads`` reads it (three tokens, '<' in the
    middle) never starts the JSON."""
    lines = text.splitlines(keepends=True)
    for k, raw in enumerate(lines):
        line = raw.strip()
        tokens = line.split()
        if (line.startswith(("[", "{")) and " < " not in line
                and not (len(tokens) == 3 and tokens[1] == "<")):
            return "".join(lines[:k]), "".join(lines[k:])
    return text, None


def reference_topological_order(poset, rows):
    """The index order ``Poset._topological_order(rows)`` must return.

    Kahn's algorithm with a min-heap over the cover arcs plus one arc j -> i
    for every bit j of ``rows[i]``: successor lists and in-degrees, one entry
    per arc.  Shorter than the poset when the arcs close a cycle.
    """
    from spdim.poset import bits

    n = len(poset)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in poset.covers():
        succ[poset.index(x)].append(poset.index(y))
        indeg[poset.index(y)] += 1
    for i, row in enumerate(rows):
        for j in bits(row):
            succ[j].append(i)
            indeg[i] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order


def reference_witness_cycle(poset, pairs):
    """A strict alternating cycle from ``pairs``, or None when reversible.

    One breadth-first search per pair: for pair (x, y) the arc y -> x closes
    a digraph cycle with any x ->* y path of cover arcs and further reversal
    arcs.  The shortest such cycle's reversal arcs form an alternating cycle;
    a chord x_i <= y_j (j != i+1), found by scanning all pairs of positions,
    cuts it to p_j, ..., p_i until none is left.
    """
    from collections import deque

    index = poset.index
    succ = [[] for _ in range(len(poset))]
    for x, y in poset.covers():
        succ[index(x)].append(index(y))
    arc_pair = {}
    for x, y in pairs:
        i, j = index(y), index(x)
        succ[i].append(j)
        arc_pair[(i, j)] = (x, y)
    best = None
    for x, y in pairs:
        src, dst = index(x), index(y)
        parent = {src: None}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if v == dst:
                break
            for w in succ[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        if dst not in parent:
            continue
        path = []
        v = dst
        while v is not None:
            path.append(v)
            v = parent[v]
        path.reverse()  # x ... y
        if best is None or len(path) < len(best[0]):
            best = (path, (x, y))
    if best is None:
        return None
    path, closing = best
    cycle = [closing]
    for a, b in zip(path, path[1:]):
        pair = arc_pair.get((a, b))
        if pair is not None:
            cycle.append(pair)
    while True:
        m = len(cycle)
        chord = next(((i, j) for i in range(m) for j in range(m)
                      if j != (i + 1) % m and poset.leq(cycle[i][0], cycle[j][1])), None)
        if chord is None:
            return cycle
        i, j = chord
        cycle = [cycle[(j + k) % m] for k in range((i - j) % m + 1)]


def reference_incomparable_pairs(poset):
    "The list ``Poset.incomparable_pairs`` must return: one comparability test per ordered pair."
    n = len(poset.elements)
    out = []
    for i in range(n):
        cmp_mask = poset._above[i] | poset._below[i] | (1 << i)
        for j in range(n):
            if not (cmp_mask >> j & 1):
                out.append((poset.elements[i], poset.elements[j]))
    return out


def reference_random_tw2_poset(n, seed, delete_prob=0.3):
    """The poset ``spdim.generators.random_tw2_poset`` must return, from the
    same draws: each drawn deletion is tried on a copy of the kept edges and
    kept when a search from vertex 0 still reaches every vertex."""
    import random

    from spdim.poset import Poset

    rng = random.Random(seed)
    if n == 1:
        return Poset(["v0"], [])
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = edges[rng.randrange(len(edges))]
        edges.append((a, v))
        edges.append((b, v))
    keep = list(edges)
    for e in edges[1:]:
        if rng.random() < delete_prob:
            trial = [f for f in keep if f != e]
            if _connected(n, trial):
                keep = trial
    return reference_oriented_poset(n, keep, rng)


def reference_forest_poset(n, seed, root_prob=0.25):
    "The poset ``spdim.generators.forest_poset`` must return, from the same draws."
    import random

    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() >= root_prob]
    return reference_oriented_poset(n, edges, rng)


def reference_oriented_poset(n, edges, rng):
    """The edges oriented by a shuffled vertex ranking, as named relations that
    ``Poset`` maps back to indices: lower rank below."""
    from spdim.poset import Poset

    ranking = list(range(n))
    rng.shuffle(ranking)
    rank = {v: r for v, r in zip(range(n), ranking)}
    elements = ["v%d" % i for i in range(n)]
    relations = []
    for u, v in edges:
        if rank[u] > rank[v]:
            u, v = v, u
        relations.append(("v%d" % u, "v%d" % v))
    return Poset(elements, relations)


def _connected(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def reference_is_linear_extension(poset, order):
    "Same elements as the poset (as sorted lists), and every cover in order."
    def key(e):
        return (poset.index(e) if e in poset else len(poset)), str(e)

    order = list(order)
    if sorted(order, key=key) != sorted(poset.elements, key=key):
        return False
    if any(e not in poset for e in order):
        return False
    pos = {e: k for k, e in enumerate(order)}
    return all(pos[x] < pos[y] for x, y in poset.covers())


def reference_realizer_violations(poset, extensions):
    """The list ``Poset.realizer_violations`` must return: the empty-family line, every order
    ``reference_is_linear_extension`` refuses, then every incomparable pair (x, y) that no accepted
    order lists with y before x, by comparing the two positions in each."""
    problems = [] if extensions else ["realizer has no extensions"]
    positions = []
    for k, ext in enumerate(extensions):
        if reference_is_linear_extension(poset, ext):
            positions.append({e: at for at, e in enumerate(ext)})
        else:
            problems.append("order %d is not a linear extension of the poset" % k)
    for x, y in reference_incomparable_pairs(poset):
        if not any(pos[y] < pos[x] for pos in positions):
            problems.append("incomparable pair (%s, %s) is reversed by no extension" % (x, y))
    return problems


def reference_tw2_with_extra_edge(comp, comp_edges, s, t):
    """Treewidth-<=2 test of the component plus the edge st by one fresh
    reduction of the whole of it: whether (s, t) may be the component's terminals."""
    from spdim import spembed

    adj = {v: set() for v in comp}
    for u, v in list(comp_edges) + [(s, t)]:
        adj[u].add(v)
        adj[v].add(u)
    return not spembed._reduce(adj)


def reference_terminal_candidates(graph, comp, comp_edges):
    """The terminal pairs in order of preference: every pair of vertices of
    degree <= 2, sorted by degree sum and then by canonical index, then each
    remaining edge; each kept only when ``reference_tw2_with_extra_edge``
    accepts it.  On a component with no more edges than vertices every pair is
    kept, and the first is the pair ``spdim.spembed._terminals`` must pick."""
    idx = graph.index
    degree = {v: 0 for v in comp}
    for u, v in comp_edges:
        degree[u] += 1
        degree[v] += 1
    lows = [v for v in comp if degree[v] <= 2]
    pairs = sorted(((lows[i], lows[j]) for i in range(len(lows))
                    for j in range(i + 1, len(lows))),
                   key=lambda p: (degree[p[0]] + degree[p[1]], idx(p[0]), idx(p[1])))
    seen = set(map(frozenset, pairs))
    for u, v in comp_edges:
        if frozenset((u, v)) not in seen:
            pairs.append((u, v))
    for s, t in pairs:
        if reference_tw2_with_extra_edge(comp, comp_edges, s, t):
            yield s, t


def reference_reduce_component(comp, comp_edges, s, t):
    """The composition tree of one component on terminals (s, t), built step by
    step through the checked constructors: the same tree and fills as
    ``spdim.spembed._reduce_component``, or None when it gives None."""
    from spdim.spembed import _flipped, _one_flipped, edge_node, parallel, series

    adj = {v: set() for v in comp}
    bundles = {}  # keyed u * N + v for the bundle joining u < v
    N = comp[-1] + 1
    for u, v in comp_edges:
        adj[u].add(v)
        adj[v].add(u)
        bundles[u * N + v] = edge_node(u, v)
    fills = []

    def put_bundle(u, v, tree):
        key = u * N + v if u < v else v * N + u
        if key in bundles:
            old = bundles[key]
            if old.source != tree.source:
                old, tree = _one_flipped(old, tree)
            bundles[key] = parallel(old, tree)
        else:
            bundles[key] = tree
            adj[u].add(v)
            adj[v].add(u)

    def reducible(v):
        return v != s and v != t and v in adj and len(adj[v]) <= 2

    ready = [v for v in comp if reducible(v)]
    while len(adj) > 2:
        while ready and not reducible(ready[0]):
            heapq.heappop(ready)
        if not ready:
            return None
        pick = heapq.heappop(ready)
        if len(adj[pick]) == 1:
            (u,) = adj[pick]
            w = min(w for w in adj[u] if w != pick)
            fill = (pick, w) if pick < w else (w, pick)
            fills.append(fill)
            put_bundle(pick, w, edge_node(*fill))
        u, w = sorted(adj[pick])
        left = bundles.pop(u * N + pick if u < pick else pick * N + u)
        right = bundles.pop(pick * N + w if pick < w else w * N + pick)
        if (left.sink == pick) != (right.source == pick):
            left, right = _one_flipped(left, right)
        adj[u].discard(pick)
        adj[w].discard(pick)
        del adj[pick]
        put_bundle(u, w, series(left, right) if left.sink == pick else series(right, left))
        for v in (u, w):
            if reducible(v):
                heapq.heappush(ready, v)

    assert set(adj) == {s, t} and len(bundles) == 1
    tree = bundles[s * N + t if s < t else t * N + s]
    return (tree if tree.source == s else _flipped(tree)), fills


def reference_sp_tree_violations(root):
    """The composition rules checked by re-deriving every node's vertex and
    edge sets bottom-up and intersecting the children's sets (quadratic on
    deep trees): ``spdim.spembed.sp_tree_violations`` must report some
    violation exactly when this does."""
    from spdim.spembed import EDGE, PARALLEL, SERIES, walk_postorder

    problems = []
    derived = {}
    for pos, node in enumerate(walk_postorder(root)):
        if node.kind == EDGE:
            if node.source == node.sink:
                problems.append("node %d: loop edge" % pos)
                derived[id(node)] = (frozenset((node.source,)), frozenset())
                continue
            derived[id(node)] = (frozenset((node.source, node.sink)),
                                 frozenset((frozenset((node.source, node.sink)),)))
        elif node.kind in (SERIES, PARALLEL):
            lv, le = derived[id(node.left)]
            rv, re = derived[id(node.right)]
            if le & re:
                problems.append("node %d: children share edges" % pos)
            if node.kind == SERIES:
                if node.left.sink != node.right.source:
                    problems.append("node %d: series children do not share a terminal" % pos)
                elif lv & rv != {node.left.sink}:
                    problems.append("node %d: series children overlap beyond the shared vertex" % pos)
                if (node.source, node.sink) != (node.left.source, node.right.sink):
                    problems.append("node %d: series terminals mismatch" % pos)
            else:
                if (node.left.source, node.left.sink) != (node.right.source, node.right.sink):
                    problems.append("node %d: parallel children disagree on terminals" % pos)
                elif lv & rv != {node.source, node.sink}:
                    problems.append("node %d: parallel children overlap beyond the terminals" % pos)
                if (node.source, node.sink) != (node.left.source, node.left.sink):
                    problems.append("node %d: parallel terminals mismatch" % pos)
            derived[id(node)] = (lv | rv, le | re)
        else:
            problems.append("node %d: unknown kind %r" % (pos, node.kind))
            derived[id(node)] = (frozenset(), frozenset())
        if node.source not in derived[id(node)][0] or node.sink not in derived[id(node)][0]:
            problems.append("node %d: terminals outside the subgraph" % pos)
    return problems


def mirror(root):
    "The same graph with source and sink exchanged at every node, rebuilt node by node."
    from spdim.spembed import EDGE, SERIES, edge_node, parallel, series, walk_postorder

    done = {}
    for node in walk_postorder(root):
        if node.kind == EDGE:
            done[id(node)] = edge_node(node.sink, node.source)
        elif node.kind == SERIES:
            done[id(node)] = series(done[id(node.right)], done[id(node.left)])
        else:
            done[id(node)] = parallel(done[id(node.left)], done[id(node.right)])
    return done[id(root)]


def reference_resolve(root, names=()):
    """The composition tree as the embedding built it before balancing: every
    ``FLIP`` view replaced by an eager ``mirror`` of its resolved subtree, and
    no run re-bracketed.  A drop-in for ``spdim.spembed._normalized`` that
    skips its leaf-coverage check (``names`` is not read)."""
    from spdim.spembed import EDGE, FLIP, SERIES, parallel, series

    done = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if node.kind == EDGE:
            done[id(node)] = node
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in (node.left, node.right) if child is not None)
        elif node.kind == FLIP:
            done[id(node)] = mirror(done[id(node.left)])
        else:
            join = series if node.kind == SERIES else parallel
            done[id(node)] = join(done[id(node.left)], done[id(node.right)])
    return done[id(root)]


def reference_decomposition(sp_root, names):
    """The s-t decomposition of a composition tree built one ``DecompNode`` per
    node, as ``build_st_decomposition`` once did: ids by a pre-order walk,
    leaves and parallel nodes with bag (source, sink), series nodes with bag
    (source, shared vertex, sink)."""
    from spdim.spembed import EDGE, SERIES
    from spdim.stdecomp import DecompNode, STDecomposition

    fields = []  # per id: [parent, left, right, bag, s, t]
    stack = [(sp_root, None, None)]  # (node, parent id, 1 for a left child or 2 for a right one)
    while stack:
        sp, parent, side = stack.pop()
        nid = len(fields)
        if parent is not None:
            fields[parent][side] = nid
        bag = (sp.source, sp.left.sink, sp.sink) if sp.kind == SERIES else (sp.source, sp.sink)
        fields.append([parent, None, None, bag, sp.source, sp.sink])
        if sp.kind != EDGE:
            stack += ((sp.right, nid, 2), (sp.left, nid, 1))
    return STDecomposition([DecompNode(nid, *f) for nid, f in enumerate(fields)], 0, names)


def reference_reverse(decomp):
    "``STDecomposition.reverse``, one ``DecompNode`` per node."
    from spdim.stdecomp import DecompNode, STDecomposition

    return STDecomposition([DecompNode(n.id, n.parent, n.right, n.left, tuple(reversed(n.bag)), n.t, n.s)
                            for n in decomp.nodes], decomp.root, decomp.names)


def reference_swap_size2_children(decomp):
    "``STDecomposition.swap_size2_children``, one ``DecompNode`` per node."
    from spdim.stdecomp import DecompNode, STDecomposition

    return STDecomposition([DecompNode(n.id, n.parent, n.right, n.left, n.bag, n.s, n.t)
                            if n.left is not None and len(n.bag) == 2 else n
                            for n in decomp.nodes], decomp.root, decomp.names)


def reference_depths_and_least(decomp):
    """Every node's depth, by a pre-order walk from the root, and every vertex
    id's least node: the shallowest node whose bag holds it, the lowest id
    on a tie (None for a vertex in no bag)."""
    depth = [0] * len(decomp.nodes)
    stack = [decomp.root]
    while stack:
        node = decomp.nodes[stack.pop()]
        if node.parent is not None:
            depth[node.id] = depth[node.parent] + 1
        stack.extend(child for child in (node.right, node.left) if child is not None)
    least = [None] * len(decomp.names)
    for node in decomp.nodes:
        for v in node.bag:
            if least[v] is None or depth[node.id] < depth[least[v]]:
                least[v] = node.id
    return depth, least


def in_order(decomp):
    "Node ids in in-order traversal (left subtree, node, right subtree)."
    out, stack, cur = [], [], decomp.root
    while stack or cur is not None:
        while cur is not None:
            stack.append(cur)
            cur = decomp.left[cur]
        cur = stack.pop()
        out.append(cur)
        cur = decomp.right[cur]
    return out


def in_order_positions(decomp):
    "The position of every node id in the decomposition's in-order."
    pos = [0] * len(decomp.nodes)
    for k, nid in enumerate(in_order(decomp)):
        pos[nid] = k
    return pos


def in_order_less(decomp, u, v):
    "Whether node u comes before node v in the in-order."
    pos = in_order_positions(decomp)
    return pos[u] < pos[v]


def validation_errors(decomp, graph, source, sink):
    """The s-t decomposition rules checked node by node (O(|V|·|nodes|)): bags of 2 or 3,
    each vertex in a subtree of bags, every edge in a bag, terminals passed down, and
    no least node using its vertex as a terminal.  ``graph`` is over vertex ids."""
    problems = []
    nodes = decomp.nodes
    for node in nodes:
        if (node.left is None) != (node.right is None):
            problems.append("node %d has exactly one child" % node.id)
        for c in (node.left, node.right):
            if c is not None and nodes[c].parent != node.id:
                problems.append("node %d: child %d has wrong parent" % (node.id, c))
    covered = set()
    for node in nodes:
        covered.update(node.bag)
        if len(node.bag) != len(set(node.bag)):
            problems.append("node %d: repeated bag entry" % node.id)
    if covered != set(graph.vertices):
        problems.append("bags do not cover exactly the vertex set")
    for u, v in graph.edges:
        if not any(u in n.bag and v in n.bag for n in nodes):
            problems.append("edge (%s, %s) is in no bag" % (u, v))
    for v in covered:
        roots = 0
        for node in nodes:
            if v in node.bag:
                p = node.parent
                if p is None or v not in nodes[p].bag:
                    roots += 1
        if roots != 1:
            problems.append("nodes containing %r do not form a subtree" % (v,))
    for node in nodes:
        if len(node.bag) not in (2, 3):
            problems.append("node %d: bag size %d" % (node.id, len(node.bag)))
            continue
        if node.s == node.t or node.s not in node.bag or node.t not in node.bag:
            problems.append("node %d: bad source/sink" % node.id)
            continue
        if node.left is None:
            if len(node.bag) != 2:
                problems.append("leaf %d has a bag of size %d" % (node.id, len(node.bag)))
            continue
        left, right = nodes[node.left], nodes[node.right]
        if len(node.bag) == 2:
            if not (left.s == right.s == node.s and left.t == right.t == node.t):
                problems.append("size-2 node %d: children do not inherit terminals" % node.id)
        else:
            if left.s != node.s or right.t != node.t:
                problems.append("size-3 node %d: outer terminals not passed down" % node.id)
            if left.t != right.s or left.t not in node.bag:
                problems.append("size-3 node %d: children do not meet inside the bag" % node.id)
    root = nodes[decomp.root]
    if root.parent is not None:
        problems.append("root has a parent")
    if (root.s, root.t) != (source, sink):
        problems.append("root terminals are (%s, %s), expected (%s, %s)"
                        % (root.s, root.t, source, sink))
    for v in covered:
        if v in (source, sink):
            continue
        w = nodes[decomp.least_node(v)]
        if v in (w.s, w.t):
            problems.append("least node of %r uses it as a terminal" % (v,))
    return problems


def validate_decomposition(decomp, graph, source, sink):
    return not validation_errors(decomp, graph, source, sink)


def separation_hits(decomp, host, u1, u2, tree_edge, subgraph_vertices):
    """Whether a connected subgraph of ``host`` (over vertex ids) meeting both
    end bags also meets the separator of an edge on the tree path between
    them.  Always true; a predicate so that the guarantee itself can be
    property-tested."""
    from spdim.errors import PreconditionViolated

    H = set(subgraph_vertices)
    if not is_connected_set(host, H):
        raise PreconditionViolated("subgraph is not connected")
    if not (H & set(decomp.nodes[u1].bag)) or not (H & set(decomp.nodes[u2].bag)):
        raise PreconditionViolated("subgraph misses an end bag")
    if u1 == u2:
        return True  # no edge separates a node from itself
    path = tree_path(decomp, u1, u2)
    v1, v2 = tree_edge
    on_path = any((path[i], path[i + 1]) in ((v1, v2), (v2, v1))
                  for i in range(len(path) - 1))
    if not on_path:
        raise PreconditionViolated("edge is not on the tree path")
    return bool(H & (set(decomp.nodes[v1].bag) & set(decomp.nodes[v2].bag)))


def st_subset_witness(decomp, host, u1, u2, subgraph_vertices):
    """A node v on the tree path between comparable u1, u2 whose source and
    sink both lie in the given connected subgraph of ``host`` (over vertex
    ids), which must contain the source of u1 and the sink of u2."""
    from spdim.errors import PreconditionViolated

    H = set(subgraph_vertices)
    if not is_connected_set(host, H):
        raise PreconditionViolated("subgraph is not connected")
    if decomp.nodes[u1].s not in H or decomp.nodes[u2].t not in H:
        raise PreconditionViolated("subgraph misses a required terminal")
    if is_ancestor(decomp, u1, u2):
        # Deepest node on the path whose source is in the subgraph; the
        # separation property then forces its sink into the subgraph too.
        witness = None
        for v in tree_path(decomp, u1, u2):
            if decomp.nodes[v].s in H:
                witness = v
        assert witness is not None
        node = decomp.nodes[witness]
        assert node.t in H, "separation property violated"
        return witness
    if is_ancestor(decomp, u2, u1):
        return st_subset_witness(decomp.reverse(), host, u2, u1, H)
    raise PreconditionViolated("nodes are not comparable in the tree")


def contains_standard_example(poset, n):
    """Whether 2n elements of the poset induce exactly the order-n standard
    example: minimal a_1..a_n, maximal b_1..b_n, a_i < b_j iff i != j."""
    from spdim.errors import BadParameter
    from spdim.exactdim import _index_pairs

    if n < 2:
        raise BadParameter("standard examples start at order 2")
    inc = _index_pairs(poset)
    up = poset.closed_masks()[0]

    def compatible(a, b, chosen):
        "Four distinct elements, a < b2 and a2 < b, the a's and the b's each incomparable."
        return all(len({a, b, a2, b2}) == 4 and up[a] >> b2 & 1 and up[a2] >> b & 1
                   and not (up[a] >> a2 & 1 or up[a2] >> a & 1 or up[b] >> b2 & 1 or up[b2] >> b & 1)
                   for a2, b2 in chosen)

    def extend(chosen):
        if len(chosen) == n:
            return True
        floor = chosen[-1][0] if chosen else -1
        for a, b in inc:
            if a <= floor:
                continue
            if compatible(a, b, chosen) and extend(chosen + [(a, b)]):
                return True
        return False

    return extend([])


def decomposition_to_json(decomp):
    "The records ``spdim.stdecomp.dumps_decomposition`` writes, one dict per node id."
    names, left = decomp.names, decomp.left
    return [{"id": nid, "parent": parent,
             "side": None if parent is None else "left" if left[parent] == nid else "right",
             "bag": [names[v] for v in bag], "s": names[s], "t": names[t]}
            for nid, (parent, bag, s, t) in enumerate(zip(decomp.parent, decomp.bag, decomp.s, decomp.t))]


def realizer_to_json(realizer):
    "The entries ``spdim.realizer.dumps_realizer`` writes, one dict per extension."
    return [{"signature": None if cls is None else cls.to_json(),
             "extension": list(ext)} for cls, ext in realizer.extensions]
