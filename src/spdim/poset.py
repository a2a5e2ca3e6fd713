"""Finite posets with reachability stored as dense bitmask rows.

Elements are arbitrary space-free string identifiers.  The canonical order of
elements is their declaration order; every deterministic tie-break in the
package refers back to it.  A poset is immutable after construction and safe
to share between threads.

Text format (one poset per stream)::

    # comment
    elements: a b c
    a < b
    b < c

The first non-comment line declares the ground set; each following line
declares one cover relation.  ``loads``/``dumps`` round-trip exactly.
"""

import heapq
from itertools import compress, repeat
from operator import and_, or_

from .errors import (
    CycleError,
    NotReversible,
    PairNotIncomparable,
    ParseError,
    UnknownElement,
)
from .graphs import Graph

_BITS = bytes.maketrans(b"01", b"\x00\x01")


class Poset:
    """A finite strict partial order over named elements.

    ``relations`` may be any set of ordered pairs (x, y) meaning x < y; the
    transitive closure is taken and pairs implied by transitivity are absorbed
    when the cover relation is recomputed.  Construction does linear work: one
    topological order of the relation arcs, then two bigint ORs per arc for
    the upsets and two for the downsets.  It fails with ``CycleError``,
    naming the lowest-index element below itself, if the relation has a cycle.
    The incomparable rows are computed on first read and kept.
    """

    __slots__ = ("elements", "_index", "_above", "_below", "_cover_up", "_cover_down", "_inc")

    def __init__(self, elements, relations=()):
        elements = tuple(elements)
        index = {}
        for e in elements:
            if e in index:
                raise UnknownElement("duplicate element %r" % (e,))
            index[e] = len(index)
        arcs = []
        for x, y in relations:
            if x not in index or y not in index:
                raise UnknownElement("unknown element %r" % (x if x not in index else y,))
            arcs.append((index[x], index[y]))
        self._close(elements, index, arcs)

    def _close(self, elements, index, arcs):
        "Set the rows of the order the arcs (x, y) of element indices generate, and return self."
        n = len(elements)
        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for x, y in arcs:
            succ[x].append(y)
            pred[y].append(x)
        # Kahn's algorithm; the arcs left over hold a cycle.
        indeg = list(map(len, pred))
        order = [i for i in range(n) if not indeg[i]]
        for i in order:
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) != n:
            raise CycleError("relation has a directed cycle through %r" % (elements[_on_cycle(succ)],))
        # Upsets are final in reverse topological order, downsets in topological order.
        above, cover_up = _reach(reversed(order), succ)
        below, cover_down = _reach(order, pred)
        self.elements = elements
        self._index = index
        self._above = tuple(above)
        self._below = tuple(below)
        self._cover_up = tuple(cover_up)
        self._cover_down = tuple(cover_down)
        self._inc = None
        return self

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._above == other._above

    def __hash__(self):
        return hash((self.elements, self._above))

    def __repr__(self):
        return "Poset(%d elements, %d cover relations)" % (len(self), len(self.covers()))

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement("unknown element %r" % (x,)) from None

    def leq(self, x, y):
        i, j = self.index(x), self.index(y)
        return i == j or bool(self._above[i] >> j & 1)

    def closed_masks(self):
        "Per element index i, the masks of the upset and of the downset of i, each including i."
        return ([above | 1 << i for i, above in enumerate(self._above)],
                [below | 1 << i for i, below in enumerate(self._below)])

    def covers(self):
        "All cover relations (x, y) with y covering x, in canonical order."
        out = []
        for i, row in enumerate(self._cover_up):
            for j in bits(row):
                out.append((self.elements[i], self.elements[j]))
        return out

    def cover_graph(self):
        "The cover graph over the elements, built by index: vertex i is element i."
        adj = [set() for _ in self.elements]
        for i, row in enumerate(self._cover_up):
            up = adj[i]
            for j in bits(row):
                up.add(j)
                adj[j].add(i)
        return Graph.from_adjacency(self.elements, self._index, adj)

    def incomparable_pairs(self):
        "All ordered incomparable pairs, in canonical order (symmetric set)."
        return self.pairs_of_rows(self.incomparable_masks())

    def incomparable_masks(self):
        "Per element index i, the bitmask of the elements incomparable to element i; a shared tuple."
        if self._inc is None:
            full = (1 << len(self.elements)) - 1
            self._inc = tuple([full ^ (above | below | 1 << i)
                               for i, (above, below) in enumerate(zip(self._above, self._below))])
        return self._inc

    def incomparable_count(self):
        "Number of ordered incomparable pairs, by popcount."
        return sum(map(int.bit_count, self.incomparable_masks()))

    def dual(self):
        "The poset with all comparabilities flipped; same cover graph.  Its rows are this poset's, swapped."
        p = Poset.__new__(Poset)
        p.elements, p._index, p._inc = self.elements, self._index, self._inc  # incomparability is self-dual
        p._above, p._below = self._below, self._above
        p._cover_up, p._cover_down = self._cover_down, self._cover_up
        return p

    # -- linear extensions and reversibility -------------------------------

    def is_linear_extension(self, order):
        "True iff the sequence ``order`` lists every element once, each after its whole downset."
        return self._extension_walk(order, [1 << i for i in range(len(self))], [0] * len(self))

    def _extension_walk(self, ext, marks, merged):
        """True iff the sequence ``ext`` is a linear extension; ORs into ``merged[i]`` the mask of the
        elements listed before element i (``marks[i]`` is ``1 << i``).  A wrong length fails first, and
        among n names a duplicate leaves an element unplaced, so no duplicate test is needed."""
        if len(ext) != len(marks):
            return False
        index, below = self._index, self._below
        before = 0
        for e in ext:
            i = index.get(e)
            if i is None or below[i] | before != before:  # unknown, or its downset not yet placed
                return False
            merged[i] |= before
            before |= marks[i]
        return before.bit_count() == len(marks)

    def canonical_extension(self):
        "The linear extension picked by canonical-order tie-breaking."
        return self.linear_extension_reversing(())

    def linear_extension_reversing(self, pairs=(), rows=None):
        """A linear extension placing y before x for every pair (x, y).

        The pairs may be given instead as ``rows``: one bitmask per element
        index i, holding the index of y for every pair (element i, y); named
        pairs are turned into rows on entry.  Topological order of the cover
        digraph plus the arcs y -> x, with ties broken by canonical element
        order; each element waits on one mask, its row and its downset, not
        on arcs.  When impossible, raises ``NotReversible`` carrying a strict
        alternating cycle of pairs from the set, read from the elements the
        sort left unplaced: its cost is bounded by n and the cycle's length,
        not by the number of pairs.
        """
        n = len(self.elements)
        if rows is None:
            rows = [0] * n
            for x, y in pairs:
                rows[self.index(x)] |= 1 << self.index(y)
        self._check_rows(rows)
        order = self._topological_order(rows)
        if len(order) != n:
            raise NotReversible("pair set is not reversible", self._unplaced_cycle(rows, order))
        return [self.elements[i] for i in order]

    def _check_rows(self, rows):
        n = len(self.elements)
        if len(rows) != n:
            raise ValueError("expected %d rows, got %d" % (n, len(rows)))
        if not any(rows) or list(map(and_, rows, self.incomparable_masks())) == rows:
            return
        for i, row in enumerate(rows):  # name the first bad row
            clash = row & (self._above[i] | self._below[i] | 1 << i)
            if clash:
                j = _low_bit(clash)
                raise PairNotIncomparable("(%r, %r) is not an incomparable pair"
                                          % (self.elements[i], self.elements[j]))
            if row >> n:
                raise UnknownElement("row %d names element index %d" % (i, row.bit_length() - 1))

    def pairs_of_rows(self, rows):
        "The pairs (element i, element j) for every bit j of rows[i], in canonical order."
        names = self.elements
        out = []
        for name, row in zip(names, rows):  # row's bits, lowest first, as bytes 0 and 1 that select names
            out.extend(zip(repeat(name), compress(names, bin(row)[:1:-1].encode().translate(_BITS))))
        return out

    def _topological_order(self, rows):
        # The lexicographically least topological order of the cover arcs plus
        # an arc j -> i for every bit j of rows[i], by a min-heap.  The placed
        # set is always a downset, so "all of below[x] placed" holds exactly
        # when "every cover predecessor of x placed" does: x waits for its one
        # mask rows[x] | below[x].  A waiting x is parked on its highest
        # unplaced bit i, in a list threaded through head[i + 1] and nxt[x],
        # and rechecked with one AND only when i is placed; the heap alone
        # orders placements.  Shorter than n when the arcs close a cycle.
        heappop, heappush = heapq.heappop, heapq.heappush
        pred = list(map(or_, rows, self._below))
        head = [None] * (len(pred) + 1)  # by highest set bit + 1
        nxt = [None] * len(pred)
        ready = []  # built ascending, so already a heap
        for x, mask in enumerate(pred):
            if mask:
                top = mask.bit_length()
                nxt[x], head[top] = head[top], x
            else:
                ready.append(x)
        unplaced = (1 << len(pred)) - 1
        order = []
        while ready:
            i = heappop(ready)
            order.append(i)
            unplaced ^= 1 << i
            x = head[i + 1]  # nothing parks on i once it is placed
            while x is not None:
                later = nxt[x]
                mask = pred[x] & unplaced
                if mask:
                    top = mask.bit_length()
                    nxt[x], head[top] = head[top], x
                else:
                    heappush(ready, x)
                x = later
        return order

    def _unplaced_cycle(self, rows, order):
        # Every unplaced x waits on an unplaced element of rows[x] | below[x],
        # so a walk from the lowest unplaced element along those waits closes
        # a loop.  Its reversal steps x -> y (y in rows[x]), read backwards,
        # are an alternating cycle x_i <= y_{i+1} with distinct y's, so one
        # AND with their mask finds the chords x_i <= y_j (j != i+1); each
        # cuts the cycle to the shorter pairs j..i.
        unplaced = (1 << len(rows)) - 1
        for i in order:
            unplaced ^= 1 << i
        step, x = {}, _low_bit(unplaced)
        while x not in step:
            step[x] = ((rows[x] | self._below[x]) & unplaced).bit_length() - 1
            x = step[x]
        loop = [x]
        while step[loop[-1]] != x:
            loop.append(step[loop[-1]])
        cycle = [(v, step[v]) for v in reversed(loop) if rows[v] >> step[v] & 1]
        while True:
            at = {y: j for j, (_, y) in enumerate(cycle)}
            ys = sum(1 << y for y in at)
            for i, (x, _) in enumerate(cycle):
                chord = (self._above[x] | 1 << x) & ys & ~(1 << cycle[i + 1 - len(cycle)][1])
                if chord:
                    j = at[chord.bit_length() - 1]
                    cycle = cycle[j:i + 1] if j <= i else cycle[j:] + cycle[:i + 1]
                    break
            else:
                return [(self.elements[x], self.elements[y]) for x, y in cycle]

    # -- realizer checking --------------------------------------------------

    def realizer_violations(self, extensions):
        """Diagnostics explaining why the list ``extensions`` is not a realizer (an empty list is not).

        One walk per extension checks that it is linear and ORs, into a copy of ``reversed_by``, the
        mask of the elements placed before each element x; a linear extension's copy is kept.  A pair
        (x, y) is reversed iff y is in ``reversed_by[x]``: one C-level pass checks every incomparable
        pair, and the missing ones are named only if it fails.
        """
        problems = [] if extensions else ["realizer has no extensions"]
        marks = [1 << i for i in range(len(self))]
        reversed_by = [0] * len(self)
        for k, ext in enumerate(extensions):
            merged = list(reversed_by)
            if self._extension_walk(ext, marks, merged):
                reversed_by = merged
            else:
                problems.append("order %d is not a linear extension of the poset" % k)
        inc = self.incomparable_masks()
        if tuple(map(and_, inc, reversed_by)) != inc:  # name the pairs no extension reversed
            for i, row in enumerate(inc):
                for j in bits(row & ~reversed_by[i]):
                    problems.append("incomparable pair (%s, %s) is reversed by no extension"
                                    % (self.elements[i], self.elements[j]))
        return problems

    def verify_realizer(self, extensions):
        "True iff ``realizer_violations`` finds nothing."
        return not self.realizer_violations(extensions)


def bits(mask):
    "Indices of the set bits of ``mask``, ascending."
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(order, arcs):
    """Per index i, the masks of the indices reachable from i along ``arcs`` and of the
    arcs i -> j with j reachable by no other arc from i; ``order`` puts i after its arcs' ends."""
    reach, direct_rows = [0] * len(arcs), [0] * len(arcs)
    for i in order:
        ends = arcs[i]
        if len(ends) == 1:  # most elements of a sparse order: nothing to OR
            direct_rows[i] = bit = 1 << ends[0]
            reach[i] = reach[ends[0]] | bit
        else:
            direct = implied = 0
            for j in ends:
                direct |= 1 << j
                implied |= reach[j]
            reach[i] = direct | implied
            direct_rows[i] = direct & ~implied
    return reach, direct_rows


def _on_cycle(succ):
    "The lowest index on a cycle of the arcs ``succ``, by Tarjan's strong components."
    number, low, stack, best, done = {}, {}, [], len(succ), len(succ)
    for root in range(len(succ)):
        if root in number:
            continue
        number[root] = low[root] = len(number)
        work = [(root, iter(succ[root]), len(stack))]
        stack.append(root)
        while work:
            v, arcs, height = work[-1]
            w = next(arcs, None)
            if w is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == number[v]:
                    component = stack[height:]
                    del stack[height:]
                    if len(component) > 1 or v in succ[v]:
                        best = min(best, *component)
                    number.update(dict.fromkeys(component, done))
            elif w not in number:
                number[w] = low[w] = len(number)
                work.append((w, iter(succ[w]), len(stack)))
                stack.append(w)
            else:
                low[v] = min(low[v], number[w])
    return best


def _low_bit(mask):
    assert mask
    return (mask & -mask).bit_length() - 1


# -- text format -----------------------------------------------------------

def dumps(poset):
    "Serialize to the poset text format (canonical, round-trips exactly)."
    names = poset.elements
    lines = ["elements: " + " ".join(names)]
    for x, row in zip(names, poset._cover_up):
        while row:
            low = row & -row
            lines.append(f"{x} < {names[low.bit_length() - 1]}")
            row ^= low
    return "\n".join(lines) + "\n"


def loads(text):
    """Parse the poset text format; strict, with line numbers on errors.  The lines are split
    once and checked column by column; only refused text is read again line by line."""
    lines = text.splitlines()
    rows = [row for row in map(str.split, lines) if row and row[0][0] != "#"]
    if rows and rows[0][0].startswith("elements:") and set(map(len, rows[1:])) <= {3}:
        elements = tuple(" ".join(rows[0])[len("elements:"):].split())
        index = dict(zip(elements, range(len(elements))))
        xs, ops, ys = zip(*rows[1:]) if len(rows) > 1 else ((),) * 3
        heads, tails = list(map(index.get, xs)), list(map(index.get, ys))
        if (len(index) == len(elements) and ops.count("<") == len(ops) and None not in heads
                and None not in tails and not any(map(str.startswith, xs, repeat("elements:")))):
            return Poset.__new__(Poset)._close(elements, index, zip(heads, tails))
    known = None  # refused: read the lines in turn, to name the first bad one
    for lineno, tokens in enumerate(map(str.split, lines), start=1):
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0].startswith("elements:"):
            if known is not None:
                raise ParseError("duplicate elements line", lineno)
            elements, elements_line = " ".join(tokens)[len("elements:"):].split(), lineno
            known = set(elements)
        elif known is None:
            raise ParseError("expected an 'elements:' line first", lineno)
        elif len(tokens) != 3 or tokens[1] != "<":
            raise ParseError("expected a cover relation 'x < y'", lineno)
        else:
            for name in tokens[::2]:
                if name not in known:
                    raise ParseError("unknown element %r" % (name,), lineno)
    if known is None:
        raise ParseError("missing 'elements:' line", 1)
    raise ParseError("duplicate identifiers in elements line", elements_line)  # all else passed
