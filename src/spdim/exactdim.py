"""Brute-force exact poset dimension at desk scale.

The dimension is the least number of parts in a partition of the incomparable
ordered pairs into reversible sets.  The search assigns pairs to parts one at
a time, keeping an incrementally updated reachability table per part so that
a non-reversible assignment is rejected the moment it closes a cycle.

Two sound accelerations keep standard-example instances tractable:

* pairs that close an alternating cycle of length two can never share a part,
  and a greedy clique in that conflict graph is a lower bound on the answer;
* pairs are assigned most-conflicted first, while the part chosen for a pair
  is still restricted to the already-used parts plus at most one fresh part.
"""

from dataclasses import dataclass

from .errors import BadParameter, Exceeded, TooLarge
from .poset import bits


@dataclass
class DimensionResult:
    dimension: int
    witness: list
    parts: list


def dimension_exact(poset, max_d=12, cap=60):
    """Exact dimension with a witness realizer and the partition behind it.

    ``cap`` guards the search, counting incomparable ordered pairs; ``max_d``
    bounds the number of parts tried (``Exceeded`` when the true dimension is
    larger).  ``BadParameter`` if ``max_d`` is below 1 or ``cap`` below 0.
    """
    if max_d < 1 or cap < 0:
        raise BadParameter("need max_d >= 1 and cap >= 0, got max_d = %d, cap = %d" % (max_d, cap))
    inc = _index_pairs(poset)
    if len(inc) > cap:
        raise TooLarge("%d incomparable pairs exceed the cap of %d" % (len(inc), cap))
    if not inc:
        return DimensionResult(1, [poset.canonical_extension()], [])
    up = poset.closed_masks()[0]

    m = len(inc)
    conflict = [0] * m
    for a, (x1, y1) in enumerate(inc):
        for b in range(a + 1, m):
            x2, y2 = inc[b]
            if up[x1] >> y2 & 1 and up[x2] >> y1 & 1:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    degrees = [bin(c).count("1") for c in conflict]

    lower = max(2, _greedy_clique(conflict, degrees))
    if lower > max_d:
        raise Exceeded(max_d)

    order = sorted(range(m), key=lambda k: (-degrees[k], k))
    names = poset.elements
    for d in range(lower, max_d + 1):
        assignment = _search(len(poset), inc, order, up, d)
        if assignment is not None:
            parts = [[] for _ in range(max(assignment) + 1)]
            rows = [[0] * len(poset) for _ in parts]
            for k, part in enumerate(assignment):  # ascending k: each part in canonical order
                x, y = inc[k]
                parts[part].append((names[x], names[y]))
                rows[part][x] |= 1 << y
            witness = [poset.linear_extension_reversing(rows=r) for r in rows]
            return DimensionResult(len(parts), witness, parts)
    raise Exceeded(max_d)


def _greedy_clique(conflict, degrees):
    m = len(conflict)
    ranked = sorted(range(m), key=lambda k: (-degrees[k], k))
    best = 1 if m else 0
    for start in range(m):
        size = 1
        cand = conflict[start]
        while cand:
            pick = next(k for k in ranked if cand >> k & 1)
            size += 1
            cand &= conflict[pick]
        best = max(best, size)
    return best


def _index_pairs(poset):
    "The incomparable ordered pairs as element index pairs, in canonical order."
    return [(i, j) for i, row in enumerate(poset.incomparable_masks()) for j in bits(row)]


def _search(n, inc, order, base_reach, d):
    """Backtracking part assignment over index pairs; returns pair-index -> part or None.

    One level per pair of ``order``, kept on an explicit stack rather than
    the interpreter's, so that the depth is bounded by the pair count alone.
    """
    m = len(inc)
    reaches = []  # one reachability table per open part
    assignment = [None] * m

    def place(table, xi, yi):
        "Add arc y -> x; return the undo log, or None if it closes a cycle."
        if table[xi] >> yi & 1:
            return None
        undo = []
        xrow = table[xi]
        for u in range(n):
            row = table[u]
            if row >> yi & 1 and (row | xrow) != row:
                undo.append((u, row))
                table[u] = row | xrow
        return undo

    stack = []  # per placed pair: (its part, the undo log, its part limit)
    part, limit = 0, None
    while len(stack) < m:
        k = order[len(stack)]
        if limit is None:
            limit = len(reaches) + 1 if len(reaches) < d else len(reaches)
        if part == limit:  # no part takes pair k: undo the last placement
            if not stack:
                return None
            part, undo, limit = stack.pop()
            assignment[order[len(stack)]] = None
            for u, row in undo:
                reaches[part][u] = row
        else:
            if part == len(reaches):
                reaches.append(list(base_reach))
            undo = place(reaches[part], *inc[k])
            if undo is not None:
                assignment[k] = part
                stack.append((part, undo, limit))
                part, limit = 0, None
                continue
        if part == len(reaches) - 1 and part not in assignment:
            reaches.pop()
        part += 1
    return assignment

