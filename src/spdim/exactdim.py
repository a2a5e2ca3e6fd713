"""Brute-force exact poset dimension at desk scale.

The dimension is the least number of parts in a partition of the incomparable
ordered pairs into reversible sets.  The search assigns pairs to parts one at
a time, keeping an incrementally updated reachability table per part so that
a non-reversible assignment is rejected the moment it closes a cycle.

The ``cap`` on the pair count is checked against a popcount of the
incomparability rows, before any pair is listed.  Two sound accelerations keep
standard-example instances tractable:

* pairs that close an alternating cycle of length two can never share a part,
  and a greedy clique in that conflict graph is a lower bound on the answer
  (its rows are ANDs of per-element masks: no step runs per pair of pairs);
* pairs are ranked once, most-conflicted first, and assigned in that order,
  while the part chosen for a pair is still restricted to the already-used
  parts plus at most one fresh part.
"""

from dataclasses import dataclass

from .errors import BadParameter, Exceeded, TooLarge
from .poset import bits

SEARCH_BUDGET = 10**6  # placement attempts, over every part count tried, before ``TooLarge``


@dataclass
class DimensionResult:
    dimension: int
    witness: list
    parts: list


def dimension_exact(poset, max_d=12, cap=60):
    """Exact dimension with a witness realizer and the partition behind it.

    ``cap`` guards the search, counting incomparable ordered pairs; ``max_d``
    bounds the number of parts tried (``Exceeded`` when the true dimension is
    larger).  A search that makes more than ``SEARCH_BUDGET`` placement attempts
    stops with ``TooLarge``.  ``BadParameter`` if ``max_d`` is below 1 or ``cap`` below 0.
    """
    if max_d < 1 or cap < 0:
        raise BadParameter("need max_d >= 1 and cap >= 0, got max_d = %d, cap = %d" % (max_d, cap))
    count = poset.incomparable_count()
    if count > cap:
        raise TooLarge("%d incomparable pairs exceed the cap of %d" % (count, cap))
    if not count:
        return DimensionResult(1, [poset.canonical_extension()], [])
    inc = _index_pairs(poset)
    up, down = poset.closed_masks()

    above, below = _conflict_masks(inc, up, down)
    # Degree down; the sort is stable, so ties keep the canonical order of ``inc``.
    ranked = sorted(inc, key=lambda pair: -(above[pair[0]] & below[pair[1]]).bit_count())
    lower = max(2, _greedy_clique(ranked, *_conflict_masks(ranked, up, down)))
    if lower > max_d:
        raise Exceeded(max_d)

    names = poset.elements
    spent = 0
    for d in range(lower, max_d + 1):
        assignment, spent = _search(len(poset), ranked, up, d, spent)
        if assignment is not None:
            parts = [[] for _ in range(max(assignment) + 1)]
            rows = [[0] * len(poset) for _ in parts]
            for (x, y), part in sorted(zip(ranked, assignment)):  # each part in canonical order
                parts[part].append((names[x], names[y]))
                rows[part][x] |= 1 << y
            witness = [poset.linear_extension_reversing(rows=r) for r in rows]
            return DimensionResult(len(parts), witness, parts)
    raise Exceeded(max_d)


def _conflict_masks(pairs, up, down):
    """Per first element x of a pair, ``above[x]``, the pairs (x', y') with y' in up(x), and per
    second element y, ``below[y]``, those with x' in down(y); ``pairs[b]`` is bit b.  Pairs (x, y)
    and (x', y') conflict iff x <= y' and x' <= y, so the conflict row of (x, y) is
    ``above[x] & below[y]``.  The pairs need not be symmetric."""
    first, second = {}, {}
    for b, (x, y) in enumerate(pairs):
        first[x] = first.get(x, 0) | 1 << b
        second[y] = second.get(y, 0) | 1 << b
    firsts, seconds = sum(1 << x for x in first), sum(1 << y for y in second)
    # Each pair has one first and one second element: the masks summed are disjoint, so sum is OR.
    above = {x: sum(second[z] for z in bits(up[x] & seconds)) for x in first}
    below = {y: sum(first[w] for w in bits(down[y] & firsts)) for y in second}
    return above, below


def _greedy_clique(ranked, above, below):
    """The largest greedy clique of the conflict graph, one from each pair, whose row is
    ``above[x] & below[y]``; pair ``ranked[r]`` is bit r, so the best-ranked next member is the lowest."""
    best = 1 if ranked else 0
    for x, y in ranked:
        size, cand = 1, above[x] & below[y]
        while cand:
            x, y = ranked[(cand & -cand).bit_length() - 1]
            size += 1
            cand &= above[x] & below[y]
        best = max(best, size)
    return best


def _index_pairs(poset):
    "The incomparable ordered pairs as element index pairs, in canonical order."
    return [(i, j) for i, row in enumerate(poset.incomparable_masks()) for j in bits(row)]


def _search(n, pairs, base_reach, d, spent):
    """Backtracking part assignment of ``pairs``, in order; returns each pair's part or None, and
    ``spent`` plus the placement attempts made, raising ``TooLarge`` once that passes ``SEARCH_BUDGET``.

    Each placed pair is one entry of an explicit stack, so that the depth is bounded by the pair
    count alone: (its part, the undo log of its arc, the parts in use before it).  A pair tries the
    parts in use, then one fresh part if fewer than ``d`` are.  A part's table is made on first use
    and kept: once its arcs are undone it equals ``base_reach`` again.
    """
    tables, stack = [], []  # one reachability table per part ever used
    part = used = 0
    while len(stack) < len(pairs):
        if part > used or part == d:  # no part takes this pair: undo the last placement
            if not stack:
                return None, spent
            part, undo, used = stack.pop()
            table = tables[part]
            for u, row in undo:
                table[u] = row
            part += 1
            continue
        if part == len(tables):
            tables.append(list(base_reach))
        spent += 1
        if spent > SEARCH_BUDGET:
            raise TooLarge("the search passed its budget of %d placement attempts" % SEARCH_BUDGET)
        x, y = pairs[len(stack)]
        table = tables[part]
        if table[x] >> y & 1:  # the arc y -> x closes a cycle
            part += 1
            continue
        undo, xrow = [], table[x]
        for u in range(n):
            row = table[u]
            if row >> y & 1 and (row | xrow) != row:
                undo.append((u, row))
                table[u] = row | xrow
        stack.append((part, undo, used))
        used, part = max(used, part + 1), 0
    return [part for part, _, _ in stack], spent
