"""Signature classification of incomparable pairs and realizer synthesis.

Every incomparable ordered pair (x, y) of a poset whose cover graph has
treewidth at most 2 is labelled by a small signature read off an s-t
tree-decomposition of a series-parallel supergraph of the cover graph.  Pairs
sharing a signature can be reversed by a single linear extension, and there
are at most 12 signatures, so the poset has dimension at most 12.

Signature fields (values are 1 or 2 so that transformations flip v -> 3-v):

* ``kind``  -- 1 if the upset of x or the downset of y misses the bag of the
  meeting node (the lca of the least nodes of x and y); 2 otherwise.
* ``order`` -- 1 if x's least node precedes y's in the in-order traversal.
* ``up``    -- kind 1 only: 1 if the upset of x misses the meeting bag.
* ``span``  -- kind 2 only: 2 if some ancestor-or-self of the meeting node has
  both its terminals inside the upset of x.
* ``gate``  -- kind 2 only, for size-2 meeting bags: 1 if the meeting node's
  source sits in the upset of x (and its sink in the downset of y), 2 for the
  mirrored case; equal to ``order`` when the meeting bag has size 3.

Every field depends on x and the meeting node alone, or on y and the meeting
node alone.  So the classes are built row by row: for each element x and each
ancestor a of x's least node, the elements y meeting x at a form one bitmask,
which a few per-node masks split into the 12 class rows.  No per-pair object
is made, and each class is certified and emitted by a single sort.
"""

import json
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter, ne

from .errors import NotReversible, ParseError, PreconditionViolated, ReversibilityViolation
from .poset import bits, transpose
from .spembed import embed_into_sp
from .stdecomp import build_st_decomposition


@dataclass(frozen=True, order=True)
class PairClass:
    kind: int
    order: int
    up: int | None = None
    span: int | None = None
    gate: int | None = None

    def __post_init__(self):
        if self.kind == 1:
            ok = self.up in (1, 2) and self.span is None and self.gate is None
        else:
            ok = self.kind == 2 and self.up is None and self.span in (1, 2) and self.gate in (1, 2)
        values = (self.kind, self.order, self.up, self.span, self.gate)  # ints: True == 1 and 1.0 == 1 pass the above
        if not (ok and self.order in (1, 2) and all(type(v) is int for v in values if v is not None)):
            raise PreconditionViolated("invalid signature kind=%r order=%r up=%r span=%r gate=%r"
                                       % (self.kind, self.order, self.up, self.span, self.gate))

    def __str__(self):
        if self.kind == 1:
            return "kind=1 order=%d up=%d" % (self.order, self.up)
        return "kind=2 order=%d span=%d gate=%d" % (self.order, self.span, self.gate)

    def to_json(self):
        if self.kind == 1:
            return {"kind": 1, "order": self.order, "up": self.up}
        return {"kind": 2, "order": self.order, "span": self.span, "gate": self.gate}

    @classmethod
    def from_json(cls, obj):
        """The ``ALL_CLASSES`` member a JSON object names, other keys ignored; ``ParseError`` if a
        field is missing or invalid.  Field values are JSON integers: not ``true`` (a bool), not ``2.0``."""
        if not isinstance(obj, dict) or type(obj.get("kind")) is not int or obj["kind"] not in (1, 2):
            raise ParseError("signature needs kind 1 or 2: %s" % (json.dumps(obj),), 1)
        key = (obj["kind"], *map(obj.get, ("order", "up") if obj["kind"] == 1 else ("order", "span", "gate")))
        if all(type(v) is int for v in key) and key in _BY_FIELDS:  # types first: True == 1 as a key
            return _BY_FIELDS[key]
        raise ParseError("invalid signature %s" % (json.dumps(obj),), 1)


ALL_CLASSES = tuple(
    [PairClass(1, o, up=u) for o in (1, 2) for u in (1, 2)]
    + [PairClass(2, o, span=sp, gate=g) for o in (1, 2) for sp in (1, 2) for g in (1, 2)]
)
CLASS_INDEX = {cls: k for k, cls in enumerate(ALL_CLASSES)}
_BY_FIELDS = {tuple(cls.to_json().values()): cls for cls in ALL_CLASSES}  # (kind, order, ...) -> class


class SignatureRows:
    """The 12 signature classes of one (poset, decomposition), as bitmask rows.

    ``rows[k][i]`` holds bit j iff (element i, element j) is an incomparable
    pair with signature ``ALL_CLASSES[k]``; ``home[i]`` is element i's least
    node.  The decomposition's vertex id of element i is i, so its first
    names must be the poset's elements.  A node's terminals are its bag's ends.  Only
    the shape ``build_st_decomposition`` makes is taken, and ``PreconditionViolated``
    refuses any other: every element is in some bag, and element i's least node is
    internal with a bag of 3 members whose middle is i, i neither end.  Per-node
    masks (each over element indices):

    * ``sub[a]``     -- elements whose least node lies in a's subtree;
    * ``under[a]``   -- elements below some bag member (upset of x meets the bag);
    * ``over[a]``    -- elements above some bag member (downset of y meets the bag);
    * ``span_up[a]`` -- elements x such that some ancestor-or-self of a has both
      terminals in the upset of x.

    The meeting walk reads four columns, one entry per node c and then one
    per element: a step at c meets ``other[c]``, the rest of the subtree of
    c's parent ``meet[c]``, in order ``side[c]`` (1 iff c is the left child),
    and goes on to ``step[c]``; the walk ends below the root.  With N nodes,
    element x starts at entry N + x, which meets its home's right subtree.
    """

    def __init__(self, poset, decomp):
        self.poset = poset
        self.decomp = decomp
        n = len(poset)
        if decomp.names[:n] != poset.elements:
            raise PreconditionViolated("the decomposition's first vertices are not the poset's elements")
        bag, left = decomp.bag, decomp.left
        home = list(map(decomp.least_node, range(n)))
        # The shape ``build_st_decomposition`` makes, and no other: C-level passes
        # are the whole test, and the loop only names the first offender.
        homes = list(map(bag.__getitem__, home))
        hs, ht = list(map(itemgetter(0), homes)), list(map(itemgetter(-1), homes))
        if not (None not in map(left.__getitem__, home) and homes == list(zip(hs, range(n), ht))
                and all(map(ne, hs, range(n))) and all(map(ne, ht, range(n)))):
            x = next(x for i, (x, w) in enumerate(zip(poset.elements, home))
                     if left[w] is None or homes[i] != (hs[i], i, ht[i]) or i in (hs[i], ht[i]))
            raise PreconditionViolated("least node of %r is no internal node with it as its middle vertex" % (x,))
        self.home = home

        # Per vertex id, its upset and downset masks; 0 for the fresh vertices.
        up, down = poset.closed_masks()
        pad = [0] * (len(decomp.names) - n)
        up += pad
        down += pad
        self._up, self._down = up, down
        self._under = _bag_unions(down, bag, left)
        self._over = _bag_unions(up, bag, left)
        self._span_up = _top_down(decomp, down)
        sub = [0] * len(bag)  # a middle's only least node is its own: homes are distinct
        for i, h in enumerate(home):
            sub[h] = 1 << i
        parent, right = decomp.parent, decomp.right
        for nid, p in zip(range(len(sub) - 1, -1, -1), reversed(parent)):
            if p is not None:  # ids are parents-first: bottom-up
                sub[p] |= sub[nid]
        self._other = [0 if p is None else sub[p] ^ sub[c] for c, p in enumerate(parent)]
        self._side = [1 if p is None or left[p] == c else 2 for c, p in enumerate(parent)]
        self._meet = parent + home
        self._step = [None if p is None or parent[p] is None else p for p in parent]
        self._step += [right[h] for h in home]
        self._other += [sub[right[h]] for h in home]
        self._side += [1] * n
        self.rows = self._classify(poset.incomparable_masks())

    def _classify(self, inc):
        """The 12 class rows, by one walk per element x from its start entry:
        a step at c meets ys = inc[x] & other[c] at node meet[c], one AND.  A
        meeting of order o goes to row 2·o - 2 + up (kind 1) or
        4·o - 3 + 2·span + gate (kind 2), its ``ALL_CLASSES`` index."""
        n = len(inc)
        rows = [[0] * n for _ in ALL_CLASSES]
        bag = self.decomp.bag
        under, over, span_up, up, down = self._under, self._over, self._span_up, self._up, self._down
        step, meet, other, side = self._step, self._meet, self._other, self._side
        start = len(bag)
        stray = {}
        for x, row in enumerate(inc):
            if not row:
                continue
            bit = 1 << x
            c = start + x
            while c is not None:
                ys = row & other[c]
                if not ys:
                    c = step[c]
                    continue
                a, order, c = meet[c], side[c], step[c]
                if not under[a] & bit:
                    rows[2 * order - 2][x] |= ys
                    continue
                hit = ys & over[a]
                if hit != ys:
                    rows[2 * order - 1][x] |= ys ^ hit
                if not hit:
                    continue
                k = 4 * order + 1 if span_up[a] & bit else 4 * order - 1  # 4·o - 3 + 2·span
                if len(bag[a]) == 3:
                    rows[k + order][x] |= hit  # gate = order
                    continue
                # Size-2 bag {s, t}: x must reach exactly one terminal and y
                # lie above exactly the other one.
                sa, ta = bag[a]
                s_up, t_up = down[sa] & bit, down[ta] & bit
                if s_up and not t_up:
                    gate, split = 1, up[ta] & ~up[sa]
                elif t_up and not s_up:
                    gate, split = 2, up[sa] & ~up[ta]
                else:
                    gate, split = 1, 0
                bad = hit & ~split
                if bad:
                    stray[x] = stray.get(x, 0) | bad
                rows[k + gate][x] |= hit
        if stray:
            x = min(stray)
            y = (stray[x] & -stray[x]).bit_length() - 1
            names = self.poset.elements
            raise PreconditionViolated("meeting bag of (%r, %r) is not split between upset and downset"
                                       % (names[x], names[y]))
        return rows

    def census(self):
        "Pair count per class, in ``ALL_CLASSES`` order."
        return [sum(row.bit_count() for row in rows) for rows in self.rows]

    def class_of(self, x, y):
        "The class of the pair (element x, element y), or None."
        for cls, rows in zip(ALL_CLASSES, self.rows):
            if rows[x] >> y & 1:
                return cls
        return None

    def extension(self, k):
        """The linear extension reversing class k, which certifies the class:
        a class that no extension reverses raises ``ReversibilityViolation``
        with the witness cycle."""
        try:
            return self.poset.linear_extension_reversing(rows=self.rows[k])
        except NotReversible as exc:
            cls = ALL_CLASSES[k]
            raise ReversibilityViolation(
                "signature class %s is not reversible" % (cls,), exc.cycle, cls) from None

    def transposed(self):
        "Per class, the mask of the x of every pair (x, element j), indexed by j."
        return [transpose(rows, len(rows)) for rows in self.rows]

    def terminal_pair_conflicts(self):
        """Pairs (x, y) for which some ancestor-or-self of the meeting node has
        both terminals in the upset of x and some has both in the downset of
        y, as (x, ys) masks; the construction guarantees there are none."""
        span_down = _top_down(self.decomp, self._up)
        step, meet, other, span_up = self._step, self._meet, self._other, self._span_up
        out = []
        for x, row in enumerate(self.poset.incomparable_masks()):
            found, c = 0, len(self.decomp.bag) + x
            while c is not None:
                ys = row & other[c]
                if ys and span_up[meet[c]] >> x & 1:
                    found |= ys & span_down[meet[c]]
                c = step[c]
            if found:
                out.append((x, found))
        return out


def _top_down(decomp, masks):
    "Per node, the union of masks[s] & masks[t] over its ancestors-or-self with terminals s, t, by id."
    out = [masks[b[0]] & masks[b[-1]] for b in decomp.bag]
    for nid, p in enumerate(decomp.parent):
        if p is not None:
            out[nid] |= out[p]
    return out


def _bag_unions(masks, bags, left):
    """Per internal node, the union of masks[v] over the bag's 2 or 3 members, without a
    loop; 0 at a leaf, which is no meeting node."""
    return [0 if l is None else masks[b[0]] | masks[b[1]] | masks[b[-1]] for b, l in zip(bags, left)]


def decompose_poset(poset):
    """The s-t tree-decomposition the classes are read from: the cover graph embedded by
    ``embed_into_sp`` in an SP graph with fresh outer terminals, by one reduction per component,
    which also tests its treewidth (``NotTreewidth2`` above 2)."""
    embedding = embed_into_sp(poset.cover_graph())
    return build_st_decomposition(embedding.sp, embedding.names)


@dataclass(frozen=True)
class Realizer:
    """An ordered family of linear extensions whose intersection is the poset.

    Each entry pairs a signature with the extension reversing that signature
    class; a poset with no incomparable pairs yields one entry with signature
    ``None``.
    """

    extensions: tuple

    def orders(self):
        "The extensions in order: the stored tuples themselves, not copies."
        return [ext for _, ext in self.extensions]

    def __len__(self):
        return len(self.extensions)


def realize_tw2(poset):
    """End-to-end realizer construction for treewidth-<=2 cover graphs.

    At most 12 linear extensions are produced (one per nonempty signature
    class); their intersection is exactly the input order.  A poset without
    incomparable pairs is a chain, whose cover graph is a path.
    """
    if not any(poset.incomparable_masks()):
        return Realizer(((None, tuple(poset.canonical_extension())),))
    rows = SignatureRows(poset, decompose_poset(poset))
    return Realizer(tuple((cls, tuple(rows.extension(k)))
                          for k, cls in enumerate(ALL_CLASSES) if any(rows.rows[k])))


# -- consistency transformations ---------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    pair: tuple
    expected: object
    actual: object

    def __str__(self):
        return "%s: pair %s expected %s, got %s" % (self.check, self.pair, self.expected, self.actual)


def _relabel_violations(base, targets, actual, relabel):
    """Violations for the pairs (x, y) of each base class ``cls`` whose y is in no row
    ``targets[j][x]`` with j among the allowed class indexes of ``relabel(cls)``, a triple
    (check, expected, allowed); ``actual(x, y)`` names the class found instead.  Classes
    relabelled to None are not checked.  In canonical pair order."""
    found = []
    for k, cls in enumerate(ALL_CLASSES):
        want = relabel(cls)
        if want is None:
            continue
        for x, ys in enumerate(base.rows[k]):
            for j in want[2]:
                ys &= ~targets[j][x]
            found.extend((x, y, want) for y in bits(ys))
    names = base.poset.elements
    return [Violation(check, (names[x], names[y]), expected, actual(x, y))
            for x, y, (check, expected, _) in sorted(found, key=lambda f: f[:2])]


def _only(check, cls):
    "The relabelling to the one class ``cls``, under the name ``check``."
    return check, cls, (CLASS_INDEX[cls],)


def _dual_class(cls):
    """Where the dual poset puts (y, x): kind 1 with up=2 goes to the other order and up=1;
    kind 2 to the other order and gate, with span=1 if the span was 2."""
    if cls.kind == 1:
        return None if cls.up == 1 else _only("dual/kind1", PairClass(1, 3 - cls.order, up=1))
    order, gate = 3 - cls.order, 3 - cls.gate
    spans, note = ((1,), " span=1") if cls.span == 2 else ((1, 2), "")
    return ("dual/kind2", "kind=2 order=%d gate=%d%s" % (order, gate, note),
            [CLASS_INDEX[PairClass(2, order, span=sp, gate=gate)] for sp in spans])


def _reversed_class(cls):
    if cls.kind == 1:
        return _only("reversed", PairClass(1, 3 - cls.order, up=cls.up))
    return _only("reversed", PairClass(2, 3 - cls.order, span=cls.span, gate=3 - cls.gate))


def _swapped_class(cls):
    if cls.kind == 2 and cls.order == 2 and cls.gate == 1:
        return _only("child-swap", PairClass(2, 1, span=cls.span, gate=cls.gate))
    return None


def metamorphic_check(base):
    """Re-classify all pairs of the ``SignatureRows`` under the dual poset, the
    reversed decomposition and the size-2 child swap, and compare against the
    signature relabelings these transformations are guaranteed to produce.
    Returns the list of violations (empty on a correct implementation)."""
    poset, decomp, names = base.poset, base.decomp, base.poset.elements
    dual = SignatureRows(poset.dual(), decomp)  # the same decomposition: (x, y) maps to (y, x)
    report = _relabel_violations(base, dual.transposed(), lambda x, y: dual.class_of(y, x), _dual_class)
    rev = SignatureRows(poset, decomp.reverse())
    report += _relabel_violations(base, rev.rows, rev.class_of, _reversed_class)
    swap = SignatureRows(poset, decomp.swap_size2_children())
    report += _relabel_violations(base, swap.rows, swap.class_of, _swapped_class)

    found = sorted((x, y) for x, ys in base.terminal_pair_conflicts() for y in bits(ys))
    report.extend(Violation("terminal-pair-exclusion", (names[x], names[y]),
                            "at most one of upset/downset spans an ancestor", "both")
                  for x, y in found)
    return report


# -- realizer JSON -------------------------------------------------------------

def dumps_realizer(realizer):
    "The entries ``{signature, extension}`` as ``json.dumps(entries, indent=2)`` writes them, from a template."
    out = []
    for cls, ext in realizer.extensions:
        sig = "null" if cls is None else "{\n      %s\n    }" % ",\n      ".join(
            '"%s": %d' % item for item in cls.to_json().items())
        ext = "[\n      %s\n    ]" % ",\n      ".join(map(_string, ext)) if ext else "[]"
        out.append('  {\n    "signature": %s,\n    "extension": %s\n  }' % (sig, ext))
    return "[\n%s\n]\n" % ",\n".join(out) if out else "[]\n"


def loads_realizer(text):
    "Parse realizer JSON; ``ParseError`` unless it is a list of well-formed entries."
    data = json.loads(text)
    if not isinstance(data, list):
        raise ParseError("realizer JSON must be a list of objects", 1)
    out = []
    for k, entry in enumerate(data):
        if not (isinstance(entry, dict) and "signature" in entry
                and isinstance(entry.get("extension"), list)
                and all(map(isinstance, entry["extension"], repeat(str)))):
            raise ParseError("realizer entry %d needs a signature and a string list extension" % k, 1)
        sig = entry["signature"]
        cls = None if sig is None else PairClass.from_json(sig)
        out.append((cls, tuple(entry["extension"])))
    return Realizer(tuple(out))
