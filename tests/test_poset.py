import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spdim.errors import (
    CycleError,
    NotReversible,
    ParseError,
    PreconditionViolated,
    SpdimError,
    TooLarge,
    UnknownElement,
)
from spdim.exactdim import dimension_exact
from spdim.generators import antichain, chain, forest_poset, kelly, random_tw2_poset, standard_example
from spdim.graphs import Graph
from spdim.poset import MAX_N, Poset, bits, dumps, loads, transpose
from spdim.realizer import SignatureRows, decompose_poset, realize_tw2

from oracles import (
    NotComparable,
    brute_covering_chains,
    brute_is_reversible,
    brute_strict_alternating_cycles,
    cover_edges,
    covers,
    covering_chain,
    find_strict_alternating_cycle,
    has_edge,
    is_connected_set,
    is_reversible,
    is_strict_alternating_cycle,
    less,
    reference_closure,
    reference_dumps,
    reference_incomparable_pairs,
    reference_is_linear_extension,
    reference_loads,
    reference_realizer_violations,
    reference_topological_order,
    reference_transpose,
    reference_witness_cycle,
    rows_of_pairs,
)
from test_acceptance import CORPUS


def small_posets(max_n=6):
    "Random posets from random DAG edges over indexed elements."
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        names = ["e%d" % i for i in range(n)]
        rels = []
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    rels.append((names[i], names[j]))
        return Poset(names, rels)
    return build()


@st.composite
def acyclic_relations(draw, max_n=9):
    """Elements and relation pairs consistent with a random order, with
    duplicate pairs and pairs implied by transitivity mixed in."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    names = ["e%d" % i for i in range(n)]
    rank = draw(st.permutations(range(n)))
    slots = [(names[i], names[j]) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    rels = draw(st.lists(st.sampled_from(slots), max_size=3 * n)) if slots else []
    implied = [(x, z) for x, y in rels for y2, z in rels if y == y2]
    rels += draw(st.lists(st.sampled_from(implied), max_size=n)) if implied else []
    rels += draw(st.lists(st.sampled_from(rels), max_size=n)) if rels else []
    return names, draw(st.permutations(rels))


@st.composite
def any_relations(draw, max_n=7):
    "Elements and arbitrary relation pairs, self-loops and cycles included."
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = ["e%d" % i for i in range(n)]
    return names, draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                                max_size=2 * n))


TEXT_NAMES = ["a", "b", "c", "elements:", "#a"]


@st.composite
def poset_texts(draw):
    """Poset text over a few names, some never declared, with the lines the
    parser must take or refuse: comments and blank lines anywhere, a second
    ``elements:`` line, lines of 1 to 4 tokens, cycles, CRLF endings."""
    names = st.sampled_from(TEXT_NAMES + ["z"])
    space = st.sampled_from([" ", "  ", "\t", " \u3000"])
    declared = draw(st.lists(st.sampled_from(TEXT_NAMES), max_size=5, unique=True))
    if declared and draw(st.integers(0, 4)) == 4:
        declared.insert(draw(st.integers(0, len(declared))), draw(st.sampled_from(declared)))
    header = draw(st.sampled_from(["elements: ", "elements:", " elements:\t"])) + " ".join(declared)
    relation = st.tuples(space, names, space, space, names, space).map(
        lambda t: "%s%s%s<%s%s%s" % t)
    tokens = st.lists(st.one_of(names, st.just("<")), min_size=1, max_size=4).map(" ".join)
    other = st.sampled_from(["", "  ", "# comment", "#a < b", "\t# x y z", "elements: a b"])
    lines = draw(st.lists(st.one_of(other, other, other, relation), max_size=2)) + [header]
    lines += draw(st.lists(st.one_of(relation, relation, relation, tokens, other), max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def parse_outcome(parse, text):
    "The elements and rows ``parse`` returns, or the type, message and line of what it raises."
    try:
        p = parse(text)
    except SpdimError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return p.elements, closure_rows(p)


def closure_rows(p):
    return p._above, p._below, p._cover_up


class TestClosureAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(acyclic_relations())
    def test_rows_match_warshall(self, case):
        names, rels = case
        assert closure_rows(Poset(names, rels)) == reference_closure(names, rels)

    @settings(max_examples=100, deadline=None)
    @given(acyclic_relations())
    def test_dual_rows_match_warshall(self, case):
        names, rels = case
        assert closure_rows(Poset(names, rels).dual()) == reference_closure(
            names, [(y, x) for x, y in rels])

    @settings(max_examples=200, deadline=None)
    @given(any_relations())
    def test_cycle_error_names_the_same_element(self, case):
        names, rels = case
        want = reference_closure(names, rels)
        if isinstance(want, tuple):
            assert closure_rows(Poset(names, rels)) == want
        else:
            with pytest.raises(CycleError) as info:
                Poset(names, rels)
            assert str(info.value) == "relation has a directed cycle through %r" % (want,)

    @pytest.mark.parametrize("elements, rels, culprit", [
        ("abc", [("a", "b"), ("c", "c")], "c"),
        ("abcd", [("a", "b"), ("c", "d"), ("d", "c")], "c"),
        ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")], "b"),
        ("abcd", [("d", "a"), ("c", "d"), ("d", "c")], "c"),
        ("abcde", [("b", "c"), ("c", "b"), ("b", "a"), ("a", "d"), ("d", "e"), ("e", "d")], "b"),
    ], ids=["self-loop", "two-cycle", "tail-below", "tail-above", "between-two-cycles"])
    def test_cycle_error_examples(self, elements, rels, culprit):
        assert reference_closure(elements, rels) == culprit
        with pytest.raises(CycleError, match="through %r" % (culprit,)):
            Poset(elements, rels)


class TestConstruction:
    def test_three_chain(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        assert less(p, "a", "c")
        assert cover_edges(p) == frozenset({("a", "b"), ("b", "c")})

    def test_antichain(self):
        p = Poset("ab", [])
        assert set(p.incomparable_pairs()) == {("a", "b"), ("b", "a")}

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            Poset("ab", [("a", "z")])

    def test_duplicate_element(self):
        with pytest.raises(UnknownElement, match="duplicate element 'a'"):
            Poset(["a", "a"])

    def test_transitive_input_absorbed(self):
        p = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert cover_edges(p) == frozenset({("a", "b"), ("b", "c")})

    def test_repr_counts_covers(self):
        for p in (Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")]), kelly(3), Poset([])):
            assert repr(p) == "Poset(%d elements, %d cover relations)" % (len(p), len(covers(p)))

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_strictness_invariants(self, p):
        for x in p.elements:
            assert not less(p, x, x)
            for y in p.elements:
                for z in p.elements:
                    if less(p, x, y) and less(p, y, z):
                        assert less(p, x, z)


def closed_sets(p, x):
    "The upset and the downset of x, each including x, as name sets read off ``closed_masks``."
    i = p.index(x)
    return tuple({p.elements[j] for j in bits(masks[i])} for masks in p.closed_masks())


class TestUpsetsDownsets:
    def test_chain_upset(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        assert closed_sets(p, "b") == ({"b", "c"}, {"a", "b"})

    def test_standard_example_upset(self):
        s2 = standard_example(2)
        assert closed_sets(s2, "a1")[0] == {"a1", "b2"}

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_downset_is_dual_upset(self, p):
        up, down = p.closed_masks()
        assert p.dual().closed_masks() == (down, up)

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_upset_induces_connected_cover_subgraph(self, p):
        g = p.cover_graph()
        for x in p.elements:
            upset, downset = closed_sets(p, x)
            assert is_connected_set(g, upset)
            assert is_connected_set(g, downset)

    def test_unknown(self):
        with pytest.raises(UnknownElement):
            Poset("ab", []).leq("a", "z")


class TestCoveringChain:
    def test_chain(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        assert covering_chain(p, "a", "c") == ["a", "b", "c"]

    def test_reflexive(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        assert covering_chain(p, "b", "b") == ["b"]

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            covering_chain(antichain(2), "v0", "v1")

    def test_diamond_deterministic(self):
        p = Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        got = covering_chain(p, "a", "d")
        assert got in brute_covering_chains(p, "a", "d")
        assert got == ["a", "b", "d"]

    @settings(max_examples=30, deadline=None)
    @given(small_posets())
    def test_every_chain_is_a_valid_one(self, p):
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y):
                    assert covering_chain(p, x, y) in brute_covering_chains(p, x, y)


class TestIncomparablePairs:
    def test_chain_empty(self):
        assert chain(3).incomparable_pairs() == []

    def test_standard_example_count(self):
        for n in (2, 3, 4):
            sn = standard_example(n)
            pairs = set(sn.incomparable_pairs())
            expected = set()
            for i in range(1, n + 1):
                expected |= {("a%d" % i, "b%d" % i), ("b%d" % i, "a%d" % i)}
                for j in range(1, n + 1):
                    if i != j:
                        expected |= {("a%d" % i, "a%d" % j), ("b%d" % i, "b%d" % j)}
            assert pairs == expected

    @settings(max_examples=30, deadline=None)
    @given(small_posets())
    def test_symmetric(self, p):
        pairs = set(p.incomparable_pairs())
        assert {(y, x) for x, y in pairs} == pairs

    @settings(max_examples=100, deadline=None)
    @given(small_posets(max_n=12))
    def test_matches_reference(self, p):
        assert p.incomparable_pairs() == reference_incomparable_pairs(p)

    @pytest.mark.parametrize("p, count", [(chain(1500), 0), (antichain(200), 39_800),
                                          (standard_example(5), 50)],
                             ids=["chain-1500", "antichain-200", "standard-example-5"])
    def test_matches_reference_on_families(self, p, count):
        pairs = p.incomparable_pairs()
        assert pairs == reference_incomparable_pairs(p)
        assert len(pairs) == count


class TestReversibility:
    def test_empty_set(self):
        assert is_reversible(standard_example(3), [])

    def test_both_critical_pairs_not_reversible(self):
        s2 = standard_example(2)
        assert not is_reversible(s2, [("a1", "b1"), ("a2", "b2")])
        assert is_reversible(s2, [("a1", "b1")])

    def test_rejects_comparable_pair(self):
        with pytest.raises(PreconditionViolated, match=r"^\('a1', 'b2'\) is not an incomparable pair$"):
            is_reversible(standard_example(2), [("a1", "b2")])

    def test_witness_cycle_is_strict_and_from_input(self):
        s3 = standard_example(3)
        pairs = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        cycle = find_strict_alternating_cycle(s3, pairs)
        assert cycle is not None
        assert set(cycle) <= set(pairs)
        assert is_strict_alternating_cycle(s3, cycle)

    def test_reversible_gives_none(self):
        assert find_strict_alternating_cycle(standard_example(2), [("a1", "b1")]) is None

    @settings(max_examples=40, deadline=None)
    @given(small_posets(max_n=5), st.data())
    def test_matches_brute_force(self, p, data):
        inc = p.incomparable_pairs()
        if not inc:
            return
        pairs = data.draw(st.lists(st.sampled_from(inc), max_size=5, unique=True))
        assert is_reversible(p, pairs) == brute_is_reversible(p, pairs)

    @settings(max_examples=30, deadline=None)
    @given(small_posets(max_n=5), st.data())
    def test_strict_cycle_characterizes(self, p, data):
        inc = p.incomparable_pairs()
        if not inc:
            return
        pairs = data.draw(st.lists(st.sampled_from(inc), max_size=4, unique=True))
        cycles = brute_strict_alternating_cycles(p, pairs)
        assert is_reversible(p, pairs) == (not cycles)

    @settings(max_examples=40, deadline=None)
    @given(small_posets(max_n=5), st.data())
    def test_dual_inverse_equivalence(self, p, data):
        inc = p.incomparable_pairs()
        if not inc:
            return
        pairs = data.draw(st.lists(st.sampled_from(inc), max_size=5, unique=True))
        mirrored = [(y, x) for x, y in pairs]
        assert is_reversible(p, pairs) == is_reversible(p.dual(), mirrored)


class TestLinearExtensionReversing:
    def test_two_antichain(self):
        assert antichain(2).linear_extension_reversing([0b10, 0]) == ["v1", "v0"]

    def test_chain_identity(self):
        c = chain(4)
        assert c.linear_extension_reversing([0] * 4) == list(c.elements)

    def test_contract(self):
        # ((a1,b1),(a1,a2),(b1,b2)) would contain the alternating 2-cycle
        # (a1,b1),(b1,b2); this variant is reversible (brute-force checked).
        s2 = standard_example(2)
        pairs = [("a1", "b1"), ("a1", "a2"), ("b2", "b1")]
        ext = s2.linear_extension_reversing(rows_of_pairs(s2, pairs))
        assert reference_is_linear_extension(s2, ext)
        pos = {e: k for k, e in enumerate(ext)}
        for x, y in pairs:
            assert pos[y] < pos[x]

    def test_not_reversible_carries_cycle(self):
        s2 = standard_example(2)
        with pytest.raises(NotReversible) as err:
            s2.linear_extension_reversing(rows_of_pairs(s2, [("a1", "b1"), ("a2", "b2")]))
        assert is_strict_alternating_cycle(s2, err.value.cycle)

    @settings(max_examples=40, deadline=None)
    @given(small_posets(max_n=6), st.data())
    def test_exclusive_with_witness(self, p, data):
        inc = p.incomparable_pairs()
        if not inc:
            return
        pairs = data.draw(st.lists(st.sampled_from(inc), max_size=6, unique=True))
        witness = find_strict_alternating_cycle(p, pairs)
        if witness is None:
            ext = p.linear_extension_reversing(rows_of_pairs(p, pairs))
            pos = {e: k for k, e in enumerate(ext)}
            assert reference_is_linear_extension(p, ext)
            assert all(pos[y] < pos[x] for x, y in pairs)
        else:
            assert is_strict_alternating_cycle(p, witness)
            assert set(witness) <= set(pairs)


class TestExtensionFromRows:
    def test_failing_class_union_is_cheap(self):
        # The first non-reversible union of two signature classes, in class
        # order.  A search per pair over its ~118,000 pairs did not finish
        # in 200 s.
        p = random_tw2_poset(500, 1)
        rows = SignatureRows(p, decompose_poset(p)).rows
        union = next(u for a in range(12) for b in range(a + 1, 12)
                     for u in [[x | y for x, y in zip(rows[a], rows[b])]]
                     if len(p._topological_order(u)) < len(p))
        start = time.process_time()
        with pytest.raises(NotReversible) as err:
            p.linear_extension_reversing(rows=union)
        assert time.process_time() - start < 1.0
        cycle = err.value.cycle
        assert is_strict_alternating_cycle(p, cycle)
        assert all(union[p.index(x)] >> p.index(y) & 1 for x, y in cycle)

    def test_rows_reject_comparable_pair(self):
        with pytest.raises(PreconditionViolated, match=r"^\('v0', 'v1'\) is not an incomparable pair$"):
            chain(3).linear_extension_reversing(rows=[0b010, 0, 0])
        with pytest.raises(PreconditionViolated, match=r"^\('v0', 'v0'\) is not an incomparable pair$"):
            chain(3).linear_extension_reversing(rows=[0b001, 0, 0])

    def test_pairs_reject_unknown_or_comparable(self):
        # Named pairs reach the sort as rows: an unknown name fails on the way, and a
        # comparable pair or a pair of one element fails in the sort.
        c = chain(3)
        with pytest.raises(UnknownElement):
            c.linear_extension_reversing(rows_of_pairs(c, [("v0", "z")]))
        for pair in (("v0", "v2"), ("v1", "v1")):
            with pytest.raises(PreconditionViolated, match=r"^\(%r, %r\) is not an incomparable pair$" % pair):
                c.linear_extension_reversing(rows_of_pairs(c, [pair]))

    def test_rows_reject_bad_shape(self):
        with pytest.raises(PreconditionViolated, match="^expected 2 rows, got 1$"):
            antichain(2).linear_extension_reversing(rows=[0])
        with pytest.raises(PreconditionViolated, match="^row 0 names element index 2$"):
            antichain(2).linear_extension_reversing(rows=[0b100, 0])


def tw2_posets(max_n=30):
    "Small posets, ``random_tw2`` posets and forests."
    sizes = st.integers(min_value=1, max_value=max_n)
    seeds = st.integers(min_value=0, max_value=10 ** 6)
    return st.one_of(small_posets(max_n=8),
                     st.builds(random_tw2_poset, sizes, seeds),
                     st.builds(forest_poset, sizes, seeds))


def random_extension(p, data):
    "A linear extension of ``p`` drawn one minimal element at a time."
    down = p.closed_masks()[1]
    order, placed = [], 0
    while len(order) < len(p):
        ready = [e for i, e in enumerate(p.elements) if down[i] & ~placed == 1 << i]
        e = data.draw(st.sampled_from(ready))
        order.append(e)
        placed |= 1 << p.index(e)
    return order


class TestTopologicalOrderAgainstReference:
    "The parked-mask sort against Kahn's algorithm over one arc per pair."

    def check(self, p, rows):
        want = reference_topological_order(p, rows)
        assert p._topological_order(rows) == want
        if len(want) == len(p):
            assert p.linear_extension_reversing(rows=rows) == [p.elements[i] for i in want]
            return
        pairs = p.pairs_of_rows(rows)
        with pytest.raises(NotReversible) as by_rows:
            p.linear_extension_reversing(rows=rows)
        assert reference_witness_cycle(p, pairs) is not None
        assert is_strict_alternating_cycle(p, by_rows.value.cycle)
        assert set(by_rows.value.cycle) <= set(pairs)

    @settings(max_examples=150, deadline=None)
    @given(tw2_posets(), st.data())
    def test_arbitrary_rows(self, p, data):
        # Mostly not reversible: the truncated prefix must match too.
        masks = p.incomparable_masks()
        rows = [mask & data.draw(st.integers(min_value=0, max_value=mask)) for mask in masks]
        self.check(p, rows)

    @settings(max_examples=150, deadline=None)
    @given(tw2_posets(), st.data())
    def test_reversible_rows(self, p, data):
        # Pairs (x, y) with y before x in one extension are reversible.
        masks = p.incomparable_masks()
        placed = 0
        rows = [0] * len(p)
        for e in random_extension(p, data):
            i = p.index(e)
            mask = masks[i] & placed
            rows[i] = mask & data.draw(st.integers(min_value=0, max_value=mask))
            placed |= 1 << i
        self.check(p, rows)

    def test_every_lower_index_gives_ascending_order(self):
        a = antichain(300)
        rows = [(1 << x) - 1 for x in range(300)]
        assert a._topological_order(rows) == reference_topological_order(a, rows) == list(range(300))

    def test_every_higher_index_gives_descending_order(self):
        # Every element is parked again after each placement: the worst case
        # for parking on the highest bit.
        a = antichain(300)
        full = (1 << 300) - 1
        rows = [full ^ ((1 << (x + 1)) - 1) for x in range(300)]
        assert a._topological_order(rows) == reference_topological_order(a, rows) == list(range(299, -1, -1))

    def test_descending_with_gaps(self):
        # x waits on x + 2, x + 4, ...: the even elements are placed downward two
        # apart, then the odd ones, so no new highest bit is the one just below.
        a = antichain(300)
        rows = [sum(1 << y for y in range(x + 2, 300, 2)) for x in range(300)]
        want = list(range(298, -1, -2)) + list(range(299, 0, -2))
        assert a._topological_order(rows) == reference_topological_order(a, rows) == want

    def test_interleaved(self):
        # The even elements ascend while the odd ones descend, one heap between them.
        a = antichain(300)
        rows = [sum(1 << y for y in range(x % 2, x, 2)) if x % 2 == 0
                else sum(1 << y for y in range(x + 2, 300, 2)) for x in range(300)]
        assert a._topological_order(rows) == reference_topological_order(a, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.data())
    def test_mostly_downward_rows(self, n, data):
        # A target order that runs downward with local jitter, each element
        # waiting on a random subset of those before it: the midpoint parking
        # is taken often, and the order must still be Kahn's.
        jitter = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        target = sorted(range(n), key=lambda x: jitter[x] - x)
        rows, before = [0] * n, 0
        for x in target:
            rows[x] = before & data.draw(st.integers(min_value=0, max_value=before))
            before |= 1 << x
        a = antichain(n)
        assert a._topological_order(rows) == reference_topological_order(a, rows)

    def test_rechecks_n_log_n_on_antichain_classes(self):
        # Every recheck of a waiting element is one AND of its mask; a class
        # forcing placements downward took about n^2/2 of them when every
        # element parked on its highest unplaced bit (1.49 M at n = 2,000).
        n = 2000
        a = antichain(n)
        classes = [rows for rows in SignatureRows(a, decompose_poset(a)).rows if any(rows)]
        assert classes
        for rows in classes:
            ands = []

            class Mask(int):
                "An int counting in ``ands`` the ANDs taken of it; an OR keeps counting."

                def __or__(self, other):
                    return Mask(int(self) | other)

                def __and__(self, other):
                    ands.append(1)
                    return int(self) & other

            order = a._topological_order(list(map(Mask, rows)))
            assert order == a._topological_order(rows)
            assert len(ands) <= 4 * n * math.log2(n)

    def test_dense_class_allocates_nothing_per_pair(self):
        # About two million pairs: successor lists with one entry per pair
        # would take about 16 MB.
        a = antichain(2000)
        rows = [(1 << x) - 1 for x in range(2000)]
        tracemalloc.start()
        try:
            order = a.linear_extension_reversing(rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order == list(a.elements)
        assert peak < 4 * 1024 * 1024


class TestTranspose:
    "The tiled transpose against the per-bit loop."

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=70), st.integers(min_value=0, max_value=3), st.data())
    def test_small_matrices(self, n, extra, data):
        # n = 0, n = 1, n not a multiple of 8, and more rows than columns.
        m = data.draw(st.sampled_from([n, n + extra, max(0, n - extra)]))
        rows = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=m, max_size=m))
        assert transpose(rows, n) == reference_transpose(rows, n)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=1000, max_value=2200), st.integers(min_value=0, max_value=10**6))
    def test_across_tile_boundaries(self, n, seed):
        # Several 1,024-bit tiles, n rarely a multiple of the tile size: a few
        # random bits per row, plus a full first row and a full last column.
        rng = random.Random(seed)
        rows = [sum(1 << rng.randrange(n) for _ in range(4)) | 1 << (n - 1) for _ in range(n)]
        rows[0] = (1 << n) - 1
        assert transpose(rows, n) == reference_transpose(rows, n)

    @pytest.mark.parametrize("n", [1024, 1025, 2048])
    def test_tile_multiples_and_one_past(self, n):
        rng = random.Random(n)
        rows = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        assert transpose(rows, n) == reference_transpose(rows, n)


class TestSortAndRowCheck:
    def test_parking_allocates_no_list_per_element(self):
        # An antichain with empty rows: every element goes straight to the
        # heap, so what the sort allocates is its per-element bookkeeping
        # (about 73 B, the order included).  A list per element would cost
        # 56 B more, and the incomparable rows, which empty rows need not
        # be checked against, about 2,500 B; the bound refuses both.
        n = 20000
        a = antichain(n)
        tracemalloc.start()
        try:
            order = a.canonical_extension()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order == list(a.elements)
        assert peak < 96 * n

    def test_first_bad_row_is_named(self):
        # The one-pass check fails on both row sets; the error is the one of
        # the first bad row, as a row-by-row check would give.
        p = Poset("abc", [("a", "b")])
        with pytest.raises(PreconditionViolated, match="^row 1 names element index 7$"):
            p.linear_extension_reversing(rows=[0, 1 << 7, 1 << 2])
        with pytest.raises(PreconditionViolated, match=r"^\('a', 'b'\) is not an incomparable pair$"):
            p.linear_extension_reversing(rows=[1 << 1, 1 << 7, 0])

    def test_incomparable_rows_computed_once_and_shared_with_dual(self):
        p = random_tw2_poset(40, 3)
        inc = p.incomparable_masks()
        assert p.incomparable_masks() is inc
        assert p.dual().incomparable_masks() is inc
        assert inc == Poset(p.elements, covers(p)).incomparable_masks()


class TestIncomparableMasks:
    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_masks_match_pairs(self, p):
        pairs = p.incomparable_pairs()
        assert p.pairs_of_rows(p.incomparable_masks()) == pairs
        assert p.incomparable_count() == len(pairs)


@st.composite
def shuffled_chains(draw, max_n=12):
    "Chains whose elements are declared in a random order, so downset size is not the index."
    n = draw(st.integers(min_value=0, max_value=max_n))
    names = ["e%d" % i for i in range(n)]
    ranked = draw(st.permutations(names))
    return Poset(names, zip(ranked, ranked[1:]))


def assert_chain_path_agrees(p):
    """The incomparable rows equal ``full ^ (above | below | 1 << i)``, and the canonical
    extension equals the class sort's with no pair to reverse, the heap path."""
    full = (1 << len(p)) - 1
    assert p.incomparable_masks() == tuple(full ^ (above | below | 1 << i)
                                           for i, (above, below) in enumerate(zip(p._above, p._below)))
    assert p.canonical_extension() == p.linear_extension_reversing([0] * len(p))


class TestChainRecognition:
    # A poset with no incomparable pair is told from its downset sizes; its rows
    # are n zeros and its one extension is a sort on the sizes.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_posets(max_n=8), shuffled_chains(), shuffled_chains().map(Poset.dual),
                     tw2_posets(max_n=20)))
    def test_matches_full_pass_and_heap_sort(self, p):
        assert_chain_path_agrees(p)

    @pytest.mark.parametrize("p", [
        Poset([]), Poset(["a"]), Poset("ab"), Poset("ab", [("a", "b")]), Poset("ab", [("b", "a")]),
        Poset("abc", [("a", "b"), ("a", "c")]), Poset("abc", [("c", "a"), ("b", "a")]),
        chain(2), chain(2000), chain(2000).dual(), antichain(300), standard_example(6),
        random_tw2_poset(300, 3), forest_poset(300, 2),
    ], ids=["empty", "one", "two-incomparable", "two-comparable", "two-declared-downward",
            "bottom-below-two", "two-below-top", "chain-2", "chain-2000", "chain-2000-dual",
            "antichain-300", "standard-example-6", "random_tw2-300", "forest-300"])
    def test_families_and_edge_cases(self, p):
        assert_chain_path_agrees(p)

    def test_chain_needs_no_class_sort(self, monkeypatch):
        def no_sort(self, rows):
            raise AssertionError("the class sort ran on a chain")

        monkeypatch.setattr(Poset, "_topological_order", no_sort)
        c = chain(500)
        realizer = realize_tw2(c)
        assert realizer.orders() == [c.elements]
        assert c.verify_realizer(realizer.orders())
        result = dimension_exact(chain(50))
        assert result.dimension == 1 and result.witness == [list(chain(50).elements)]


class TestVerifyRealizer:
    @settings(max_examples=80, deadline=None)
    @given(small_posets(max_n=6), st.data())
    def test_matches_per_pair_check(self, p, data):
        # Prefix masks against positions, pair by pair.  Orders are lists over the
        # names plus an unknown one, of length 0..n+2, or permutations and linear
        # extensions with one name appended, dropped or replaced, or not, so
        # duplicates, missing and unknown names and wrong lengths all occur; the
        # family may be empty.
        names = list(p.elements) + ["zz"]
        extension = list(reversed(p.dual().canonical_extension()))
        exts = []
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                exts.append(data.draw(st.lists(st.sampled_from(names), max_size=len(p) + 2)))
                continue
            ext = data.draw(st.sampled_from([extension, None])) or data.draw(st.permutations(p.elements))
            at, name = data.draw(st.integers(0, len(p) - 1)), data.draw(st.sampled_from(names))
            exts.append(data.draw(st.sampled_from([
                ext, ext + [name], ext[:at] + ext[at + 1:], ext[:at] + [name] + ext[at + 1:]])))
        want = reference_realizer_violations(p, exts)
        assert p.realizer_violations(exts) == want
        assert p.verify_realizer(exts) == (not want)

    def test_failed_walk_reverses_nothing(self):
        # "a c c" places c after a before the duplicate fails the walk: (c, a) stays unreversed.
        p = Poset("abc", [("a", "b")])
        assert p.realizer_violations([["a", "c", "c"]]) == (
            ["order 0 is not a linear extension of the poset"]
            + ["incomparable pair (%s, %s) is reversed by no extension" % pair for pair in p.incomparable_pairs()])

    def test_empty_family_is_not_a_realizer(self):
        c = chain(3)
        assert c.realizer_violations([]) == ["realizer has no extensions"]
        assert not c.verify_realizer([])
        assert antichain(2).realizer_violations([]) == [
            "realizer has no extensions",
            "incomparable pair (v0, v1) is reversed by no extension",
            "incomparable pair (v1, v0) is reversed by no extension"]
        empty = Poset([])
        assert empty.realizer_violations([]) == ["realizer has no extensions"]
        assert empty.verify_realizer([[]])

    @pytest.mark.parametrize("make, n, seed", [
        (random_tw2_poset, 200, 1), (random_tw2_poset, 200, 2), (forest_poset, 300, 1), (forest_poset, 300, 2),
    ], ids=["random_tw2-200-1", "random_tw2-200-2", "forest-300-1", "forest-300-2"])
    def test_realized_family_and_dropped_extensions(self, make, n, seed):
        p = make(n, seed)
        exts = realize_tw2(p).orders()
        assert p.realizer_violations(exts) == []
        for k in (0, len(exts) - 1):
            rest = exts[:k] + exts[k + 1:]
            want = reference_realizer_violations(p, rest)
            assert want  # these instances need every extension
            assert p.realizer_violations(rest) == want

    def test_chain_single(self):
        c = chain(3)
        assert c.verify_realizer([list(c.elements)])

    @pytest.mark.parametrize("order", [
        ["v0", "v1", "v1", "v2"],  # duplicated element
        ["v0", "v1", "v1"],  # duplicated element in place of a missing one
        ["v0", "v1"],  # missing element
        ["v0", "v1", "v2", "v3"],  # unknown name after every element
        ["v0", "v1", "w"],  # unknown name in place of an element
        ["v0", "v2", "v1"],  # inverted cover
        ["v2", "v1", "v0"],  # every cover inverted
    ])
    def test_rejects_non_extensions(self, order):
        c = chain(3)
        assert not reference_is_linear_extension(c, order)
        assert c.realizer_violations([list(c.elements), order]) == [
            "order 1 is not a linear extension of the poset"]

    @settings(max_examples=60, deadline=None)
    @given(small_posets(max_n=6), st.data())
    def test_extension_check_matches_reference(self, p, data):
        names = list(p.elements) + ["zz"]
        order = data.draw(st.lists(st.sampled_from(names), max_size=len(p) + 2))
        for candidate in (order, data.draw(st.permutations(p.elements))):
            assert p.realizer_violations([candidate]) == reference_realizer_violations(p, [candidate])

    def test_two_antichain(self):
        a = antichain(2)
        assert a.verify_realizer([["v0", "v1"], ["v1", "v0"]])
        assert not a.verify_realizer([["v0", "v1"]])

    def test_malformed_is_false_with_diagnostics(self):
        c = chain(3)
        problems = c.realizer_violations([["v0", "v1"]])
        assert problems
        assert not c.verify_realizer([["v0", "v1"]])


class TestPartitionRealizes:
    @settings(max_examples=30, deadline=None)
    @given(small_posets(max_n=6))
    def test_any_reversible_partition_yields_realizer(self, p):
        # first-fit partition of the incomparable pairs into reversible sets;
        # one extension per part must then realize the poset
        parts = []
        for pair in p.incomparable_pairs():
            for part in parts:
                if is_reversible(p, part + [pair]):
                    part.append(pair)
                    break
            else:
                parts.append([pair])
        extensions = [p.linear_extension_reversing(rows_of_pairs(p, part)) for part in parts]
        if not extensions:
            extensions = [p.canonical_extension()]
        assert p.verify_realizer(extensions)


class TestDual:
    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_involution(self, p):
        assert p.dual().dual() == p

    def test_chain_reversed(self):
        c = chain(3)
        assert c.dual().canonical_extension() == ["v2", "v1", "v0"]

    def test_standard_example_self_dual(self):
        for n in (2, 3):
            sn = standard_example(n)
            swap = {}
            for i in range(1, n + 1):
                swap["a%d" % i] = "b%d" % i
                swap["b%d" % i] = "a%d" % i
            d = sn.dual()
            relabeled = Poset(sn.elements,
                              [(swap[x], swap[y]) for x, y in covers(d)])
            assert relabeled == sn

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_same_cover_graph(self, p):
        assert p.cover_graph() == p.dual().cover_graph()

    @pytest.mark.parametrize("p", [random_tw2_poset(300, 4), forest_poset(300, 2), kelly(3)],
                             ids=["random_tw2", "forest", "kelly"])
    def test_covers_reversed_and_rows_restored(self, p):
        # dual() transposes the upper covers, the only cover rows a poset keeps.
        index = p.index
        reversed_covers = sorted(((y, x) for x, y in covers(p)), key=lambda c: (index(c[0]), index(c[1])))
        assert reversed_covers and covers(p.dual()) == reversed_covers
        assert p.dual().dual() == p
        assert closure_rows(p.dual().dual()) == closure_rows(p)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_posets(max_n=12), st.integers(1, 40).map(chain), st.integers(1, 40).map(antichain)))
    def test_text_holds_covers_reversed(self, p):
        header, *lines = dumps(p).splitlines()
        dual_header, *dual_lines = dumps(p.dual()).splitlines()
        assert dual_header == header
        assert sorted(dual_lines) == sorted("%s < %s" % tuple(line.split(" < ")[::-1]) for line in lines)
        assert p.dual().dual()._cover_up == p._cover_up


class TestCoverGraph:
    def test_same_as_graph_of_covers_on_corpus(self):
        for seed, n in CORPUS:
            p = random_tw2_poset(n, seed)
            g = p.cover_graph()
            want = Graph(p.elements, covers(p))
            assert g == want
            assert g.adjacency() == want.adjacency()
            assert g.index_edges() == want.index_edges()
            assert all(g.index(u) < g.index(v) for u, v in g.edges)

    def test_chain_is_path(self):
        g = chain(4).cover_graph()
        assert len(g.edges) == 3
        assert all(len(nb) <= 2 for nb in g.adjacency())

    def test_antichain_edgeless(self):
        assert antichain(3).cover_graph().edges == frozenset()

    def test_s3_is_bipartite_complement_of_matching(self):
        g = standard_example(3).cover_graph()
        assert len(g.edges) == 6
        for i in range(1, 4):
            for j in range(1, 4):
                assert has_edge(g, "a%d" % i, "b%d" % j) == (i != j)


class TestTextFormat:
    def test_round_trip(self):
        for p in (chain(4), antichain(3), standard_example(3)):
            assert loads(dumps(p)) == p

    def test_names_that_would_not_round_trip_are_refused(self):
        # "#a < b" reads back as a comment and "elements:x < b" as a second header.
        for name in ("#a", "elements:x", "elements:"):
            with pytest.raises(UnknownElement, match="starts with '#' or 'elements:'"):
                Poset([name, "b"], [(name, "b")])
            with pytest.raises(ParseError, match="starts with '#' or 'elements:'") as err:
                loads("# c\nelements: %s b\n" % name)
            assert err.value.line == 2
        p = Poset(["a#", "b", "x-elements:", "caf\u00e9", "bell\x07"], [("a#", "b")])
        assert loads(dumps(p)) == p

    @pytest.mark.parametrize("name", ["a b", "", "x\u2028y", "\t", "c\n", "d\x1c"])
    def test_empty_or_whitespace_names_are_refused(self, name):
        # Written back, "a b" would read as two elements, "" as none, and
        # "x\u2028y" would break its line in two.
        with pytest.raises(UnknownElement, match="empty or holds whitespace"):
            Poset(["z", name], [("z", name)])

    @pytest.mark.parametrize("name", [1, None, b"a"], ids=["int", "none", "bytes"])
    def test_names_that_are_not_strings_are_refused(self, name):
        # A library caller gets the package's own error, not an AttributeError
        # from reading the name as text.
        with pytest.raises(UnknownElement, match="is not a string"):
            Poset(["z", name], [("z", name)])

    @pytest.mark.parametrize("relations", ["", "v0 < v1\n", "v0 <\n"], ids=["none", "fast-path", "line-path"])
    def test_header_above_max_n_is_refused_before_the_closure(self, relations, monkeypatch):
        # Both parse paths count the header's names before anything else, so
        # the closure never runs (without the guard, realize then took about a minute).
        def closure_runs(*args):
            raise AssertionError("the closure ran")

        monkeypatch.setattr(Poset, "_close", closure_runs)
        text = "elements: %s\n%s" % (" ".join("v%d" % i for i in range(MAX_N + 1)), relations)
        message = "%d elements are above the largest poset size, %d" % (MAX_N + 1, MAX_N)
        with pytest.raises(TooLarge, match=message):
            loads(text)

    def test_header_of_max_n_names_is_accepted(self):
        assert len(loads("elements: %s\n" % " ".join("v%d" % i for i in range(MAX_N)))) == MAX_N

    def test_comments_and_blanks(self):
        p = loads("# hi\n\nelements: a b\n# more\na < b\n")
        assert less(p, "a", "b")

    def test_malformed_relation_line(self):
        with pytest.raises(ParseError) as err:
            loads("elements: a b\na <\n")
        assert err.value.line == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            loads("elements: a b\na < z\n")
        assert err.value.line == 2

    def test_missing_elements_line(self):
        with pytest.raises(ParseError):
            loads("a < b\n")

    def test_duplicate_identifiers(self):
        with pytest.raises(ParseError, match="duplicate identifiers"):
            loads("elements: a b a\na < b\n")
        with pytest.raises(ParseError) as err:
            loads("elements: a b a\na < b\nb < z\n")
        assert err.value.line == 3  # an unknown element is reported first
        with pytest.raises(ParseError, match="duplicate identifiers") as err:
            loads("# c\n\nelements: a a b\na < b\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("text", [
        "# c\n\n  \nelements: a b\na < b\n",
        "elements: a b\r\na < b\r\n\r\n",
        "elements: a b\n  \t\na\t<  b   \n",
        "elements:a b\na < b\n",
        "elements: a b\na < b\nelements: a b\n",
        "elements: elements: b\nelements: < b\n",
        "elements: #a b\nb < #a\n#a < b\n",
        "elements: a b\na b\n",
        "elements: a b\na < b c\n",
        "elements: a b\nz < b\n",
        "elements: a b\na < z\n",
        "elements: a b a\na < b\n",
        "elements: a b a\nb < z\n",
        "elements: a b\na < b\nb < a\n",
        "a < b\nelements: a b\n",
        "# only a comment\n",
        "",
    ])
    def test_matches_reference_parser(self, text):
        assert parse_outcome(loads, text) == parse_outcome(reference_loads, text)

    @settings(max_examples=400, deadline=None)
    @given(poset_texts())
    def test_matches_reference_parser_on_random_text(self, text):
        assert parse_outcome(loads, text) == parse_outcome(reference_loads, text)

    def test_writer_round_trips_generated_text(self):
        for p in (random_tw2_poset(60, 3), forest_poset(40, 1), chain(30), Poset([])):
            text = dumps(p)
            assert text == reference_dumps(p)
            assert dumps(loads(text)) == text
        assert dumps(Poset([])) == "elements: \n"

    def test_cli_cycle_is_cycle_error(self):
        with pytest.raises(CycleError):
            loads("elements: a b\na < b\nb < a\n")
