import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spdim import spembed
from spdim.errors import MalformedInstance, NotTreewidth2, PreconditionViolated
from spdim.generators import chain, forest_poset, generate, kelly, random_tw2_poset, standard_example
from spdim.poset import Poset, bits
from spdim.realizer import (
    ALL_CLASSES,
    PairClass,
    SignatureRows,
    decompose_poset,
    dumps_realizer,
    loads_realizer,
    metamorphic_check,
    realize_tw2,
)
from spdim.stdecomp import DecompNode, STDecomposition

from oracles import (
    ReferenceClassifier,
    is_reversible,
    reference_classification,
    reference_metamorphic_check,
)
from test_acceptance import CORPUS


def rows_for(seed, n):
    "The class rows of random_tw2_poset(n, seed), or None if it has no incomparable pair."
    p = random_tw2_poset(n, seed)
    if not p.incomparable_count():
        return None
    return SignatureRows(p, decompose_poset(p))


class TestSignatureSpace:
    def test_exactly_twelve(self):
        assert len(ALL_CLASSES) == 12
        assert len({cls for cls in ALL_CLASSES}) == 12
        assert sum(1 for cls in ALL_CLASSES if cls.kind == 1) == 4
        assert sum(1 for cls in ALL_CLASSES if cls.kind == 2) == 8

    def test_field_domains(self):
        with pytest.raises(ValueError):
            PairClass(1, 1)  # kind 1 needs the up component
        with pytest.raises(ValueError):
            PairClass(2, 1, up=1)
        for fields in (dict(kind=1, order=1, up=1, span=1), dict(kind=1, order=1, up=1, gate=2),
                       dict(kind=1, order=3, up=1), dict(kind=1, order=1, up=0),
                       dict(kind=2, order=1, span=1), dict(kind=2, order=1, span=3, gate=1),
                       dict(kind=2, order=0, span=1, gate=1), dict(kind=3, order=1, up=1),
                       dict(kind=0, order=1, span=1, gate=1)):
            with pytest.raises(ValueError):
                PairClass(**fields)

    def test_checks_survive_optimized_mode(self):
        # Under python -O every assert is stripped; the field, middle and
        # parents-first checks must still raise.
        code = ("from spdim.realizer import PairClass\n"
                "from spdim.stdecomp import DecompNode, STDecomposition\n"
                "from spdim.errors import PreconditionViolated\n"
                "try:\n    PairClass(1, 1)\nexcept ValueError:\n    pass\n"
                "else:\n    raise SystemExit('PairClass accepted kind 1 without up')\n"
                "try:\n    DecompNode(0, None, None, None, (0, 1), 0, 1).middle\n"
                "except PreconditionViolated:\n    pass\n"
                "else:\n    raise SystemExit('middle of a size-2 bag')\n"
                "try:\n    STDecomposition([DecompNode(0, 1, None, None, (0, 1), 0, 1),\n"
                "                     DecompNode(1, None, 0, None, (0, 1), 0, 1)], 1, 'ab')\n"
                "except PreconditionViolated:\n    pass\n"
                "else:\n    raise SystemExit('parent id above its child id')\n")
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr + res.stdout

    def test_json_round_trip(self):
        for cls in ALL_CLASSES:
            assert PairClass.from_json(cls.to_json()) is cls


class TestClassification:
    def test_regression_fixture(self):
        # One covered pair a < b plus an isolated element c: four incomparable
        # ordered pairs, all of kind 1, worked out by hand on the emitted
        # decomposition (host path +s a b c +c1 +t).
        p = Poset("abc", [("a", "b")])
        assert SignatureRows(p, decompose_poset(p)).classification() == {
            ("a", "c"): PairClass(1, 1, up=2),
            ("b", "c"): PairClass(1, 1, up=2),
            ("c", "a"): PairClass(1, 2, up=1),
            ("c", "b"): PairClass(1, 2, up=1),
        }

    def test_order_component_antisymmetric(self):
        p = standard_example(3)
        classification = SignatureRows(p, decompose_poset(p)).classification()
        for (x, y), cls in classification.items():
            assert cls.order == 3 - classification[(y, x)].order

    def test_comparable_pair_has_no_class(self):
        p = standard_example(2)
        rows = SignatureRows(p, decompose_poset(p))
        assert rows.class_of(p.index("a1"), p.index("b2")) is None
        assert ("a1", "b2") not in rows.classification()

    def test_home_nodes_are_middles(self):
        p = random_tw2_poset(20, 3)
        rows = SignatureRows(p, decompose_poset(p))
        d = rows.decomp
        for x, w in zip(p.elements, rows.home):
            node = d.nodes[w]
            assert len(node.bag) == 3 and d.names[node.middle] == x

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=35), st.integers(min_value=0, max_value=10**6))
    def test_total_and_antisymmetric(self, n, seed):
        rows = rows_for(seed, n)
        if rows is None:
            return
        classification = rows.classification()
        assert set(classification) == set(rows.poset.incomparable_pairs())
        for (x, y), cls in classification.items():
            assert cls.order == 3 - classification[(y, x)].order


def _all_pairs_incomparable(self):
    "Stand-in for Poset.incomparable_masks that lists every ordered pair x != y."
    n = len(self.elements)
    return [((1 << n) - 1) & ~(1 << i) for i in range(n)]


def _reference_outcome(poset, decomp, pairs):
    "The reference's classes of ``pairs``, or the message of its first failure."
    classifier = ReferenceClassifier(poset, decomp)
    out = {}
    for x, y in pairs:
        try:
            out[(x, y)] = classifier.classify(x, y)
        except MalformedInstance as exc:
            return str(exc)
    return out


class TestRowsMatchReference:
    """The 12 class rows against the per-pair reference classifier."""

    def test_acceptance_corpus(self):
        for seed, n in CORPUS:
            p = random_tw2_poset(n, seed)
            rows = SignatureRows(p, decompose_poset(p))
            assert rows.classification() == reference_classification(p, rows.decomp), (seed, n)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["random_tw2", "forest"]), st.integers(min_value=2, max_value=60),
           st.integers(min_value=0, max_value=10**6))
    def test_families_transforms_and_duals(self, family, n, seed):
        p = generate(family, n, seed)
        decomp = decompose_poset(p)
        for d in (decomp, decomp.reverse(), decomp.swap_size2_children()):
            for q in (p, p.dual()):
                assert SignatureRows(q, d).classification() == reference_classification(q, d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    def test_foreign_decomposition(self, n, seed_a, seed_b):
        # One poset classified against another's decomposition of the same
        # ground set: classes and terminal-pair conflicts still agree.
        q = forest_poset(n, seed_b) if seed_b % 2 else random_tw2_poset(n, seed_b)
        d = decompose_poset(random_tw2_poset(n, seed_a))
        rows = SignatureRows(q, d)
        assert rows.classification() == reference_classification(q, d)
        ref = ReferenceClassifier(q, d)
        got = {(q.elements[x], q.elements[y])
               for x, ys in rows.terminal_pair_conflicts() for y in bits(ys)}
        assert got == {(x, y) for x, y in q.incomparable_pairs()
                       if ref.terminal_pair_conflict(x, y)}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
    def test_malformed_checks_match(self, n, seed):
        # The gate check cannot fail on incomparable pairs, so classify every
        # ordered pair x != y: the row classifier must raise on the same
        # first pair as the reference, or agree with it on all pairs.
        p = random_tw2_poset(n, seed)
        d = decompose_poset(p)
        pairs = [(x, y) for x in p.elements for y in p.elements if x != y]
        want = _reference_outcome(p, d, pairs)
        mp = pytest.MonkeyPatch()
        mp.setattr(Poset, "incomparable_masks", _all_pairs_incomparable)
        try:
            got = SignatureRows(p, d).classification()
        except MalformedInstance as exc:
            got = str(exc)
        finally:
            mp.undo()
        assert got == want

    def test_least_node_without_middle(self):
        # a's least node is a size-2 leaf: both classifiers refuse it.
        p = Poset("ab", [])
        d = STDecomposition([DecompNode(0, None, None, None, (0, 1), 0, 1)], 0, "ab")
        with pytest.raises(MalformedInstance, match="middle vertex"):
            SignatureRows(p, d)
        with pytest.raises(MalformedInstance, match="middle vertex"):
            ReferenceClassifier(p, d)


    def test_pairs_of_rows_on_class_rows(self):
        # The listing without a step per pair against the bits() comprehension.
        for seed, n in CORPUS[:40]:
            p = random_tw2_poset(n, seed)
            names = p.elements
            for row in SignatureRows(p, decompose_poset(p)).rows:
                assert p.pairs_of_rows(row) == [(names[i], names[j])
                                                for i, ys in enumerate(row) for j in bits(ys)]

    def test_decomposition_of_other_elements(self):
        # Element i is vertex id i, so a decomposition whose first vertices
        # are not the poset's elements is refused.
        d = decompose_poset(Poset("xyz", [("x", "y")]))
        with pytest.raises(MalformedInstance, match="first vertices"):
            SignatureRows(Poset("abc", [("a", "b")]), d)


@pytest.mark.parametrize("bag, s, t", [((0, 0, 1), 0, 1), ((1, 0, 0), 1, 0)])
def test_least_node_repeating_a_terminal(bag, s, t):
    # A size-3 bag laid out as (s, a, t) but with a a terminal has no middle:
    # both classifiers refuse it.
    p = Poset("a", [])
    d = STDecomposition([DecompNode(0, None, None, None, bag, s, t)], 0, "ab")
    with pytest.raises((PreconditionViolated, MalformedInstance)):
        SignatureRows(p, d)
    with pytest.raises((PreconditionViolated, MalformedInstance)):
        ReferenceClassifier(p, d)


class TestRealizePath:
    def test_no_per_pair_work(self, monkeypatch):
        # The realize path walks rows: no lca call.
        def forbidden(*args, **kwargs):
            raise AssertionError("per-pair step on the realize path")

        monkeypatch.setattr(STDecomposition, "lca", forbidden)
        p = forest_poset(60, 4)
        r = realize_tw2(p)
        assert p.verify_realizer(r.orders())

    def test_treewidth_tested_once(self, monkeypatch):
        # One reduction per component picks its terminals and tests its
        # treewidth; a component with no more edges than vertices needs none.
        # The graph is never tested again as a whole, and treewidth 3 is
        # refused with the same message.
        calls = []
        reduce = spembed._reduce

        def recorded(adj, keep=0):
            calls.append(keep)
            return reduce(adj, keep)

        monkeypatch.setattr(spembed, "_reduce", recorded)
        # Each random_tw2 poset is one component with more edges than
        # vertices; the chain and the forest's 44 components have none.
        for p, dense in ((random_tw2_poset(30, 5), 1), (random_tw2_poset(500, 1), 1),
                         (chain(50), 0), (forest_poset(200, 1), 0)):
            calls.clear()
            realize_tw2(p)
            assert calls == [2] * dense
        calls.clear()
        with pytest.raises(NotTreewidth2, match="^input graph has treewidth greater than 2$"):
            realize_tw2(kelly(3))
        assert calls == [2]

    def test_one_sort_per_class(self, monkeypatch):
        calls = []
        original = Poset.linear_extension_reversing

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("rows") is not None)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Poset, "linear_extension_reversing", counted)
        r = realize_tw2(random_tw2_poset(40, 2))
        assert calls == [True] * len(r)


class TestPartition:
    def test_chain_empty(self):
        # a chain has no pairs to partition; its class rows are still built
        p = chain(4)
        assert not any(map(any, SignatureRows(p, decompose_poset(p)).rows))

    def test_partition_covers_inc(self):
        # S4 and beyond leave the hypothesis class: their cover graphs
        # contain a K4 minor, so only orders 2 and 3 can be classified.
        for n in (2, 3):
            p = standard_example(n)
            rows = SignatureRows(p, decompose_poset(p))
            everything = [pair for row in rows.rows for pair in p.pairs_of_rows(row)]
            assert sorted(everything) == sorted(p.incomparable_pairs())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=35), st.integers(min_value=0, max_value=10**6))
    def test_every_class_reversible(self, n, seed):
        rows = rows_for(seed, n)
        if rows is None:
            return
        p = rows.poset
        for k, row in enumerate(rows.rows):
            if any(row):
                rows.extension(k)  # raises ReversibilityViolation on failure
                assert is_reversible(p, p.pairs_of_rows(row))


class TestCensus:
    def test_chain_all_zero(self):
        p = chain(5)
        assert SignatureRows(p, decompose_poset(p)).census() == [0] * len(ALL_CLASSES)

    def test_sums_to_inc(self):
        for n in (2, 3):
            p = standard_example(n)
            census = SignatureRows(p, decompose_poset(p)).census()
            assert sum(census) == len(p.incomparable_pairs())

    def test_fixture_census(self):
        p = Poset("abc", [("a", "b")])
        census = dict(zip(ALL_CLASSES, SignatureRows(p, decompose_poset(p)).census()))
        assert census[PairClass(1, 1, up=2)] == 2
        assert census[PairClass(1, 2, up=1)] == 2
        assert sum(census.values()) == 4


class TestRealize:
    def test_chain_single_extension(self):
        r = realize_tw2(chain(6))
        assert len(r) == 1
        assert r.extensions[0][0] is None

    def test_singleton_and_empty(self):
        assert len(realize_tw2(Poset("x", []))) == 1
        assert len(realize_tw2(Poset([], []))) == 1

    def test_standard_example_2(self):
        s2 = standard_example(2)
        r = realize_tw2(s2)
        assert 2 <= len(r) <= 12
        assert s2.verify_realizer(r.orders())

    def test_kelly2_dimension_four_instance(self):
        k2 = kelly(2)
        r = realize_tw2(k2)
        assert len(r) <= 12
        assert k2.verify_realizer(r.orders())

    def test_treewidth3_rejected(self):
        with pytest.raises(NotTreewidth2):
            realize_tw2(kelly(3))
        with pytest.raises(NotTreewidth2):
            realize_tw2(standard_example(4))

    def test_deterministic_output(self):
        p = random_tw2_poset(25, 42)
        assert dumps_realizer(realize_tw2(p)) == dumps_realizer(realize_tw2(p))

    def test_standard_example_3(self):
        s3 = standard_example(3)
        r = realize_tw2(s3)
        assert 3 <= len(r) <= 12
        assert s3.verify_realizer(r.orders())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=45), st.integers(min_value=0, max_value=10**6))
    def test_random_instances_verify(self, n, seed):
        p = random_tw2_poset(n, seed)
        r = realize_tw2(p)
        assert len(r) <= 12
        assert p.verify_realizer(r.orders())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.sampled_from([0.0, 0.15, 0.5, 0.85]))
    def test_density_sweep(self, n, seed, delete_prob):
        p = random_tw2_poset(n, seed, delete_prob=delete_prob)
        r = realize_tw2(p)
        assert len(r) <= 12
        assert p.verify_realizer(r.orders())

    def test_disjoint_union_of_instances(self):
        for seed in range(12):
            a = random_tw2_poset(1 + seed % 9, seed)
            b = random_tw2_poset(1 + (seed * 3) % 9, seed + 999)
            elements = list(a.elements) + ["u" + e for e in b.elements]
            rels = list(a.covers()) + [("u" + x, "u" + y) for x, y in b.covers()]
            p = Poset(elements, rels)
            r = realize_tw2(p)
            assert len(r) <= 12
            assert p.verify_realizer(r.orders())

    def test_exhaustive_small_posets(self):
        # every poset on up to 5 elements, labeled along a linear extension;
        # full pipeline, oracle comparison and transform checks on each
        from spdim.exactdim import dimension_exact

        seen = set()
        for n in range(1, 6):
            names = ["e%d" % i for i in range(n)]
            slots = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1 << len(slots)):
                rels = [slots[k] for k in range(len(slots)) if mask >> k & 1]
                p = Poset(names, rels)
                key = (n, p._above)
                if key in seen:
                    continue
                seen.add(key)
                r = realize_tw2(p)
                assert p.verify_realizer(r.orders())
                nonempty = sum(1 for cls, _ in r.extensions if cls is not None) or 1
                assert dimension_exact(p, cap=100).dimension <= nonempty
                if p.incomparable_count():
                    assert metamorphic_check(SignatureRows(p, decompose_poset(p))) == []


class TestMetamorphic:
    def test_no_pairs_empty_report(self):
        p = chain(3)
        assert metamorphic_check(SignatureRows(p, decompose_poset(p))) == []

    def test_fixture_dual_flip(self):
        # A kind-1 pair with up=2 classifies as (3-order, up=1) for the
        # mirrored pair in the dual poset under the same decomposition.
        p = Poset("abc", [("a", "b")])
        rows = SignatureRows(p, decompose_poset(p))
        dual_cls = SignatureRows(p.dual(), rows.decomp).classification()
        assert rows.classification()[("a", "c")] == PairClass(1, 1, up=2)
        assert dual_cls[("c", "a")] == PairClass(1, 2, up=1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=35), st.integers(min_value=0, max_value=10**6))
    def test_zero_violations(self, n, seed):
        rows = rows_for(seed, n)
        if rows is None:
            return
        assert metamorphic_check(rows) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6),
           st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=11)),
                    max_size=6))
    def test_reports_match_reference(self, n, seed, moves):
        # Move a few pairs to other classes, then compare the whole report,
        # order and wording included, with the per-pair reference check.
        sig = rows_for(seed, n)
        if sig is None:
            return
        rows = sig.rows
        names = sig.poset.elements
        pairs = sig.poset.incomparable_pairs()
        for pick, k in moves:
            x, y = (sig.poset.index(e) for e in pairs[pick % len(pairs)])
            for row in rows:
                row[x] &= ~(1 << y)
            rows[k][x] |= 1 << y
        base = {(names[x], names[y]): ALL_CLASSES[k] for k, row in enumerate(rows)
                for x, ys in enumerate(row) for y in bits(ys)}
        base = {pair: base[pair] for pair in pairs}
        want = reference_metamorphic_check(sig.poset, sig.decomp, base)
        assert metamorphic_check(sig) == want

    def test_standard_examples_zero_violations(self):
        for n in (2, 3):
            p = standard_example(n)
            assert metamorphic_check(SignatureRows(p, decompose_poset(p))) == []


class TestRealizerJson:
    def test_round_trip_s2(self):
        r = realize_tw2(standard_example(2))
        again = loads_realizer(dumps_realizer(r))
        assert again == r

    def test_round_trip_chain(self):
        r = realize_tw2(chain(3))
        again = loads_realizer(dumps_realizer(r))
        assert again == r

    def test_signature_with_extra_keys_loads_as_its_class(self):
        # Keys the signature's kind does not use are ignored, as before.
        for cls in ALL_CLASSES:
            sig = {**cls.to_json(), "note": "x", "span" if cls.kind == 1 else "up": 7}
            (got, ext), = loads_realizer(json.dumps([{"signature": sig, "extension": ["a"]}])).extensions
            assert got == cls and got is cls
            assert ext == ("a",)
