import pytest
from hypothesis import given, settings, strategies as st

from spdim.errors import BadParameter, Exceeded, TooLarge
from spdim.exactdim import dimension_exact
from spdim.generators import antichain, chain, kelly, random_tw2_poset, standard_example
from spdim.poset import Poset

from oracles import brute_dimension, contains_standard_example, is_reversible, less


class TestDimension:
    def test_standard_examples(self):
        for n in (2, 3, 4):
            assert dimension_exact(standard_example(n), cap=100).dimension == n

    def test_chain_is_one(self):
        result = dimension_exact(chain(5))
        assert result.dimension == 1
        assert result.parts == []
        assert result.witness == [list(chain(5).elements)]

    def test_singleton_and_empty(self):
        assert dimension_exact(Poset("x", [])).dimension == 1
        empty = dimension_exact(Poset([], []))
        assert empty.dimension == 1
        assert empty.witness == [[]]

    def test_antichain(self):
        assert dimension_exact(antichain(2)).dimension == 2
        assert dimension_exact(antichain(4)).dimension == 2

    def test_witness_realizes(self):
        for n in (2, 3):
            p = standard_example(n)
            result = dimension_exact(p, cap=100)
            assert p.verify_realizer(result.witness)
            assert len(result.witness) == result.dimension
            covered = [pair for part in result.parts for pair in part]
            assert sorted(covered) == sorted(p.incomparable_pairs())

    def test_parts_are_reversible_and_minimal(self):
        p = standard_example(3)
        result = dimension_exact(p, cap=100)
        for part in result.parts:
            assert is_reversible(p, part)
        # dropping any part must uncover some pair
        for k in range(len(result.witness)):
            rest = result.witness[:k] + result.witness[k + 1:]
            assert not p.verify_realizer(rest)

    def test_exceeded(self):
        with pytest.raises(Exceeded):
            dimension_exact(standard_example(4), max_d=3, cap=100)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            dimension_exact(antichain(10), cap=10)

    @pytest.mark.parametrize("poset", [chain(3), antichain(3)], ids=["chain", "antichain"])
    @pytest.mark.parametrize("bounds", [{"max_d": 0}, {"max_d": -3}, {"cap": -1}])
    def test_impossible_bounds_refused(self, poset, bounds):
        with pytest.raises(BadParameter):
            dimension_exact(poset, **bounds)

    def test_least_bounds_accepted(self):
        assert dimension_exact(chain(3), max_d=1, cap=0).dimension == 1
        with pytest.raises(Exceeded):
            dimension_exact(antichain(3), max_d=1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, n, seed):
        p = random_tw2_poset(n, seed)
        assert dimension_exact(p, cap=100).dimension == brute_dimension(p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_search_backtracks_to_the_least_partition(self, n, data):
        # Random orders, not only treewidth-2 ones, so the search backtracks:
        # the result is a least partition of Inc into parts, each reversed by
        # its own witness extension.
        names = ["e%d" % i for i in range(n)]
        p = Poset(names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                          if data.draw(st.booleans())])
        result = dimension_exact(p, cap=100)
        assert result.dimension == brute_dimension(p)
        assert sorted(pair for part in result.parts for pair in part) == p.incomparable_pairs()
        for part, ext in zip(result.parts, result.witness):
            pos = {e: k for k, e in enumerate(ext)}
            assert p.is_linear_extension(ext)
            assert all(pos[y] < pos[x] for x, y in part)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_dual_has_same_dimension(self, n, seed):
        p = random_tw2_poset(n, seed)
        assert dimension_exact(p, cap=100).dimension == dimension_exact(p.dual(), cap=100).dimension

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6),
           st.data())
    def test_subposet_monotone(self, n, seed, data):
        p = random_tw2_poset(n, seed)
        keep = data.draw(st.lists(st.sampled_from(list(p.elements)),
                                  min_size=1, unique=True))
        keep_set = set(keep)
        sub_elements = [e for e in p.elements if e in keep_set]
        rels = [(x, y) for x in sub_elements for y in sub_elements
                if x != y and less(p, x, y)]
        sub = Poset(sub_elements, rels)
        assert dimension_exact(sub, cap=100).dimension <= dimension_exact(p, cap=100).dimension


class TestContainsStandardExample:
    def test_standard_contains_smaller(self):
        for n in (2, 3, 4):
            sn = standard_example(n)
            for k in range(2, n + 1):
                assert contains_standard_example(sn, k)

    def test_kelly_contains(self):
        for n in (2, 3, 4):
            assert contains_standard_example(kelly(n), n)

    def test_chain_contains_none(self):
        assert not contains_standard_example(chain(6), 2)

    def test_no_larger_inside_smaller(self):
        assert not contains_standard_example(standard_example(2), 3)

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            contains_standard_example(chain(2), 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_dimension_bounds_containment(self, n, seed):
        p = random_tw2_poset(n, seed)
        if contains_standard_example(p, 3):
            assert dimension_exact(p, cap=100).dimension >= 3
