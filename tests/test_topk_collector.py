"""Regression tests for the top-k collector's heap discipline.

Two defects the serving layer would have amplified:

* **duplicate heap entries** — ``emit`` pushed every call as its own
  entry, so an itemset reachable via several prefix paths (or re-emitted
  by an enumerator) occupied multiple heap slots, crowding distinct
  itemsets out of the top k;
* **order-dependent tie survivorship** — at the full-heap boundary, a
  candidate tying the minimum support was always rejected, so whichever
  equal-support itemset a miner happened to discover first survived.
  Tree- and array-order enumerations of the same database could then
  report different k-sets, which breaks the server's "identical to direct
  calls" contract.

The collector-level tests drive ``emit`` directly (the failing-first
datasets); the property tests hold the tree and array miners to the same
canonical answer: the k largest itemsets under ``(support desc, ranks
asc)`` over the full enumeration.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bruteforce import brute_force
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import fp_growth
from repro.mining import mine_top_k, top_k_itemsets
from repro.mining.topk import _TopKCollector
from repro.streaming import CountingPhase
from repro.util.items import prepare_transactions
from tests.conftest import db_strategy, random_database


class TestDuplicateEmissions:
    def test_duplicate_itemset_occupies_one_slot(self):
        # k=2 and three candidates; the best one is emitted twice (the
        # multiple-prefix-path shape). With duplicate heap entries the
        # second slot holds the duplicate and the runner-up is lost.
        collector = _TopKCollector(k=2, min_length=1, floor=1)
        collector.emit((1,), 10)
        collector.emit((1,), 10)  # same itemset via another path
        collector.emit((2,), 7)
        collector.emit((3,), 5)
        assert collector.results() == [((1,), 10), ((2,), 7)]

    def test_unsorted_rank_aliases_are_one_itemset(self):
        collector = _TopKCollector(k=2, min_length=1, floor=1)
        collector.emit((2, 1), 9)
        collector.emit((1, 2), 9)  # the same itemset, unnormalized
        collector.emit((3,), 4)
        assert collector.results() == [((1, 2), 9), ((3,), 4)]

    def test_reemission_after_eviction_stays_out(self):
        collector = _TopKCollector(k=1, min_length=1, floor=1)
        collector.emit((5,), 3)
        collector.emit((1,), 8)  # evicts (5,)
        collector.emit((5,), 3)  # re-emission of the evicted itemset
        assert collector.results() == [((1,), 8)]


class TestTieDeterminism:
    CANDIDATES = [((3,), 6), ((1, 2), 6), ((4,), 6), ((2,), 9)]

    def test_boundary_ties_are_emission_order_independent(self):
        # k=2: {2} always wins; among the support-6 ties the canonical
        # order keeps (1, 2). The old first-come boundary kept whichever
        # tie was emitted before the heap filled.
        expected = [((2,), 9), ((1, 2), 6)]
        for order in itertools.permutations(self.CANDIDATES):
            collector = _TopKCollector(k=2, min_length=1, floor=1)
            for ranks, support in order:
                collector.emit(ranks, support)
            assert collector.results() == expected, f"order {order}"

    def test_results_ordering_pins_prefix_ties(self):
        # (1,) vs (1, 2): results() must order the shorter tuple first on
        # equal support, and the boundary comparison must agree with it.
        collector = _TopKCollector(k=2, min_length=1, floor=1)
        collector.emit((1, 2), 5)
        collector.emit((1,), 5)
        assert collector.results() == [((1,), 5), ((1, 2), 5)]


def canonical_top_k(database, k, min_length=1):
    """The spec: full enumeration, then the k best under (support, ranks)."""
    table, transactions = prepare_transactions(database, 1)
    all_itemsets = fp_growth(database, 1)
    ranked = []
    for itemset, support in all_itemsets:
        ranks = tuple(sorted(table.rank_of[item] for item in itemset))
        if len(ranks) >= min_length:
            ranked.append((ranks, support))
    ranked.sort(key=lambda e: (-e[1], e[0]))
    return ranked[:k]


class TestTreeArrayParity:
    @settings(max_examples=40, deadline=None)
    @given(db_strategy, st.integers(min_value=1, max_value=12))
    def test_tree_and_array_miners_agree_with_spec(self, database, k):
        table, transactions = prepare_transactions(database, 1)
        if not table:
            return
        array = convert(
            TernaryCfpTree.from_rank_transactions(transactions, len(table))
        )
        expected = canonical_top_k(database, k)
        assert mine_top_k(array, k) == expected
        tree_results = [
            (tuple(sorted(table.rank_of[i] for i in itemset)), support)
            for itemset, support in top_k_itemsets(database, k)
        ]
        tree_results.sort(key=lambda e: (-e[1], e[0]))
        assert tree_results == expected

    @settings(max_examples=20, deadline=None)
    @given(db_strategy, st.integers(min_value=1, max_value=8))
    def test_array_miner_honors_min_length(self, database, k):
        table, transactions = prepare_transactions(database, 1)
        if not table:
            return
        array = convert(
            TernaryCfpTree.from_rank_transactions(transactions, len(table))
        )
        results = mine_top_k(array, k, min_length=2)
        assert results == canonical_top_k(database, k, min_length=2)
        assert all(len(ranks) >= 2 for ranks, __ in results)


def brute_top_k(rank_transactions, k):
    """The spec over rank transactions, from the brute-force oracle."""
    ranked = sorted(
        (tuple(sorted(ranks)), support)
        for ranks, support in brute_force(rank_transactions, 1)
    )
    ranked.sort(key=lambda e: -e[1])
    return ranked[:k]


class TestSeededThreshold:
    """With min_length 1 the bound starts at the k-th largest item support."""

    @settings(max_examples=40, deadline=None)
    @given(db_strategy, st.integers(min_value=1, max_value=14))
    def test_matches_brute_force(self, database, k):
        # Items are 0..9, so k reaches past the number of ranks.
        table, transactions = prepare_transactions(database, 1)
        if not table:
            return
        array = convert(
            TernaryCfpTree.from_rank_transactions(transactions, len(table))
        )
        assert mine_top_k(array, k) == brute_top_k(transactions, k)

    def test_frozen_table_window(self):
        # A streaming table is frozen over the whole stream, so within one
        # window the rank order is not the support order: here the stream
        # favours low items and the window high ones.
        stream = random_database(20, n_transactions=150)
        recent = [[11 - item for item in t] for t in random_database(21, n_transactions=50)]
        counting = CountingPhase()
        counting.add_batch(stream)
        counting.add_batch(recent)
        table = counting.finish(1)
        window = [sorted(table.rank_of[item] for item in t) for t in recent]
        array = convert(TernaryCfpTree.from_rank_transactions(window, len(table)))
        supports = [array.rank_support(rank) for rank in range(1, len(table) + 1)]
        assert supports != sorted(supports, reverse=True)
        for k in (1, 2, 3, 5, 8, 10, 30, 200):
            assert mine_top_k(array, k) == brute_top_k(window, k), k
