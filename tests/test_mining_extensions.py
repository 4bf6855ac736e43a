"""Tests for closed/maximal/top-k mining, rules, and sampling."""

import pytest
from hypothesis import given, settings

from repro.algorithms.bruteforce import brute_force
from repro.algorithms.sampling import SamplingMiner, sample_mine
from repro.errors import ExperimentError
from repro.mining import closed_itemsets, maximal_itemsets, top_k_itemsets
from repro.rules import Rule, generate_rules, mine_rules
from tests.conftest import db_strategy, normalize, random_database


def brute_closed(database, min_support):
    """Oracle: frequent itemsets with no equal-support strict superset."""
    frequent = normalize(brute_force(database, min_support))
    closed = {}
    for itemset, support in frequent.items():
        if not any(
            itemset < other and frequent[other] == support for other in frequent
        ):
            closed[itemset] = support
    return closed


def brute_maximal(database, min_support):
    """Oracle: frequent itemsets with no frequent strict superset."""
    frequent = normalize(brute_force(database, min_support))
    return {
        itemset: support
        for itemset, support in frequent.items()
        if not any(itemset < other for other in frequent)
    }


class TestClosed:
    def test_simple(self):
        db = [[1, 2], [1, 2], [1]]
        # {1} (3), {1,2} (2) are closed; {2} is not (same support as {1,2}).
        assert normalize(closed_itemsets(db, 1)) == {
            frozenset([1]): 3,
            frozenset([1, 2]): 2,
        }

    def test_matches_oracle_random(self):
        for seed in range(5):
            db = random_database(seed, n_transactions=40, n_items=8, max_length=6)
            assert normalize(closed_itemsets(db, 2)) == brute_closed(db, 2), seed

    @settings(max_examples=25, deadline=None)
    @given(db_strategy)
    def test_property_matches_oracle(self, database):
        assert normalize(closed_itemsets(database, 2)) == brute_closed(database, 2)

    def test_lossless_representation(self, small_db):
        # Any frequent itemset's support = max support among closed supersets.
        closed = normalize(closed_itemsets(small_db, 2))
        for itemset, support in normalize(brute_force(small_db, 2)).items():
            covering = [s for c, s in closed.items() if itemset <= c]
            assert max(covering) == support

    def test_empty(self):
        assert closed_itemsets([], 1) == []


class TestMaximal:
    def test_simple(self):
        db = [[1, 2, 3]] * 2 + [[1, 2]]
        assert normalize(maximal_itemsets(db, 2)) == {frozenset([1, 2, 3]): 2}

    def test_matches_oracle_random(self):
        for seed in range(5):
            db = random_database(seed, n_transactions=40, n_items=8, max_length=6)
            assert normalize(maximal_itemsets(db, 2)) == brute_maximal(db, 2), seed

    @settings(max_examples=25, deadline=None)
    @given(db_strategy)
    def test_property_matches_oracle(self, database):
        assert normalize(maximal_itemsets(database, 2)) == brute_maximal(
            database, 2
        )

    def test_maximal_subset_of_closed(self, small_db):
        maximal = set(normalize(maximal_itemsets(small_db, 2)))
        closed = set(normalize(closed_itemsets(small_db, 2)))
        assert maximal <= closed


class TestTopK:
    def test_returns_k_best(self, small_db):
        all_frequent = sorted(
            normalize(brute_force(small_db, 1)).items(),
            key=lambda e: -e[1],
        )
        top = top_k_itemsets(small_db, 5)
        assert len(top) == 5
        expected_supports = sorted((s for __, s in all_frequent), reverse=True)[:5]
        assert sorted((s for __, s in top), reverse=True) == expected_supports

    def test_k_larger_than_output(self):
        top = top_k_itemsets([[1, 2]], 100)
        assert len(top) == 3

    def test_min_length_filters(self, small_db):
        top = top_k_itemsets(small_db, 4, min_length=2)
        assert all(len(itemset) >= 2 for itemset, __ in top)
        # The best pairs by support:
        oracle = sorted(
            (
                (s, i)
                for i, s in normalize(brute_force(small_db, 1)).items()
                if len(i) >= 2
            ),
            reverse=True,
        )
        assert sorted((s for __, s in top), reverse=True) == [
            s for s, __ in oracle[:4]
        ]

    def test_ordering(self, small_db):
        top = top_k_itemsets(small_db, 6)
        supports = [s for __, s in top]
        assert supports == sorted(supports, reverse=True)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            top_k_itemsets([[1]], 0)
        with pytest.raises(ExperimentError):
            top_k_itemsets([[1]], 1, min_length=0)

    @settings(max_examples=20, deadline=None)
    @given(db_strategy)
    def test_property_supports_exact(self, database):
        for itemset, support in top_k_itemsets(database, 8):
            actual = sum(1 for t in database if set(itemset) <= set(t))
            assert actual == support


class TestRules:
    DB = [
        ["bread", "milk"],
        ["bread", "diapers", "beer"],
        ["milk", "diapers", "beer"],
        ["bread", "milk", "diapers", "beer"],
        ["bread", "milk", "diapers"],
    ]

    def test_confidence_and_lift(self):
        rules = mine_rules(self.DB, min_support=2, min_confidence=0.9)
        by_pair = {
            (r.antecedent, r.consequent): r for r in rules
        }
        rule = by_pair[(("beer",), ("diapers",))]
        assert rule.support == 3
        assert rule.confidence == pytest.approx(1.0)
        # lift = 1.0 / (4/5)
        assert rule.lift == pytest.approx(1.25)

    def test_threshold_respected(self):
        rules = mine_rules(self.DB, 2, min_confidence=0.8)
        assert all(r.confidence >= 0.8 for r in rules)

    def test_multi_item_consequents(self):
        rules = mine_rules(self.DB, 2, min_confidence=0.5)
        assert any(len(r.consequent) >= 2 for r in rules)

    def test_max_consequent_size(self):
        rules = mine_rules(self.DB, 2, min_confidence=0.1, max_consequent_size=1)
        assert all(len(r.consequent) == 1 for r in rules)

    def test_rules_exhaustive_vs_bruteforce(self):
        # Every (antecedent, consequent) split meeting the threshold must
        # appear.
        supports = normalize(brute_force(self.DB, 1))
        expected = set()
        from itertools import combinations

        for itemset, support in supports.items():
            if len(itemset) < 2:
                continue
            items = sorted(itemset)
            for size in range(1, len(items)):
                for consequent in combinations(items, size):
                    antecedent = frozenset(itemset) - set(consequent)
                    if support / supports[antecedent] >= 0.6:
                        expected.add((frozenset(antecedent), frozenset(consequent)))
        rules = mine_rules(self.DB, 1, min_confidence=0.6)
        actual = {(frozenset(r.antecedent), frozenset(r.consequent)) for r in rules}
        assert actual == expected

    def test_generate_from_mining_result(self):
        from repro import mine_frequent_itemsets

        result = mine_frequent_itemsets(self.DB, 2)
        rules = generate_rules(result, len(self.DB), 0.9)
        assert rules and all(isinstance(r, Rule) for r in rules)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            mine_rules(self.DB, 2, min_confidence=0.0)
        with pytest.raises(ExperimentError):
            generate_rules([], 0, 0.5)

    def test_sorted_by_confidence(self):
        rules = mine_rules(self.DB, 2, min_confidence=0.3)
        confidences = [r.confidence for r in rules]
        assert confidences == sorted(confidences, reverse=True)

    def test_order_independent_of_itemset_order(self):
        # Rules sharing an antecedent, confidence and support used to keep
        # the order their itemsets arrived in.
        import random

        itemsets = list(brute_force(self.DB, 1))
        expected = generate_rules(itemsets, len(self.DB), 0.3)
        rng = random.Random(7)
        shuffles = [rng.sample(itemsets, len(itemsets)) for _ in range(5)]
        for order in [itemsets[::-1], *shuffles]:
            assert generate_rules(order, len(self.DB), 0.3) == expected


class TestSampling:
    def test_full_sample_is_exact(self, small_db):
        results, report = sample_mine(small_db, 2, sample_fraction=1.0)
        assert normalize(results) == normalize(brute_force(small_db, 2))
        assert report.certified_complete

    def test_verified_supports_are_true(self):
        db = random_database(6, n_transactions=80, n_items=10, max_length=7)
        results, __ = sample_mine(db, 4, sample_fraction=0.5, seed=3)
        for itemset, support in results:
            actual = sum(1 for t in db if set(itemset) <= set(t))
            assert actual == support
            assert support >= 4

    def test_certified_runs_are_complete(self):
        complete = 0
        for seed in range(6):
            db = random_database(seed, n_transactions=100, n_items=10, max_length=7)
            results, report = sample_mine(
                db, 5, sample_fraction=0.6, lowering_factor=0.6, seed=seed
            )
            if report.certified_complete:
                complete += 1
                assert normalize(results) == normalize(brute_force(db, 5)), seed
        assert complete >= 1, "no run certified; loosen the lowering factor"

    def test_report_fields(self, small_db):
        __, report = sample_mine(small_db, 2, sample_fraction=0.8, seed=1)
        assert report.sample_size == 8
        assert report.lowered_support >= 1
        assert report.candidates_checked >= 0

    def test_validation(self):
        with pytest.raises(ExperimentError):
            sample_mine([[1]], 1, sample_fraction=0.0)
        with pytest.raises(ExperimentError):
            sample_mine([[1]], 1, lowering_factor=1.5)

    def test_registered_miner(self, small_db):
        from repro.algorithms import get_miner

        miner = get_miner("sampling")
        results = miner.mine(small_db, 2)
        expected = normalize(brute_force(small_db, 2))
        # Verified results are always a sound subset; often exact.
        for itemset, support in results:
            assert expected[frozenset(itemset)] == support
