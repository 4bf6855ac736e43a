"""Correctness tests for the CFP-growth miner."""

from hypothesis import given, settings

from repro.algorithms.bruteforce import brute_force
from repro.core.cfp_growth import cfp_growth, mine_rank_transactions
from repro.fptree.growth import CountCollector, ListCollector, fp_growth
from repro.util.items import prepare_transactions
from tests.conftest import db_strategy, normalize, random_database


class TestSmallCases:
    def test_empty_database(self):
        assert cfp_growth([], 1) == []

    def test_single_transaction(self):
        assert normalize(cfp_growth([[1, 2]], 1)) == {
            frozenset([1]): 1,
            frozenset([2]): 1,
            frozenset([1, 2]): 1,
        }

    def test_paper_example(self, small_db):
        assert normalize(cfp_growth(small_db, 2)) == normalize(
            brute_force(small_db, 2)
        )

    def test_single_path_top_level(self):
        db = [[1], [1, 2], [1, 2, 3]]
        assert normalize(cfp_growth(db, 1)) == normalize(brute_force(db, 1))

    def test_string_items(self):
        db = [["beer", "chips"], ["beer"], ["chips", "beer", "salsa"]]
        results = normalize(cfp_growth(db, 2))
        assert results[frozenset(["beer", "chips"])] == 2

    def test_high_support_prunes_everything(self):
        assert cfp_growth([[1, 2], [3, 4]], 5) == []


class TestAgainstReferences:
    def test_matches_fp_growth_random(self):
        for seed in range(10):
            db = random_database(seed, n_transactions=70, n_items=14, max_length=9)
            for min_support in (2, 3, 6):
                assert normalize(cfp_growth(db, min_support)) == normalize(
                    fp_growth(db, min_support)
                ), f"seed={seed} min_support={min_support}"

    def test_matches_brute_force_dense(self):
        # Dense database: long shared transactions stress the single-path
        # shortcut and conditional recursion.
        db = [[1, 2, 3, 4, 5]] * 4 + [[1, 2, 3], [2, 3, 4, 5], [1, 4, 5], [2]]
        for min_support in (1, 2, 4):
            assert normalize(cfp_growth(db, min_support)) == normalize(
                brute_force(db, min_support)
            )

    @settings(max_examples=40, deadline=None)
    @given(db_strategy)
    def test_property_equivalence(self, database):
        assert normalize(cfp_growth(database, 2)) == normalize(
            fp_growth(database, 2)
        )

    @settings(max_examples=20, deadline=None)
    @given(db_strategy)
    def test_property_supports_exact(self, database):
        for itemset, support in cfp_growth(database, 2):
            actual = sum(1 for t in database if set(itemset) <= set(t))
            assert actual == support


class TestCollectors:
    def test_count_collector_matches_list(self):
        db = random_database(42, n_transactions=60, n_items=10, max_length=8)
        table, transactions = prepare_transactions(db, 3)
        listed = mine_rank_transactions(transactions, len(table), 3, ListCollector())
        counted = mine_rank_transactions(
            transactions, len(table), 3, CountCollector()
        )
        assert counted.count == len(listed.itemsets)

    def test_itemsets_unique(self):
        db = random_database(7, n_transactions=50, n_items=10, max_length=7)
        results = cfp_growth(db, 2)
        keys = [frozenset(itemset) for itemset, __ in results]
        assert len(keys) == len(set(keys))


class TestConditionalCache:
    def test_conditionals_of_a_cache_off_array_get_the_default_cache(
        self, monkeypatch
    ):
        import importlib

        from repro.core.conversion import convert
        from repro.core.ternary import TernaryCfpTree

        table, transactions = prepare_transactions(random_database(8, 300, 16, 8), 3)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        assert array.cache_budget == 0
        # The module, not the cfp_growth function repro.core re-exports.
        growth = importlib.import_module("repro.core.cfp_growth")
        budgets = []
        mine_array = growth.mine_array

        def recording(cond_array, *args, **kwargs):
            budgets.append(cond_array.cache_budget)
            return mine_array(cond_array, *args, **kwargs)

        monkeypatch.setattr(growth, "mine_array", recording)
        collector = ListCollector()
        recording(array, 3, collector)
        assert len(budgets) > 1
        assert budgets[1:] == [growth.DEFAULT_CACHE_BUDGET] * (len(budgets) - 1)
        assert normalize(
            [(table.ranks_to_items(r), s) for r, s in collector.itemsets]
        ) == normalize(cfp_growth(random_database(8, 300, 16, 8), 3))
