"""ServingStore: persistence round trip and direct-call equivalence."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bruteforce import brute_force
from repro.core.cfp_growth import cfp_growth, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import ExperimentError
from repro.mining.topk import mine_top_k
from repro.rules import mine_rules
from repro.serving.store import (
    RULES_CACHE_ENTRIES,
    ServingStore,
    StoreError,
    build_store,
    sidecar_path,
)
from repro.util.items import prepare_transactions
from repro.util.queries import itemset_support
from tests.conftest import db_strategy, paper_example_database, random_database

MIN_SUPPORT = 2


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "paper.cfpa"
    build_store(paper_example_database(), MIN_SUPPORT, path)
    return path


class TestBuildAndOpen:
    def test_round_trip_table(self, store_path):
        table, _ = prepare_transactions(paper_example_database(), MIN_SUPPORT)
        with ServingStore(store_path) as store:
            assert store.table.fingerprint() == table.fingerprint()
            assert store.n_transactions == len(paper_example_database())
            assert store.table.min_support == MIN_SUPPORT

    def test_missing_sidecar(self, store_path, tmp_path):
        import os

        os.unlink(sidecar_path(store_path))
        with pytest.raises(StoreError, match="sidecar not found"):
            ServingStore(store_path)

    def test_corrupt_sidecar(self, store_path):
        with open(sidecar_path(store_path), "w", encoding="utf-8") as handle:
            handle.write("{nope")
        with pytest.raises(StoreError, match="not valid JSON"):
            ServingStore(store_path)

    def test_fingerprint_mismatch(self, store_path):
        side = sidecar_path(store_path)
        with open(side, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["items"][0][1] += 1  # tamper with one support
        with open(side, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with pytest.raises(StoreError, match="fingerprint"):
            ServingStore(store_path)

    def test_missing_key(self, store_path):
        side = sidecar_path(store_path)
        with open(side, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        del meta["n_transactions"]
        with open(side, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with pytest.raises(StoreError, match="n_transactions"):
            ServingStore(store_path)


class TestResidentBytes:
    """resident_bytes must cover everything long-lived, sidecar included."""

    def test_includes_sidecar_bytes(self, store_path):
        import os

        sidecar_bytes = os.path.getsize(sidecar_path(store_path))
        assert sidecar_bytes > 0
        with ServingStore(store_path) as store:
            # Regression: resident_bytes used to report only the array
            # reader, undercounting the admission-control input by the
            # whole parsed vocabulary.
            assert (
                store.resident_bytes
                == store.array.memory_bytes + sidecar_bytes
            )
            assert store.resident_bytes > store.array.memory_bytes

    def test_tracks_vocabulary_size(self, tmp_path):
        small = tmp_path / "small.cfpa"
        large = tmp_path / "large.cfpa"
        build_store(random_database(seed=1, n_transactions=40), 2, small)
        build_store(
            [[f"item-{i}", f"item-{i + 1}"] for i in range(200)] * 2,
            2,
            large,
        )
        import os

        with ServingStore(small) as a, ServingStore(large) as b:
            delta = b.resident_bytes - a.resident_bytes
            sidecar_delta = os.path.getsize(sidecar_path(large)) - os.path.getsize(
                sidecar_path(small)
            )
            array_delta = b.array.memory_bytes - a.array.memory_bytes
            assert delta == array_delta + sidecar_delta
            assert sidecar_delta > 0


class TestPartitionedStore:
    """ServingStore opens partitioned (v3) stores transparently."""

    def test_opens_v3_and_answers_match_v2(self, tmp_path):
        from repro.storage import PartitionedCfpArray

        database = random_database(seed=5, n_transactions=120)
        v2 = tmp_path / "mono.cfpa"
        v3 = tmp_path / "part.cfpa"
        build_store(database, 2, v2)
        build_store(database, 2, v3, partition_bytes=4096)
        queries = ([1], [2, 3], [0, 1, 2], [5], [1, 4])
        with ServingStore(v2) as mono, ServingStore(v3, hot_bytes=2048) as part:
            assert isinstance(part.array, PartitionedCfpArray)
            assert len(part.array.partitions) >= 1
            for items in queries:
                assert part.support(items) == mono.support(items), items
            assert part.top_k(10) == mono.top_k(10)
            assert part.rules(min_confidence=0.6) == mono.rules(
                min_confidence=0.6
            )

    def test_support_queries_during_projected_mine(self, tmp_path):
        """The projection handoff is not reader state another thread sees.

        A cache-off v3 store builds its frequent list (a projected,
        partition-by-partition mine) while 8 threads query supports. Every
        answer must match the library's, and the reader's attributes must
        stay as they were: a projection parked on the shared reader is
        exactly what this forbids.
        """
        import sys
        import threading

        database = random_database(seed=5, n_transactions=400, n_items=25)
        path = tmp_path / "part.cfpa"
        build_store(database, 4, path, partition_bytes=64)
        table, transactions = prepare_transactions(database, 4)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        by_rank = sorted(table.rank_of, key=table.rank_of.get)
        queries = [
            [by_rank[rank] for rank in ranks]
            for ranks in ((-1,), (0, -1), (1, 2), (2, 5, 9), (4, 8), (0, 3, 6), (7, -2))
        ]
        expected = [itemset_support(array, table, q) for q in queries]
        failures: list[str] = []
        done = threading.Event()
        started = threading.Barrier(9, timeout=60)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingStore(path, cache_budget=0, pool_pages=2) as store:
                attributes = {k: id(v) for k, v in vars(store.array).items()}

                def worker(offset: int) -> None:
                    started.wait()
                    step = offset
                    while not done.is_set() and step < offset + 5000:
                        index = step % len(queries)
                        got = store.support(queries[index])
                        if got != expected[index]:
                            failures.append(f"{queries[index]}: {got}")
                        if {k: id(v) for k, v in vars(store.array).items()} != attributes:
                            failures.append("reader attributes changed")
                        step += 1

                threads = [
                    threading.Thread(target=worker, args=(offset,)) for offset in range(8)
                ]
                for thread in threads:
                    thread.start()
                try:
                    started.wait()
                    frequent = store.top_k(1 << 20)
                finally:
                    done.set()
                    for thread in threads:
                        thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(store.array.partitions) >= 6
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:5]
        assert sorted(frequent) == sorted(
            (tuple(sorted(itemset, key=table.rank_of.get)), support)
            for itemset, support in cfp_growth(database, 4)
        )

    def test_hot_set_counts_as_resident(self, tmp_path):
        database = random_database(seed=5, n_transactions=120)
        path = tmp_path / "part.cfpa"
        build_store(database, 2, path, partition_bytes=4096)
        with ServingStore(path, hot_bytes=0) as cold, ServingStore(
            path, hot_bytes=1 << 16
        ) as hot:
            assert hot.array.hot_bytes > 0
            assert (
                hot.resident_bytes - cold.resident_bytes
                == hot.array.hot_bytes
            )


class TestQueryParity:
    """Store answers == the answers of direct calls on in-memory structures."""

    def _direct(self, database, min_support):
        table, transactions = prepare_transactions(database, min_support)
        tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
        return table, convert(tree)

    def test_support_matches_direct(self, store_path):
        database = paper_example_database()
        table, array = self._direct(database, MIN_SUPPORT)
        with ServingStore(store_path) as store:
            for items in ([1], [3, 4], [1, 2, 3], [2, 9], [7], [1, 2, 3, 4]):
                assert store.support(items) == itemset_support(
                    array, table, items
                ), items

    def test_top_k_matches_direct(self, store_path):
        database = paper_example_database()
        table, array = self._direct(database, MIN_SUPPORT)
        with ServingStore(store_path) as store:
            for k in (1, 3, 10, 50):
                expected = [
                    (table.ranks_to_items(ranks), support)
                    for ranks, support in mine_top_k(
                        array, k, min_support_floor=MIN_SUPPORT
                    )
                ]
                assert store.top_k(k) == expected, k

    def test_top_k_excludes_itemsets_below_min_support(self, tmp_path):
        # Regression: top_k mined with floor 1, so pairs of support 2
        # filled the k slots of a store built at min_support 3.
        database = [
            [1, 2, 4, 6], [3, 6], [2], [2, 6], [1, 3, 4, 6],
            [1, 3, 4, 5], [5], [2, 3, 5], [1, 2, 4, 5], [2, 3],
        ]
        path = tmp_path / "floor.cfpa"
        build_store(database, 3, path)
        frequent = {
            (frozenset(items), support)
            for items, support in cfp_growth(database, 3)
        }
        with ServingStore(path) as store:
            top = store.top_k(9)
        assert {(frozenset(items), support) for items, support in top} == frequent
        assert len(top) == len(frequent) == 7

    def test_rules_match_mine_rules(self, store_path):
        database = paper_example_database()
        expected = mine_rules(database, MIN_SUPPORT, min_confidence=0.6)
        with ServingStore(store_path) as store:
            assert store.rules(min_confidence=0.6) == expected
            # The cache serves the identical object on a repeat query.
            assert store.rules(min_confidence=0.6) is store.rules(
                min_confidence=0.6
            )

    def test_also_bought_subsets_rules(self, store_path):
        with ServingStore(store_path) as store:
            recommended = store.also_bought([1], limit=3, min_confidence=0.5)
            assert len(recommended) <= 3
            for rule in recommended:
                assert set(rule.antecedent) <= {1}
                assert 1 not in rule.consequent

    @settings(max_examples=20, deadline=None)
    @given(database=db_strategy, seed=st.integers(0, 5))
    def test_support_property(self, database, seed, tmp_path_factory):
        import random as random_module

        path = tmp_path_factory.mktemp("stores") / "db.cfpa"
        try:
            build_store(database, 2, path)
        except Exception:
            # Databases with no frequent items cannot be built into a
            # store; that is the build pipeline's concern, not serving's.
            return
        table, array = self._direct(database, 2)
        rng = random_module.Random(seed)
        universe = list(range(0, 10))
        with ServingStore(path) as store:
            for _ in range(8):
                items = rng.sample(universe, rng.randint(1, 3))
                assert store.support(items) == itemset_support(
                    array, table, items
                )


class TestServedFromFrequentList:
    """top_k and rules read one frequent-itemset list, mined once per store."""

    @staticmethod
    def _brute_top_k(database, min_support, table, k, min_length=1):
        ranked = sorted(
            (tuple(sorted(table.rank_of[item] for item in items)), support)
            for items, support in brute_force(database, min_support)
            if len(items) >= min_length
        )
        ranked.sort(key=lambda entry: -entry[1])
        return [(table.ranks_to_items(ranks), s) for ranks, s in ranked[:k]]

    @pytest.mark.parametrize("seed", [0, 4])
    def test_top_k_at_the_edges(self, tmp_path, seed):
        database = random_database(seed=seed, n_transactions=60)
        path = tmp_path / "edges.cfpa"
        build_store(database, 3, path)
        table, transactions = prepare_transactions(database, 3)
        array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
        n_frequent = len(brute_force(database, 3))
        longest = max(len(items) for items, __ in brute_force(database, 3))
        with ServingStore(path) as store:
            for k, min_length in [
                (1, 1), (5, 2), (n_frequent, 1), (n_frequent + 7, 1),
                (n_frequent + 7, 2), (3, longest), (10, longest + 1),
            ]:
                expected = [
                    (table.ranks_to_items(ranks), support)
                    for ranks, support in mine_top_k(
                        array, k, min_length, min_support_floor=3
                    )
                ]
                got = store.top_k(k, min_length)
                assert got == expected, (k, min_length)
                assert got == self._brute_top_k(database, 3, table, k, min_length)
            assert store.top_k(10, longest + 1) == []
            for k, min_length in [(0, 1), (-1, 1), (1, 0)]:
                with pytest.raises(ExperimentError):
                    store.top_k(k, min_length)

    @pytest.fixture
    def mines(self, monkeypatch):
        """Top-level mines run, by every name a serving query could use."""
        calls: list = []

        def counting(array, *args, **kwargs):
            calls.append(array)
            return mine_array(array, *args, **kwargs)

        monkeypatch.setattr("repro.serving.store.mine_array", counting)
        monkeypatch.setattr("repro.mining.topk.mine_array", counting)
        return calls

    def test_one_mine_per_store(self, store_path, mines):
        with ServingStore(store_path) as store:
            store.top_k(3)
            store.rules(0.6)
            store.top_k(5, min_length=2)
            for confidence in (0.3, 0.5, 0.7, 0.9, 0.95, 0.6):
                store.also_bought([1], min_confidence=confidence)
            store.top_k(50)
        assert len(mines) == 1

    def test_concurrent_first_queries_mine_once(self, store_path, mines):
        import sys
        import threading

        confidences = [0.2, 0.4, 0.5, 0.6, 0.8, 0.9]
        expected_rules = {
            c: mine_rules(paper_example_database(), MIN_SUPPORT, c) for c in confidences
        }
        failures: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingStore(store_path) as store:
                expected_top = self._brute_top_k(
                    paper_example_database(), MIN_SUPPORT, store.table, 6
                )

                def worker(offset: int) -> None:
                    for step in range(12):
                        confidence = confidences[(offset + step) % len(confidences)]
                        if store.rules(confidence) != expected_rules[confidence]:
                            failures.append(f"rules {confidence}")
                        if store.top_k(6) != expected_top:
                            failures.append("top_k")

                threads = [
                    threading.Thread(target=worker, args=(offset,)) for offset in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = store.cache_stats()["rules"]
                assert stats["entries"] == RULES_CACHE_ENTRIES
                assert stats["bytes"] == sum(
                    charge for __, charge in store._rules_cache.values()
                )
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert len(mines) == 1

    def test_rules_cache_is_bounded_lru(self, store_path):
        confidences = [0.1 * step for step in range(1, RULES_CACHE_ENTRIES + 4)]
        with ServingStore(store_path) as store:
            for confidence in confidences:
                store.rules(confidence)
                stats = store.cache_stats()["rules"]
                assert stats["entries"] <= RULES_CACHE_ENTRIES
            assert len(store._rules_cache) == RULES_CACHE_ENTRIES
            # The newest keys stay; a re-derived evicted key is still exact.
            kept = confidences[-RULES_CACHE_ENTRIES:]
            assert list(store._rules_cache) == [(c, None) for c in kept]
            assert stats["bytes"] == sum(
                charge for __, charge in store._rules_cache.values()
            )
            assert store.rules(confidences[0]) == mine_rules(
                paper_example_database(), MIN_SUPPORT, confidences[0]
            )
            assert len(store._rules_cache) == RULES_CACHE_ENTRIES

    def test_resident_bytes_counts_the_lists(self, store_path):
        with ServingStore(store_path) as store:
            empty = store.cache_stats()
            assert empty["frequent"] == {"entries": 0, "bytes": 0}
            assert empty["rules"] == {"entries": 0, "bytes": 0}
            before = store.resident_bytes
            store.top_k(1)
            after_top_k = store.resident_bytes
            assert after_top_k > before
            stats = store.cache_stats()
            assert stats["frequent"]["entries"] == len(
                cfp_growth(paper_example_database(), MIN_SUPPORT)
            )
            assert after_top_k - before == stats["frequent"]["bytes"]
            store.rules(0.5)
            assert store.resident_bytes - after_top_k == (
                store.cache_stats()["rules"]["bytes"]
            ) > 0
            assert stats["subarray"]["entries"] > 0


class TestRulesValidation:
    """Bad rule parameters are rejected before any mine runs."""

    @pytest.mark.parametrize(
        "min_confidence, max_consequent_size",
        [
            (0.0, None),
            (-0.5, None),
            (1.5, None),
            (float("nan"), None),
            (0.5, 0),
            (0.5, -1),
        ],
    )
    def test_rejected_without_mining(
        self, store_path, monkeypatch, min_confidence, max_consequent_size
    ):
        def no_mine(*args, **kwargs):
            raise AssertionError("rules mined before validating")

        monkeypatch.setattr("repro.serving.store.mine_array", no_mine)
        with ServingStore(store_path) as store:
            with pytest.raises(ExperimentError):
                store.rules(min_confidence, max_consequent_size)
            assert store._rules_cache == {}


class TestConcurrentStoreAccess:
    def test_threaded_queries_agree(self, tmp_path):
        import threading

        database = random_database(seed=3, n_transactions=80)
        path = tmp_path / "rand.cfpa"
        build_store(database, 3, path)
        with ServingStore(path, pool_pages=2, cache_budget=1 << 12) as store:
            queries = [[1], [2, 3], [0, 1, 2], [5], [1, 4]]
            expected = [store.support(items) for items in queries]
            failures: list[str] = []

            def worker() -> None:
                for _ in range(20):
                    for items, want in zip(queries, expected):
                        got = store.support(items)
                        if got != want:  # pragma: no cover - failure path
                            failures.append(f"{items}: {got} != {want}")

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
