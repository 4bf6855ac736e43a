"""Incremental sliding-window mining: merges, evictions, snapshots, flips.

The load-bearing contract here is the identity tripwire — every window
the incremental path can reach must produce a CFP-array byte-identical
to a from-scratch rebuild over the same transactions with the same
frozen ItemTable. The hypothesis schedule property drives arbitrary
append/evict/publish interleavings against that contract, and the chaos
tests pin down what an injected failure at ``delta.merge`` or
``snapshot.flip`` may and may not leave behind.
"""

from __future__ import annotations

import glob
import json
import os
import stat
import tempfile
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faultinject, obs
from repro.core.cfp_growth import mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import StreamingError
from repro.faultinject import InjectedFault
from repro.fptree.growth import ListCollector
from repro.serving.follow import FollowingStore
from repro.storage import load_cfp_array
from repro.streaming import (
    CountingPhase,
    DeltaForest,
    IncrementalMiner,
    SnapshotError,
    SnapshotManager,
    StreamingBuilder,
    compact_forest,
    forest_to_array,
    merge_forest,
)
from tests.conftest import normalize, random_database


@pytest.fixture(autouse=True)
def _clean():
    faultinject.reset()
    obs.metrics.reset()
    yield
    faultinject.reset()


def _table(batches, min_support=2):
    counting = CountingPhase()
    for batch in batches:
        counting.add_batch(batch)
    return counting.finish(min_support)


def _ranked(table, transactions):
    rank_of = table.rank_of
    return [
        sorted({rank_of[item] for item in t if item in rank_of})
        for t in transactions
    ]


def _static_array(table, transactions):
    tree = TernaryCfpTree.from_rank_transactions(
        _ranked(table, transactions), len(table)
    )
    return convert(tree)


def _delta(table, batch):
    tree = TernaryCfpTree(len(table))
    tree.insert_batch(_ranked(table, batch))
    return DeltaForest.from_tree(tree)


def _identical(a, b):
    return bytes(a.buffer) == bytes(b.buffer) and a.starts == b.starts


def _mine_static(table, transactions):
    collector = ListCollector()
    mine_array(_static_array(table, transactions), table.min_support, collector)
    return [
        (table.ranks_to_items(ranks), support)
        for ranks, support in collector.itemsets
    ]


def _copy_trees(forest):
    return {
        leading: (flat[0][:], flat[1][:], flat[2][:])
        for leading, flat in forest.trees.items()
    }


class TestMergeForest:
    def test_merge_matches_rebuild(self):
        first = random_database(1, n_transactions=30)
        second = random_database(2, n_transactions=30)
        table = _table([first, second])
        forest = _delta(table, first)
        merge_forest(forest, _delta(table, second))
        assert _identical(forest_to_array(forest), _static_array(table, first + second))

    def test_subtract_then_compact_restores_the_smaller_window(self):
        first = random_database(3, n_transactions=30)
        second = random_database(4, n_transactions=30)
        table = _table([first, second])
        forest = _delta(table, first)
        merge_forest(forest, _delta(table, second))
        merge_forest(forest, _delta(table, first), sign=-1)
        dropped = compact_forest(forest)
        assert dropped >= 0
        assert _identical(forest_to_array(forest), _static_array(table, second))

    def test_subtracting_an_unseen_subtree_raises(self):
        batch = [[1, 2], [1, 2], [2, 3], [2, 3]]
        table = _table([batch])
        empty = DeltaForest(len(table))
        with pytest.raises(StreamingError, match="no such subtree"):
            merge_forest(empty, _delta(table, batch), sign=-1)

    def test_oversubtraction_raises(self):
        once = [[1, 2], [3, 1], [2, 3]]
        table = _table([once, once])
        forest = _delta(table, once)
        twice = _delta(table, once + once)
        with pytest.raises(StreamingError):
            merge_forest(forest, twice, sign=-1)

    def test_invalid_sign_and_rank_mismatch_raise(self):
        batch = [[1, 2], [1, 2]]
        table = _table([batch])
        forest = _delta(table, batch)
        with pytest.raises(StreamingError, match="sign"):
            merge_forest(forest, _delta(table, batch), sign=2)
        with pytest.raises(StreamingError, match="rank"):
            merge_forest(forest, DeltaForest(len(table) + 1))

    def test_injected_merge_failure_leaves_base_untouched(self):
        first = random_database(5, n_transactions=25)
        second = random_database(6, n_transactions=25)
        table = _table([first, second])
        forest = _delta(table, first)
        before = _copy_trees(forest)
        delta = _delta(table, second)
        faultinject.install("delta.merge:raise:times=1")
        with pytest.raises(InjectedFault):
            merge_forest(forest, delta)
        assert forest.trees == before  # retry-safe: nothing committed
        merge_forest(forest, delta)  # the retry
        assert _identical(forest_to_array(forest), _static_array(table, first + second))


class TestIncrementalMiner:
    def test_grow_only_identity_at_every_batch(self):
        database = random_database(7, n_transactions=120)
        batches = [database[i : i + 30] for i in range(0, 120, 30)]
        table = _table(batches)
        miner = IncrementalMiner(table)
        seen = []
        for batch in batches:
            miner.append_batch(batch)
            seen.extend(batch)
            assert _identical(miner.to_array(), _static_array(table, seen))

    def test_sliding_window_identity_at_every_batch(self):
        database = random_database(8, n_transactions=150)
        batches = [database[i : i + 30] for i in range(0, 150, 30)]
        table = _table(batches)
        miner = IncrementalMiner(table, window=2)
        for index, batch in enumerate(batches):
            miner.append_batch(batch)
            window = [t for b in batches[max(0, index - 1) : index + 1] for t in b]
            assert miner.window_batches == min(index + 1, 2)
            assert _identical(miner.to_array(), _static_array(table, window))

    def test_mine_matches_static_window(self):
        database = random_database(9, n_transactions=90)
        batches = [database[i : i + 30] for i in range(0, 90, 30)]
        table = _table(batches, min_support=3)
        miner = IncrementalMiner(table, window=2)
        for batch in batches:
            miner.append_batch(batch)
        window = [t for b in batches[-2:] for t in b]
        assert normalize(miner.mine()) == normalize(_mine_static(table, window))

    def test_counters_and_window_accounting(self):
        database = random_database(10, n_transactions=80)
        batches = [database[i : i + 20] for i in range(0, 80, 20)]
        table = _table(batches)
        miner = IncrementalMiner(table, window=2)
        for batch in batches:
            miner.append_batch(batch)
        assert obs.metrics.get("streaming.delta_merges") == 4
        assert obs.metrics.get("streaming.batches_evicted") == 2
        assert miner.window_transactions <= 40

    def test_empty_window_eviction_raises(self):
        table = _table([[[1, 2], [1, 2]]])
        with pytest.raises(StreamingError, match="nothing to evict"):
            IncrementalMiner(table).evict_oldest()

    def test_window_must_be_positive(self):
        table = _table([[[1, 2], [1, 2]]])
        with pytest.raises(StreamingError, match="window"):
            IncrementalMiner(table, window=0)


_batch = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    min_size=1,
    max_size=6,
)


class TestScheduleProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(_batch, min_size=1, max_size=5),
        window=st.integers(min_value=1, max_value=3),
        evicts=st.lists(st.booleans(), min_size=5, max_size=5),
        publishes=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_any_schedule_matches_the_static_window(
        self, batches, window, evicts, publishes
    ):
        """Append/evict/publish in any interleaving == static rebuild."""
        table = _table(batches, min_support=2)
        miner = IncrementalMiner(table, window=window)
        live: deque = deque()
        with tempfile.TemporaryDirectory() as snapdir:
            manager = SnapshotManager(snapdir)
            for index, batch in enumerate(batches):
                miner.append_batch(batch)
                live.append(batch)
                while len(live) > window:
                    live.popleft()
                if evicts[index] and miner.window_batches > 0:
                    miner.evict_oldest()
                    live.popleft()
                window_tx = [t for b in live for t in b]
                array = miner.to_array()
                assert _identical(array, _static_array(table, window_tx))
                if publishes[index]:
                    generation = manager.publish(
                        array, table, miner.window_transactions
                    )
                    state = manager.current()
                    assert state is not None and state[0] == generation
                    assert _identical(load_cfp_array(state[1]), array)
            window_tx = [t for b in live for t in b]
            assert normalize(miner.mine()) == normalize(
                _mine_static(table, window_tx)
            )

    @settings(max_examples=15, deadline=None)
    @given(
        batches=st.lists(_batch, min_size=2, max_size=4),
        window=st.integers(min_value=1, max_value=3),
    )
    def test_a_killed_merge_retries_to_the_identical_array(self, batches, window):
        """A fault at delta.merge loses nothing: the retry converges."""
        table = _table(batches, min_support=2)
        miner = IncrementalMiner(table, window=window)
        miner.append_batch(batches[0])
        faultinject.install("delta.merge:raise:times=1")
        with pytest.raises(InjectedFault):
            miner.append_batch(batches[1])
        faultinject.reset()
        assert miner.batches_consumed == 1  # the failed append left no trace
        for batch in batches[1:]:
            miner.append_batch(batch)
        window_tx = [t for b in batches[-miner.window_batches :] for t in b]
        assert _identical(miner.to_array(), _static_array(table, window_tx))


class TestSnapshotManager:
    def _published(self, snapdir, seeds=(11,)):
        databases = [random_database(seed, n_transactions=40) for seed in seeds]
        table = _table(databases, min_support=3)
        manager = SnapshotManager(snapdir)
        generation = 0
        for database in databases:
            generation = manager.publish(
                _static_array(table, database), table, len(database)
            )
        return manager, table, generation

    def test_publish_roundtrip(self, tmp_path):
        manager, table, generation = self._published(tmp_path)
        state = manager.current()
        assert state is not None and state[0] == generation == 1
        loaded = load_cfp_array(state[1])
        assert _identical(loaded, _static_array(table, random_database(11, n_transactions=40)))
        assert os.path.exists(state[1] + ".items.json")

    def test_superseded_generations_are_retired(self, tmp_path):
        manager, __, generation = self._published(tmp_path, seeds=(11, 12, 13))
        assert generation == 3
        remaining = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".cfpa")
        )
        assert remaining == ["gen-000003.cfpa"]
        assert obs.metrics.get("snapshot.retired") == 2

    def test_acquired_generation_survives_the_next_publish(self, tmp_path):
        manager, table, __ = self._published(tmp_path)
        generation, path = manager.acquire()
        manager.publish(_static_array(table, [[1, 2]]), table, 1)
        assert os.path.exists(path)  # pinned: the flip may not unlink it
        manager.release(generation)
        assert not os.path.exists(path)

    def test_flip_failure_preserves_the_old_manifest(self, tmp_path):
        manager, table, __ = self._published(tmp_path)
        array = _static_array(table, [[1, 2], [1, 2], [1, 2]])
        faultinject.install("snapshot.flip:raise:times=1")
        with pytest.raises(InjectedFault):
            manager.publish(array, table, 3)
        state = manager.current()
        assert state is not None and state[0] == 1  # old generation intact
        load_cfp_array(state[1])
        assert not glob.glob(os.path.join(tmp_path, "MANIFEST.json.tmp.*"))
        assert manager.publish(array, table, 3) == 2  # the retry flips
        state = manager.current()
        assert state is not None and state[0] == 2

    def test_torn_manifest_raises(self, tmp_path):
        manager, __, __unused = self._published(tmp_path)
        with open(manager.manifest_path, "w", encoding="utf-8") as handle:
            handle.write('{"generation": 1, "arr')  # torn mid-write
        with pytest.raises(SnapshotError, match="torn"):
            manager.current()

    def test_acquire_without_a_manifest_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            SnapshotManager(tmp_path / "empty").acquire()

    def test_manifest_and_generations_are_private(self, tmp_path):
        manager, __, __unused = self._published(tmp_path)
        state = manager.current()
        assert state is not None
        for path in (manager.manifest_path, state[1]):
            mode = stat.S_IMODE(os.stat(path).st_mode)
            assert mode & 0o077 == 0, f"{path} is group/world accessible"


class TestFollowingStore:
    def _publish_window(self, manager, table, transactions):
        return manager.publish(
            _static_array(table, transactions), table, len(transactions)
        )

    def test_refresh_flips_and_answers_track_the_window(self, tmp_path):
        first = random_database(20, n_transactions=50)
        second = random_database(21, n_transactions=50)
        table = _table([first, second], min_support=3)
        manager = SnapshotManager(tmp_path)
        self._publish_window(manager, table, first)
        probe = (table.item_of[1],)
        with FollowingStore(tmp_path, pool_pages=32) as store:
            assert store.generation == 1
            count_first = sum(1 for t in first if probe[0] in t)
            assert store.support(probe) == count_first
            self._publish_window(manager, table, second)
            assert store.refresh() is True
            assert store.generation == 2
            assert store.support(probe) == sum(1 for t in second if probe[0] in t)
            assert store.refresh() is False  # nothing new
            assert obs.metrics.get("serving.generation") == 2  # init + flip

    def test_top_k_after_a_flip_reads_the_new_generation(self, tmp_path):
        first = random_database(25, n_transactions=50)
        second = random_database(26, n_transactions=50)
        table = _table([first, second], min_support=3)
        manager = SnapshotManager(tmp_path)

        def expected(window):
            collector = ListCollector()
            mine_array(_static_array(table, window), table.min_support, collector)
            ranked = sorted(
                ((tuple(sorted(ranks)), support) for ranks, support in collector.itemsets),
                key=lambda entry: (-entry[1], entry[0]),
            )
            return [(table.ranks_to_items(ranks), s) for ranks, s in ranked[:12]]

        self._publish_window(manager, table, first)
        with FollowingStore(tmp_path, pool_pages=32) as store:
            assert store.top_k(12) == expected(first)
            old_entries = store.cache_stats()["frequent"]["entries"]
            self._publish_window(manager, table, second)
            assert store.refresh() is True
            assert store.cache_stats()["frequent"]["entries"] == 0
            assert store.top_k(12) == expected(second) != expected(first)
            assert old_entries > 0

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no loadable snapshot"):
            FollowingStore(tmp_path / "nothing")

    def test_torn_manifest_rides_out_on_the_current_generation(self, tmp_path):
        database = random_database(22, n_transactions=50)
        table = _table([database], min_support=3)
        manager = SnapshotManager(tmp_path)
        self._publish_window(manager, table, database)
        probe = (table.item_of[1],)
        with FollowingStore(tmp_path, pool_pages=32) as store:
            with open(manager.manifest_path, "w", encoding="utf-8") as handle:
                handle.write("{not json")
            assert store.refresh() is False
            assert store.errors  # the torn manifest was recorded
            assert store.support(probe) == sum(1 for t in database if probe[0] in t)

    def test_in_flight_queries_pin_the_old_generation(self, tmp_path):
        first = random_database(23, n_transactions=50)
        second = random_database(24, n_transactions=50)
        table = _table([first, second], min_support=3)
        manager = SnapshotManager(tmp_path)
        self._publish_window(manager, table, first)
        probe = (table.item_of[1],)
        with FollowingStore(tmp_path, pool_pages=32) as store:
            with store._pinned() as pinned:
                self._publish_window(manager, table, second)
                assert store.refresh() is True
                # The pinned query still reads generation 1 coherently.
                assert pinned.support(probe) == sum(1 for t in first if probe[0] in t)
            # Last unpin released generation 1; the live store answers gen 2.
            assert store.support(probe) == sum(1 for t in second if probe[0] in t)


class TestCheckpointHygiene:
    def test_checkpoints_are_private_atomic_and_leave_no_temp_files(self, tmp_path):
        database = random_database(30, n_transactions=60)
        table = _table([database], min_support=3)
        builder = StreamingBuilder(table)
        builder.add_batch(database)
        checkpoint = tmp_path / "build.cfpt"
        builder.checkpoint(checkpoint)
        mode = stat.S_IMODE(os.stat(checkpoint).st_mode)
        assert mode & 0o077 == 0, "checkpoint must not be group/world readable"
        assert not glob.glob(str(tmp_path / "*.tmp.*")), "temp file leaked"
        resumed = StreamingBuilder.resume(table, checkpoint)
        assert resumed.batches_consumed == builder.batches_consumed

    def test_manifest_is_json_with_trailing_newline(self, tmp_path):
        database = random_database(31, n_transactions=40)
        table = _table([database], min_support=3)
        manager = SnapshotManager(tmp_path)
        manager.publish(_static_array(table, database), table, len(database))
        with open(manager.manifest_path, "rb") as handle:
            raw = handle.read()
        assert raw.endswith(b"\n")
        manifest = json.loads(raw)
        assert manifest == {"generation": 1, "array": "gen-000001.cfpa"}
