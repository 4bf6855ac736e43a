"""Tests for memory-budgeted mining."""

import random

import pytest

from repro import obs
from repro.budget import mine_with_budget
from repro.core.cfp_growth import cfp_growth
from repro.errors import ExperimentError
from repro.obs.tracer import Tracer
from repro.storage.bufferpool import Prefetcher
from repro.storage.pagefile import PAGE_SIZE
from repro.util.items import prepare_transactions
from tests.conftest import normalize, random_database


@pytest.fixture(scope="module")
def workload():
    # Sized so the CFP-array exceeds the two-page minimum budget.
    db = random_database(17, n_transactions=900, n_items=60, max_length=16)
    expected = normalize(cfp_growth(db, 5))
    return db, expected


class TestInCore:
    def test_generous_budget_stays_in_memory(self, workload):
        db, expected = workload
        itemsets, report = mine_with_budget(db, 5, memory_budget=64 * 1024 * 1024)
        assert not report.went_out_of_core
        assert report.page_faults == 0
        assert normalize(itemsets) == expected

    def test_report_sizes(self, workload):
        db, __ = workload
        __, report = mine_with_budget(db, 5, memory_budget=64 * 1024 * 1024)
        assert 0 < report.tree_bytes
        assert 0 < report.array_bytes


class TestOutOfCore:
    def test_tight_budget_spills(self, workload, tmp_path):
        db, expected = workload
        itemsets, report = mine_with_budget(
            db, 5, memory_budget=2 * PAGE_SIZE, spill_dir=tmp_path
        )
        assert report.went_out_of_core
        assert report.array_bytes > report.budget_bytes
        assert report.page_faults > 0
        assert normalize(itemsets) == expected

    def test_spill_file_cleaned_up(self, workload, tmp_path):
        db, __ = workload
        mine_with_budget(db, 5, memory_budget=2 * PAGE_SIZE, spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_results_identical_across_budgets(self, workload):
        db, expected = workload
        for budget in (2 * PAGE_SIZE, 8 * PAGE_SIZE, 1 << 26):
            itemsets, __ = mine_with_budget(db, 5, memory_budget=budget)
            assert normalize(itemsets) == expected, budget


class TestPartitionedSpill:
    """The default out-of-core path is the tiered partitioned store."""

    def test_report_carries_tier_fields(self, workload, tmp_path):
        db, expected = workload
        itemsets, report = mine_with_budget(
            db, 5, memory_budget=2 * PAGE_SIZE, spill_dir=tmp_path
        )
        assert report.went_out_of_core
        assert report.partitions >= 1
        assert report.hot_bytes >= 0
        assert report.bytes_read > 0
        assert normalize(itemsets) == expected


class TestReadAmplification:
    """Each partition's projection sweep reads a subarray at most once."""

    def test_bytes_read_bounded_by_partitions(self, tmp_path):
        rng = random.Random(11)
        db = [rng.sample(range(120), rng.randint(6, 12)) for __ in range(4000)]
        budget = 2 * PAGE_SIZE
        itemsets, report = mine_with_budget(db, 40, budget, spill_dir=tmp_path)
        assert report.went_out_of_core
        assert report.array_bytes >= 10 * budget
        assert report.partitions >= 6
        assert report.bytes_read <= 2 * report.partitions * report.array_bytes
        assert normalize(itemsets) == normalize(cfp_growth(db, 40))


class TestTracedOutOfCore:
    """The partitioned mine runs through the shared, traced driver."""

    def test_one_span_per_active_rank(self, tmp_path, monkeypatch):
        rng = random.Random(23)
        db = [rng.sample(range(80), rng.randint(2, 4)) for __ in range(1500)]

        def prefetch_now(self, first_page, n_pages):
            # Load each read-ahead at once, so the hit count does not
            # depend on when the prefetch thread gets scheduled.
            self._pool.prefetch_pages(first_page, n_pages)
            return True

        monkeypatch.setattr(Prefetcher, "request", prefetch_now)
        budget = 2 * PAGE_SIZE
        untraced, __ = mine_with_budget(db, 5, budget, spill_dir=tmp_path)
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:
            itemsets, report = mine_with_budget(db, 5, budget, spill_dir=tmp_path)
        finally:
            obs.set_tracer(previous)
        assert report.went_out_of_core and report.partitions > 1
        assert itemsets == untraced
        assert normalize(itemsets) == normalize(cfp_growth(db, 5))
        table, __ = prepare_transactions(db, 5)
        spans = [r for r in tracer.records if r.name == "mine_rank"]
        assert [s.attrs["rank"] for s in spans] == list(range(len(table), 0, -1))
        assert report.prefetch_hits > 0
        projections = [r for r in tracer.records if r.name == "partition_project"]
        assert [p.attrs["partition"] for p in projections] == list(
            range(report.partitions - 1, -1, -1)
        )
        assert sum(p.attrs["ranks"] for p in projections) == len(table)
        assert sum(p.attrs["nodes"] for p in projections) > 0
        assert all(p.attrs["ancestor_ranks"] >= 0 for p in projections)
        assert 0 < sum(p.attrs["bytes_read"] for p in projections) <= report.bytes_read


class TestValidation:
    def test_budget_floor(self):
        with pytest.raises(ExperimentError):
            mine_with_budget([[1]], 1, memory_budget=PAGE_SIZE)
