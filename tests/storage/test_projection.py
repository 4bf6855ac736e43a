"""Per-partition projection of the partitioned reader against the oracle.

The out-of-core mine resolves each partition's prefix paths in one
descending ancestor sweep (``PartitionedCfpArray.project_partition``)
and mines them in core. Whatever the partitioning, pool, hot set or
reader cache, it must find exactly what the in-core mine and the
brute-force oracle find.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.bruteforce import brute_force
from repro.compress import varint
from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import TreeError
from repro.fptree.growth import ListCollector
from repro.storage import PAGE_SIZE, PartitionedCfpArray, save_cfp_array_partitioned
from repro.util.items import prepare_transactions
from tests.conftest import db_strategy, normalize, random_database


def _in_core(database, min_support):
    table, transactions = prepare_transactions(database, min_support)
    array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
    return table, array


def _mine(array, min_support):
    collector = ListCollector()
    mine_array(array, min_support, collector)
    return collector.itemsets


class TestOracleIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        database=db_strategy,
        min_support=st.integers(min_value=1, max_value=6),
        # One rank per partition (1 byte) up to one page, which holds any
        # array this strategy draws in a single partition.
        partition_bytes=st.one_of(
            st.integers(min_value=1, max_value=64), st.just(PAGE_SIZE)
        ),
        pool_pages=st.sampled_from([2, 64]),
        hot_bytes=st.sampled_from([0, 1 << 20]),
        cache_budget=st.sampled_from([0, DEFAULT_CACHE_BUDGET]),
    )
    # min_support above |db|: nothing is frequent, the store has no ranks.
    @example(
        database=[[1, 2], [2, 3]], min_support=3, partition_bytes=1,
        pool_pages=2, hot_bytes=0, cache_budget=0,
    )
    # A single-item database.
    @example(
        database=[[4], [4], [4]], min_support=1, partition_bytes=1,
        pool_pages=2, hot_bytes=0, cache_budget=0,
    )
    # A single-partition store.
    @example(
        database=[[1, 2, 3], [1, 2], [2, 3, 4], [1, 3, 4], [1, 2, 3, 4]],
        min_support=2, partition_bytes=PAGE_SIZE,
        pool_pages=2, hot_bytes=0, cache_budget=0,
    )
    def test_partitioned_equals_in_core_equals_bruteforce(
        self, database, min_support, partition_bytes, pool_pages,
        hot_bytes, cache_budget,
    ):
        table, array = _in_core(database, min_support)
        expected = _mine(array, min_support)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/store.cfpa"
            save_cfp_array_partitioned(array, path, partition_bytes=partition_bytes)
            with PartitionedCfpArray(
                path, pool_pages, cache_budget, hot_bytes=hot_bytes
            ) as disk:
                got = _mine(disk, min_support)
        assert got == expected
        in_items = [(table.ranks_to_items(r), s) for r, s in got]
        assert normalize(in_items) == normalize(brute_force(database, min_support))

    def test_projection_matches_prefix_paths(self, tmp_path):
        table, array = _in_core(random_database(3, 400, 30, 9), 2)
        path = tmp_path / "paths.cfpa"
        for partition_bytes in (64, PAGE_SIZE, 1 << 20):
            save_cfp_array_partitioned(array, path, partition_bytes=partition_bytes)
            with PartitionedCfpArray(path, pool_pages=2) as disk:
                for part in disk.partitions:
                    projection = disk.project_partition(part)
                    ranks = range(part.first_rank, part.last_rank + 1)
                    active = [r for r in ranks if array.subarray_bytes(r)]
                    assert sorted(projection) == active
                    for rank in active:
                        assert projection[rank] == array.prefix_paths(rank)


def _triple(delta_item: int, dpos: int, count: int) -> bytes:
    return (
        varint.encode(delta_item)
        + varint.encode(varint.zigzag(dpos))
        + varint.encode(count)
    )


def _hand_built(subarrays: list[bytes]) -> CfpArray:
    starts = [0, 0]
    buffer = b""
    for sub in subarrays:
        buffer += sub
        starts.append(len(buffer))
    return CfpArray(len(subarrays), buffer, starts)


class TestCorruptLinks:
    """A bad parent link is a TreeError, never a KeyError or IndexError."""

    @pytest.mark.parametrize(
        "subarrays",
        [
            # dpos lands at rank 1 local 1: inside a node, not at its start.
            [_triple(1, 0, 5), _triple(1, -1, 5), _triple(1, 0, 5)],
            # dpos lands past the end of rank 1's subarray.
            [_triple(1, 0, 5), _triple(1, 0, 5), _triple(2, -40, 5)],
            # dpos lands before the start of rank 2's subarray.
            [_triple(1, 0, 5), _triple(1, 0, 5), _triple(1, 7, 5)],
            # delta_item 0: the node names itself as its parent.
            [_triple(1, 0, 5), _triple(0, 0, 5), _triple(1, 0, 5)],
        ],
        ids=["mid-node", "past-end", "before-start", "self-parent"],
    )
    @pytest.mark.parametrize("partition_bytes", [1, PAGE_SIZE])
    def test_corrupt_dpos_raises_tree_error(
        self, subarrays, partition_bytes, tmp_path
    ):
        path = tmp_path / "corrupt.cfpa"
        save_cfp_array_partitioned(
            _hand_built(subarrays), path, partition_bytes=partition_bytes
        )
        with PartitionedCfpArray(path, pool_pages=2) as disk:
            with pytest.raises(TreeError):
                _mine(disk, 1)
