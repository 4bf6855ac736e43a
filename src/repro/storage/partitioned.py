"""Partition-at-a-time out-of-core CFP-array reader (store format v3).

:class:`PartitionedCfpArray` serves the full :class:`repro.core.CfpArray`
traversal interface from a partitioned store while keeping resident only:

* the item index (``starts``) — the paper's "small item index",
* a **pinned hot set**: the most frequent ranks' encoded subarrays, read
  once at open and held outside the buffer pool. Ranks *are* the item
  table's frequency order (rank 1 = most frequent), and parent links
  point strictly toward lower ranks, so every partition's ancestor sweep
  reads these ranks; pinned, they cost no pool traffic,
* a :class:`~repro.storage.bufferpool.BufferPool` over the page file for
  the active partition's pages, and
* the optional decoded-subarray LRU cache shared with every other reader.

The mine loop (:func:`repro.core.cfp_growth.mine_array`) takes its rank
schedule from :meth:`PartitionedCfpArray.mine_schedule`, which visits
partitions in descending rank order. Entering one projects it
(:meth:`PartitionedCfpArray.project_partition`): the prefix paths of
all its nodes are resolved in one descending sweep over ancestor ranks,
each subarray read through the pool once, and handed to the mine with
their ranks, so the partition mines in core. Entering a partition also
calls :meth:`begin_partition`, which hands the next partition(s) in
schedule order to a background
:class:`~repro.storage.bufferpool.Prefetcher`. ``REPRO_PREFETCH=0``
disables the thread; ``REPRO_PREFETCH_DEPTH`` sets how many partitions
ahead to request (default 1). Prefetch is pure opportunism — answers are
identical with it off, dead, or fault-injected (``pagefile.prefetch``).
"""

from __future__ import annotations

import os
from typing import Iterator

from repro import obs
from repro.compress import varint
from repro.core.cfp_array import (
    _LOCAL_BITS,
    CfpArray,
    DecodedSubarray,
    _SubarrayCache,
)
from repro.errors import TreeError
from repro.storage.bufferpool import (
    BufferPool,
    Prefetcher,
    prefetch_depth,
    prefetch_enabled,
)
from repro.storage.cfp_store import (
    PARTITIONED_FORMAT_VERSION,
    PartitionInfo,
    StorageFormatError,
    _verify_content,
    read_array_header,
)
from repro.storage.pagefile import PAGE_SIZE, PageFile


class PartitionedCfpArray(CfpArray):
    """A v3 partitioned CFP-array mined partition-at-a-time through a pool.

    Subclasses :class:`CfpArray` the way
    :class:`~repro.storage.cfp_store.PooledCfpArray` does: the buffer is
    never materialized (``self.buffer`` stays empty) and every
    buffer-touching method is overridden to resolve through the hot set
    or the buffer pool. All recursive traversals (``prefix_paths``,
    ``_resolve_path``, ``single_path``, ``rank_support``) funnel through
    :meth:`subarray_columns`, so they run unchanged; the mine itself
    takes its paths from :meth:`mine_schedule` instead.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        pool_pages: int = 64,
        cache_budget: int = 0,
        *,
        hot_bytes: int = 0,
        prefetch: bool | None = None,
        readahead_partitions: int | None = None,
        verify: bool = False,
    ) -> None:
        self._pagefile = PageFile.open_readonly(path)
        try:
            header = read_array_header(self._pagefile)
            if header.version < PARTITIONED_FORMAT_VERSION:
                raise StorageFormatError(
                    f"not a partitioned CFP-array (format v{header.version}): "
                    f"open with PooledCfpArray/DiskCfpArray, or re-save with "
                    f"save_cfp_array_partitioned"
                )
            if verify:
                _verify_content(self._pagefile, header.content_pages, header.version)
        except Exception:  # lint: ignore[INV004] - close-and-reraise: no pagefile may leak whatever the header read throws
            self._pagefile.close()
            raise
        # Deliberately no super().__init__ (same as PooledCfpArray): it
        # demands the materialized buffer this class exists to avoid.
        self.n_ranks = header.n_ranks
        self.buffer = b""
        self.starts = header.starts
        self._node_count = None
        self._cache = _SubarrayCache(cache_budget) if cache_budget > 0 else None
        self._path_memo = None
        self._active_ranks = None
        self._buffer_len = header.buffer_len
        self.partitions: tuple[PartitionInfo, ...] = header.partitions
        self._rank_part = [0] * (self.n_ranks + 2)
        for part in self.partitions:
            for rank in range(part.first_rank, part.last_rank + 1):
                self._rank_part[rank] = part.index
        # Pinned hot set: most frequent ranks first (lowest rank numbers),
        # while their cumulative encoded bytes fit the hot budget. Read
        # directly from the page file — hot residency is accounted here,
        # not as pool traffic.
        self._hot: dict[int, bytes] = {}
        self._hot_bytes = 0
        budget = max(0, hot_bytes)
        for rank in range(1, self.n_ranks + 1):
            length = self.starts[rank + 1] - self.starts[rank]
            if length == 0:
                continue
            if self._hot_bytes + length > budget:
                break
            self._hot[rank] = self._read_span(self._file_offset(rank), length)
            self._hot_bytes += length
        self.pool = BufferPool(self._pagefile, pool_pages)
        if prefetch is None:
            prefetch = prefetch_enabled()
        depth = (
            readahead_partitions
            if readahead_partitions is not None
            else prefetch_depth()
        )
        self._prefetch_depth = max(0, depth)
        self._prefetcher: Prefetcher | None = (
            Prefetcher(self.pool) if prefetch and self._prefetch_depth > 0 else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None
        self.pool.publish_metrics()
        self._pagefile.close()

    def __enter__(self) -> "PartitionedCfpArray":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Partition scheduling
    # ------------------------------------------------------------------

    def active_ranks_descending(self) -> Iterator[int]:
        """Non-empty ranks, least frequent first, partition by partition.

        Partitions are visited highest ranks first and ranks descending
        within each, which concatenates to exactly the monolithic array's
        order — the order :meth:`mine_schedule` mines in, so the
        out-of-core mine is byte-identical to the in-core one. Entering a
        partition calls :meth:`begin_partition`, which starts read-ahead
        of the next one before the active partition is scanned.
        """
        starts = self.starts
        for part in reversed(self.partitions):
            self.begin_partition(part.index)
            for rank in range(part.last_rank, part.first_rank - 1, -1):
                if starts[rank + 1] > starts[rank]:
                    yield rank

    def mine_schedule(
        self,
    ) -> Iterator[tuple[int, list[tuple[tuple[int, ...], int]] | None]]:
        """``(rank, prefix_paths)`` pairs, partition by partition.

        The same rank order as :meth:`active_ranks_descending`, with each
        rank's prefix paths resolved by :meth:`project_partition` as its
        partition is entered, so the partition then mines in core. The
        projection is a local of this generator, never reader state: a
        served store is mined and queried from different threads.
        """
        for part in reversed(self.partitions):
            self.begin_partition(part.index)
            projection = self.project_partition(part)
            for rank in sorted(projection, reverse=True):
                yield rank, projection.pop(rank)

    def project_partition(
        self, part: PartitionInfo
    ) -> dict[int, list[tuple[tuple[int, ...], int]]]:
        """Prefix paths of every node in one partition, in one ancestor sweep.

        Returns ``{rank: [(ancestor_ranks_ascending, count), ...]}`` for
        the partition's non-empty ranks, nodes in storage order — what
        :meth:`prefix_paths` returns rank by rank. With a tracer owned by
        the calling thread, one ``partition_project`` span records the
        sweep's ranks, nodes, ancestor ranks read and pool bytes read.
        """
        tracer = obs.owned_tracer()
        if tracer is None:
            return self._sweep(part)[0]
        span = tracer.begin_span("partition_project", {"partition": part.index})
        try:
            bytes_before = self.pool.stats.bytes_read
            projection, nodes, ancestor_ranks = self._sweep(part)
            span.set("ranks", len(projection))
            span.set("nodes", nodes)
            span.set("ancestor_ranks", ancestor_ranks)
            span.set("bytes_read", self.pool.stats.bytes_read - bytes_before)
        finally:
            tracer.end_span(span)
        return projection

    def _sweep(
        self, part: PartitionInfo
    ) -> tuple[dict[int, list[tuple[tuple[int, ...], int]]], int, int]:
        """:meth:`project_partition`'s work: ``(projection, nodes, ancestor_ranks)``.

        Parents always sit at lower ranks, so one pass over ranks in
        descending order reaches every ancestor after all of its
        descendants: each rank's subarray is read and decoded once per
        partition, and each ancestor node is visited once however many
        paths run through it. A dpos chain that lands off a node start, or
        a parent link that does not point to a lower rank, raises
        :class:`TreeError`.
        """
        starts = self.starts
        # Packed (rank, local) key of every visited node -> its parent's
        # key (0 = the root), in visiting order: descending rank.
        parent_of: dict[int, int] = {}
        # Ancestor locals requested per rank, served when the sweep gets there.
        wanted: dict[int, set[int]] = {}
        own: dict[int, DecodedSubarray] = {}
        ancestor_ranks = 0
        for rank in range(part.last_rank, 0, -1):
            requested = wanted.pop(rank, None)
            in_partition = rank >= part.first_rank
            if in_partition:
                if starts[rank + 1] == starts[rank]:
                    continue
                entry = own[rank] = self.subarray_columns(rank)
            elif requested is None:
                continue
            else:
                entry = self.subarray_columns(rank)
                ancestor_ranks += 1
            rows: list[int] = []
            if requested is not None:
                index_of = entry.index_of
                for local in requested:
                    index = index_of(local)
                    if index is None:
                        raise TreeError(
                            f"dpos chain lands at rank {rank} local {local}, "
                            f"not a node start"
                        )
                    rows.append(index)
            locals_col = entry.locals
            delta_items = entry.delta_items
            dposes = entry.dposes
            key_base = rank << _LOCAL_BITS
            for index in range(len(entry)) if in_partition else rows:
                local = locals_col[index]
                parent_rank = rank - delta_items[index]
                if parent_rank == 0:
                    parent_of[key_base | local] = 0
                    continue
                if not 0 < parent_rank < rank:
                    raise TreeError(
                        f"node at rank {rank} local {local} links to rank "
                        f"{parent_rank}, not a lower rank"
                    )
                parent_local = local - dposes[index]
                parent_of[key_base | local] = (parent_rank << _LOCAL_BITS) | parent_local
                pending = wanted.get(parent_rank)
                if pending is None:
                    wanted[parent_rank] = {parent_local}
                else:
                    pending.add(parent_local)
        # Unwind in ascending rank order, parents before children: the
        # path through a node is its parent's plus the node's own rank.
        through: dict[int, tuple[int, ...]] = {0: ()}
        for key, parent in reversed(parent_of.items()):
            through[key] = through[parent] + (key >> _LOCAL_BITS,)
        projection = {}
        nodes = 0
        for rank, entry in own.items():
            key_base = rank << _LOCAL_BITS
            projection[rank] = [
                (through[parent_of[key_base | local]], count)
                for local, count in zip(entry.locals, entry.counts)
            ]
            nodes += len(entry)
        return projection, nodes, ancestor_ranks

    def begin_partition(self, index: int) -> None:
        """Announce that partition ``index`` is about to be mined.

        Issues background read-ahead for the next partition(s) in the
        schedule (descending indices) so their pages stream in while the
        active partition is mined. A no-op when prefetch is disabled or
        the prefetcher thread has died — demand reads stay correct.
        """
        prefetcher = self._prefetcher
        if prefetcher is None:
            return
        for ahead in range(1, self._prefetch_depth + 1):
            upcoming = index - ahead
            if upcoming < 0:
                break
            part = self.partitions[upcoming]
            prefetcher.request(part.data_page, part.pages)

    def prefetch_drain(self, timeout: float = 5.0) -> None:
        """Wait for queued read-ahead (deterministic tests/benches only)."""
        if self._prefetcher is not None:
            self._prefetcher.drain(timeout)

    # ------------------------------------------------------------------
    # Buffer access through the hot set / pool
    # ------------------------------------------------------------------

    def _file_offset(self, rank: int) -> int:
        """Absolute file byte offset of ``rank``'s subarray."""
        part = self.partitions[self._rank_part[rank]]
        return part.data_page * PAGE_SIZE + (
            self.starts[rank] - self.starts[part.first_rank]
        )

    def _read_span(self, file_offset: int, length: int) -> bytes:
        """Read a byte span straight from the page file (hot-set load)."""
        if length == 0:
            return b""
        first_page = file_offset // PAGE_SIZE
        last_page = (file_offset + length - 1) // PAGE_SIZE
        blob = self._pagefile.read_pages(first_page, last_page - first_page + 1)
        start = file_offset - first_page * PAGE_SIZE
        return blob[start : start + length]

    def _fetch_rank_bytes(self, rank: int) -> bytes:
        """Encoded subarray bytes: pinned hot copy, or a pool read."""
        hot = self._hot.get(rank)
        if hot is not None:
            return hot
        length = self.starts[rank + 1] - self.starts[rank]
        if length == 0:
            return b""
        return self.pool.read(self._file_offset(rank), length)

    def subarray_columns(self, rank: int) -> DecodedSubarray:
        cache = self._cache
        if cache is not None:
            cached = cache.get(rank)
            if cached is not None:
                return cached
        self._check_rank(rank)
        chunk = self._fetch_rank_bytes(rank)
        entry = DecodedSubarray(*varint.decode_triples_columns(chunk, 0, len(chunk)))
        if cache is not None:
            cache.put(rank, entry, entry.decoded_bytes)
        return entry

    @property
    def node_count(self) -> int:
        """Lazy count via per-subarray terminator scans (no decode)."""
        if self._node_count is None:
            total = 0
            for rank in range(1, self.n_ranks + 1):
                chunk = self._fetch_rank_bytes(rank)
                if chunk:
                    total += varint.count_triples(chunk, 0, len(chunk))
            self._node_count = total
        return self._node_count

    def node_at(self, rank: int, local: int) -> tuple[int, int, int]:
        self._check_rank(rank)
        entry = self.subarray_columns(rank)
        index = entry.index_of(local)
        if index is None:
            raise TreeError(
                f"local offset {local} outside subarray of rank {rank}"
            )
        return entry.delta_items[index], entry.dposes[index], entry.counts[index]

    def path_ranks(self, rank: int, local: int) -> list[int]:
        path = []
        while True:
            delta_item, dpos, __ = self.node_at(rank, local)
            parent_rank = rank - delta_item
            if parent_rank == 0:
                break
            local = local - dpos
            rank = parent_rank
            path.append(rank)
        path.reverse()
        return path

    def item_of_position(self, offset: int) -> int:
        if not 0 <= offset < self._buffer_len:
            raise TreeError(f"offset {offset} outside the CFP-array buffer")
        low, high = 1, self.n_ranks
        while low < high:
            mid = (low + high + 1) // 2
            if self.starts[mid] <= offset:
                low = mid
            else:
                high = mid - 1
        while self.starts[low + 1] == self.starts[low]:
            low -= 1
        return low

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def hot_bytes(self) -> int:
        """Encoded bytes pinned in the hot set."""
        return self._hot_bytes

    @property
    def hot_ranks(self) -> int:
        """Number of ranks pinned in the hot set."""
        return len(self._hot)

    @property
    def memory_bytes(self) -> int:
        """Resident bytes: pool, item index, cache budget, and hot set."""
        return (
            self.pool.capacity_bytes
            + (self.n_ranks + 1) * 5
            + self.cache_budget
            + self._hot_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedCfpArray(n_ranks={self.n_ranks}, "
            f"partitions={len(self.partitions)}, "
            f"pool_pages={self.pool.capacity_pages}, "
            f"hot_bytes={self._hot_bytes})"
        )


__all__ = ["PartitionedCfpArray"]
