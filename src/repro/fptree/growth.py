"""The reference FP-growth miner (paper §2.1).

FP-growth is divide-and-conquer: for each rank, taken least frequent first,
the prefixes ending in that rank form a *conditional pattern base*; a new
(conditional) FP-tree is built from it and mined recursively. When a tree
degenerates to a single path, every subset of the path is frequent and is
emitted directly — the classic single-path shortcut.

Results are reported through a collector so that callers can either
materialize all itemsets (:class:`ListCollector`) or just count them
combinatorially without enumerating the exponential single-path subsets
(:class:`CountCollector`), which is what the large benchmark sweeps use.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable

from repro.fptree.tree import FPTree
from repro.util.items import TransactionDatabase, prepare_transactions


class ListCollector:
    """Materializes every frequent itemset as ``(ranks_tuple, support)``."""

    #: No support floor of its own (see ``SupportCollector.threshold``).
    threshold = 0

    def __init__(self):
        self.itemsets: list[tuple[tuple[int, ...], int]] = []

    def emit(self, ranks: tuple[int, ...], support: int) -> None:
        self.itemsets.append((ranks, support))

    def emit_path_subsets(
        self, path: list[tuple[int, int]], suffix: tuple[int, ...]
    ) -> None:
        """Emit every non-empty subset of a single path combined with ``suffix``.

        ``path`` holds ``(rank, count)`` pairs with non-increasing counts, so
        a subset's support is the count of its deepest member.
        """
        emit = self.emit
        # subsets[i] enumerates the subsets of path[:i] as rank tuples.
        subsets: list[tuple[int, ...]] = [()]
        for rank, count in path:
            for subset in list(subsets):
                itemset = subset + (rank,) + suffix
                emit(itemset, count)
                subsets.append(subset + (rank,))


class CountCollector:
    """Counts frequent itemsets without materializing single-path subsets."""

    threshold = 0

    def __init__(self):
        self.count = 0

    def emit(self, ranks: tuple[int, ...], support: int) -> None:
        self.count += 1

    def emit_path_subsets(
        self, path: list[tuple[int, int]], suffix: tuple[int, ...]
    ) -> None:
        self.count += (1 << len(path)) - 1


def mine_tree(
    tree: FPTree,
    min_support: int,
    collector,
    suffix: tuple[int, ...] = (),
    meter=None,
    node_bytes: int = 40,
) -> None:
    """Recursively mine ``tree``; emit itemsets (as ascending rank tuples).

    ``meter``, when given, receives structure-built/freed events for every
    conditional tree (sized at ``node_bytes`` per node — 40 B for the
    state-of-the-art FP-growth baseline, §4.2) plus traversal op counts.
    """
    path = tree.single_path()
    if path is not None:
        if path:
            collector.emit_path_subsets(path, suffix)
        return
    for rank in tree.active_ranks_descending():
        support = tree.rank_count(rank)
        itemset = (rank,) + suffix
        collector.emit(itemset, support)
        conditional = _conditional_tree(tree, rank, min_support, meter)
        if conditional is not None:
            size = conditional.node_count * node_bytes
            if meter is not None:
                meter.on_structure_built(size)
            mine_tree(conditional, min_support, collector, itemset, meter, node_bytes)
            if meter is not None:
                meter.on_structure_freed(size)


def _conditional_tree(
    tree: FPTree, rank: int, min_support: int, meter=None
) -> FPTree | None:
    """Build the conditional FP-tree for ``rank``, or None if it is empty."""
    paths = []
    counts: dict[int, int] = defaultdict(int)
    visits = 0
    for path_ranks, count in tree.prefix_paths(rank):
        visits += len(path_ranks) + 1
        if path_ranks:
            paths.append((path_ranks, count))
            for path_rank in path_ranks:
                counts[path_rank] += count
    if meter is not None:
        meter.add_ops(visits, visits * 12)  # parent hops touch node records
    frequent = {r for r, c in counts.items() if c >= min_support}
    if not frequent:
        return None
    conditional = FPTree(tree.n_ranks)
    for path_ranks, count in paths:
        filtered = [r for r in path_ranks if r in frequent]
        if filtered:
            conditional.insert(filtered, count)
    if conditional.is_empty():
        return None
    return conditional


def mine_ranks(
    transactions: Iterable[list[int]],
    n_ranks: int,
    min_support: int,
    collector=None,
):
    """Mine prepared rank transactions; returns the collector used."""
    if collector is None:
        collector = ListCollector()
    tree = FPTree.from_rank_transactions(transactions, n_ranks)
    mine_tree(tree, min_support, collector)
    return collector


def fp_growth(
    database: TransactionDatabase, min_support: int
) -> list[tuple[tuple[Hashable, ...], int]]:
    """End-to-end FP-growth over an item-level database.

    Returns ``(itemset, support)`` pairs with itemsets in the caller's item
    vocabulary (ordered by descending item frequency).
    """
    table, transactions = prepare_transactions(database, min_support)
    collector = ListCollector()
    mine_ranks(transactions, len(table), min_support, collector)
    return [
        (table.ranks_to_items(ranks), support)
        for ranks, support in collector.itemsets
    ]


class FPGrowthMiner:
    """Miner-interface wrapper around :func:`fp_growth` (see algorithms)."""

    name = "fp-growth"

    def mine(self, database: TransactionDatabase, min_support: int):
        return fp_growth(database, min_support)
