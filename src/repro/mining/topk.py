"""Top-k frequent itemsets with a dynamically rising support threshold.

Instead of guessing a minimum support, the miner keeps a size-k min-heap
of the best supports seen; once the heap is full, the heap's minimum
becomes the *effective* support threshold for the rest of the search.
Raising the threshold mid-run is sound because support is anti-monotone —
the standard top-k FIM technique.

Itemsets of support below ``min_support_floor`` (default 1) are never
considered; ``min_length`` filters trivial singletons if desired.
"""

from __future__ import annotations

import heapq
from typing import Hashable

from repro.core.cfp_array import CfpArray
from repro.core.cfp_growth import mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.errors import ExperimentError
from repro.util.items import TransactionDatabase, prepare_transactions


class _RevRanks:
    """Rank tuple with reversed comparison, for heap-boundary ordering.

    The min-heap's root must be the *canonically worst* resident itemset:
    lowest support, and among support ties the lexicographically
    **largest** rank tuple (so the smallest-ranked itemset survives a tie,
    matching the ``(-support, ranks)`` order :meth:`_TopKCollector.results`
    reports). ``heapq`` only needs ``__lt__``; negating tuple elements
    does not work for prefix ties (``(1,) < (1, 2)`` must flip), hence a
    wrapper instead of arithmetic.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]) -> None:
        self.ranks = ranks

    def __lt__(self, other: "_RevRanks") -> bool:
        return self.ranks > other.ranks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevRanks) and self.ranks == other.ranks


class _TopKCollector:
    """Size-k min-heap with a rising threshold.

    Satisfies the :class:`repro.core.cfp_growth.SupportCollector`
    protocol. Two properties make its answer exact:

    * **dedup** — an itemset reachable through several prefix paths may be
      emitted more than once by an enumerator; a membership set keeps one
      heap entry per itemset, so duplicates can never crowd distinct
      itemsets out of the top k;
    * **order-independence** — the boundary comparison is the total order
      ``(support desc, ranks asc)``, support ties included, so the final
      k-set (and :meth:`results`) is a pure function of the emitted
      (itemset, support) pairs, whatever order a miner discovers them in.
      The old ``support > heap[0]`` comparison kept whichever tie arrived
      first — tree- and array-order enumerations of the same database
      could report different k-sets.
    """

    def __init__(self, k: int, min_length: int, floor: int):
        self.k = k
        self.min_length = min_length
        self.floor = floor
        self._heap: list[tuple[int, _RevRanks]] = []
        self._members: set[tuple[int, ...]] = set()

    @property
    def threshold(self) -> int:
        if len(self._heap) < self.k:
            return self.floor
        return max(self.floor, self._heap[0][0])

    def emit(self, ranks: tuple[int, ...], support: int) -> None:
        if len(ranks) < self.min_length or support < self.threshold:
            return
        key = tuple(sorted(ranks))
        if key in self._members:
            # Same itemset via another prefix path: its support is a
            # function of the itemset, so the resident entry already
            # carries it — a second entry would double-fill the heap.
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (support, _RevRanks(key)))
            self._members.add(key)
            return
        worst_support, worst = self._heap[0]
        if support > worst_support or (
            support == worst_support and key < worst.ranks
        ):
            heapq.heapreplace(self._heap, (support, _RevRanks(key)))
            self._members.discard(worst.ranks)
            self._members.add(key)

    def emit_path_subsets(self, path, suffix) -> None:
        # Enumerate subsets whose deepest element sets the support, but
        # stop expanding once supports fall below the threshold (counts
        # along a path are non-increasing).
        subsets: list[tuple[int, ...]] = [()]
        for rank, count in path:
            if count < self.threshold and len(self._heap) >= self.k:
                break
            for subset in list(subsets):
                self.emit(subset + (rank,) + suffix, count)
                subsets.append(subset + (rank,))

    def results(self) -> list[tuple[tuple[int, ...], int]]:
        ordered = sorted(self._heap, key=lambda e: (-e[0], e[1].ranks))
        return [(entry.ranks, support) for support, entry in ordered]


def top_k_itemsets(
    database: TransactionDatabase,
    k: int,
    min_length: int = 1,
    min_support_floor: int = 1,
) -> list[tuple[tuple[Hashable, ...], int]]:
    """The ``k`` highest-support itemsets (ties broken lexicographically)."""
    check_top_k_arguments(k, min_length)
    table, transactions = prepare_transactions(database, min_support_floor)
    array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
    return [
        (table.ranks_to_items(ranks), support)
        for ranks, support in mine_top_k(array, k, min_length, min_support_floor)
    ]


def mine_top_k(
    array: CfpArray,
    k: int,
    min_length: int = 1,
    min_support_floor: int = 1,
) -> list[tuple[tuple[int, ...], int]]:
    """Top-k over a built CFP-array, in rank vocabulary.

    For a raw database mined at a low floor, where the full itemset list
    cannot be enumerated (a serving store, which already has its
    ``min_support`` collection, slices that instead). The mine is the
    ordinary §2.1 loop (:func:`repro.core.cfp_growth.mine_array`) with
    ``min_support_floor`` as its ``min_support``; the collector's rising
    heap bound reaches the loop as ``collector.threshold`` and prunes the
    rest of the search. With ``min_length == 1`` the bound starts at the
    k-th largest item support instead of the floor. Because the
    collector's k-set is order-independent, the result is identical to
    the full enumeration's top k.
    """
    check_top_k_arguments(k, min_length)
    floor = max(1, min_support_floor)
    if min_length == 1:
        # Any k singletons bound the k-th best support from below, so the
        # k-th largest item support is a sound starting threshold. Take it
        # over the supports, not rank k: a frozen streaming table leaves
        # rank order != support order.
        supports = heapq.nlargest(
            k, map(array.rank_support, array.active_ranks_descending())
        )
        if len(supports) == k:
            floor = max(floor, supports[-1])
    collector = _TopKCollector(k, min_length, floor)
    mine_array(array, floor, collector)
    return collector.results()


def check_top_k_arguments(k: int, min_length: int) -> None:
    """Reject a top-k query no ranking can answer (``k`` or ``min_length`` < 1)."""
    if k < 1:
        raise ExperimentError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise ExperimentError(f"min_length must be >= 1, got {min_length}")
