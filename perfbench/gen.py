"""Seeded inputs for the benchmark: a Quest-style generator and a query mix.

Both are ported here on purpose, so that no change to ``repro.datasets``
or ``repro.serving.loadgen`` can change what the benchmark measures.

The Quest model follows Agrawal and Srikant: a pool of potentially
frequent patterns with Poisson lengths, exponential weights, per-pattern
corruption levels and a share of items inherited from the previous
pattern; each transaction is filled with weighted, corrupted pattern
picks. One deliberate difference from ``repro.datasets.quest``: the
whole pool (pattern lengths, weights, corruption levels, inherited
shares and the items themselves) is drawn once from a fixed shape seed,
and the run seed picks only the transactions. Itemset counts at low
support are dominated by the few heavy long patterns, so letting the seed
redraw the pool would swing the work per run by 20% or more between
seeds. With the pool fixed, a new seed gives a new sample of the same
model, which is what a held-out check needs.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

#: Seed of the pattern pool; never derived from the run seed.
SHAPE_SEED = 20110321


@dataclass(frozen=True)
class QuestSpec:
    n_transactions: int
    avg_transaction_length: float
    avg_pattern_length: float
    n_items: int
    n_patterns: int
    correlation: float = 0.5
    corruption_mean: float = 0.5
    corruption_sd: float = 0.1


def _poisson(rng: random.Random, mean: float) -> int:
    limit = math.exp(-mean)
    product = rng.random()
    count = 0
    while product > limit:
        product *= rng.random()
        count += 1
    return count


class QuestStream:
    """Quest-model transactions; the same ``(spec, seed)`` gives the same data."""

    def __init__(self, spec: QuestSpec, seed: int) -> None:
        self.spec = spec
        shape = random.Random(SHAPE_SEED)
        lengths = [
            min(spec.n_items, max(1, _poisson(shape, spec.avg_pattern_length)))
            for __ in range(spec.n_patterns)
        ]
        inherit = [min(1.0, shape.expovariate(1.0) * spec.correlation) for __ in lengths]
        corruption = [
            min(0.98, max(0.0, shape.gauss(spec.corruption_mean, spec.corruption_sd)))
            for __ in lengths
        ]
        weights = [shape.expovariate(1.0) for __ in lengths]
        total = sum(weights)
        running = 0.0
        self._cumulative = []
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0
        self._corruption = corruption

        self._patterns: list[list[int]] = []
        previous: list[int] = []
        for length, share in zip(lengths, inherit):
            pattern: set[int] = set()
            if previous:
                pattern.update(shape.sample(previous, min(len(previous), int(length * share))))
            while len(pattern) < length:
                pattern.add(shape.randrange(spec.n_items))
            previous = sorted(pattern)
            self._patterns.append(previous)
        self._rng = random.Random(seed * 1_000_003 + 1)

    def _pick(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random())

    def next_transaction(self) -> list[int]:
        rng = self._rng
        target = max(1, _poisson(rng, self.spec.avg_transaction_length))
        transaction: set[int] = set()
        guard = 0
        while len(transaction) < target and guard < 8 * target:
            guard += 1
            pattern = self._patterns[self._pick()]
            corruption = self._corruption[self._pick()]
            kept = [item for item in pattern if rng.random() >= corruption]
            if not kept:
                continue
            if len(transaction) + len(kept) > target and transaction and rng.random() < 0.5:
                break
            transaction.update(kept)
        if not transaction:
            transaction.add(rng.randrange(self.spec.n_items))
        return sorted(transaction)

    def take(self, count: int) -> list[list[int]]:
        return [self.next_transaction() for __ in range(count)]


def quest(spec: QuestSpec, seed: int) -> list[list[int]]:
    """The whole database of ``spec`` for ``seed``."""
    return QuestStream(spec, seed).take(spec.n_transactions)


#: Request mix of serve-mix, by count, exact in every block of
#: :data:`BLOCK` requests. topk takes most of the server's time.
MIX = (("support", 0.87), ("topk", 0.03), ("rules", 0.10))
BLOCK = 100
TOPK_K = (5, 10, 20)
TOPK_MIN_LENGTH = (1, 2)
#: At 0.8 the serve-mix store has no rules at all, so both are lower.
RULE_CONFIDENCES = (0.3, 0.5)
ZIPF_EXPONENT = 1.1


def query_mix(items: list, seed: int, count: int) -> list[dict]:
    """``count`` NDJSON requests over ``items`` (most frequent first).

    Itemsets and baskets are 1-3 distinct items drawn Zipf-skewed by
    frequency rank, so a few hot items dominate as in real traffic.
    """
    rng = random.Random(seed * 7_919 + 3)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(items))]
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    # The op sequence is stratified: every block of requests holds the
    # exact mix, topk sits in evenly spaced slots and cycles through its
    # parameter pairs, so a phase of whole blocks sees the same expensive
    # requests for every seed, and they do not overlap at the nominal rate.
    others = [op for op, share in MIX if op != "topk" for __ in range(round(share * BLOCK))]
    n_topk = BLOCK - len(others)
    topk_slots = {(2 * i + 1) * BLOCK // (2 * n_topk) for i in range(n_topk)}
    topk_params = [(k, length) for length in TOPK_MIN_LENGTH for k in TOPK_K]

    def itemset() -> list:
        size = min(len(items), rng.randint(1, 3))
        chosen: list = []
        while len(chosen) < size:
            item = rng.choices(items, cum_weights=cumulative)[0]
            if item not in chosen:
                chosen.append(item)
        return chosen

    requests = []
    ops: list[str] = []
    topk_seen = 0
    for index in range(count):
        if index % BLOCK == 0:
            ops = list(others)
            rng.shuffle(ops)
        op = "topk" if index % BLOCK in topk_slots else ops.pop()
        if op == "support":
            request = {"op": "support", "items": itemset()}
        elif op == "topk":
            k, length = topk_params[topk_seen % len(topk_params)]
            topk_seen += 1
            request = {"op": "topk", "k": k, "min_length": length}
        else:
            request = {"op": "rules", "basket": itemset(), "limit": 10,
                       "min_confidence": rng.choice(RULE_CONFIDENCES)}
        request["id"] = index
        requests.append(request)
    return requests
