"""ooc-mine: ``repro.mine_with_budget`` with about a tenth of the array bytes.

Paging does most of the work here: the array is larger than the buffer
pool, so each conditional's prefix-path walk faults pages back in. Bytes
read over array bytes is the cost that matters (Grahne and Zhu's
secondary-memory mining). The array is larger than the pool here and fits
in serve-mix, so a paging change that costs the resident case shows there.
"""

from __future__ import annotations

import time

from common import (
    Context, ReferenceSampler, Result, canonical, digest, mean, median, same_itemsets,
    timed_setups,
)
from gen import QuestSpec, quest

from repro import mine_with_budget, obs
from repro.budget import MIN_POOL_PAGES
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import ListCollector
from repro.storage.pagefile import PAGE_SIZE
from repro.util.items import prepare_transactions

#: Wide vocabulary and little sharing, so the array is large for its
#: transaction count; sized so one out-of-core mine takes seconds.
SPEC = QuestSpec(800, 12.0, 4.0, 500, 120)
TINY = QuestSpec(500, 10.0, 3.0, 300, 60)
MIN_SUPPORT_FRAC = 0.01

#: The budget is array bytes over this, floored at the smallest pool.
RATIO = 10

MIN_RUNS = 3


def _setup(spec: QuestSpec, seed: int) -> dict:
    """Inputs plus the in-core mine: the oracle and the slowdown's base."""
    database = quest(spec, seed)
    min_support = max(2, round(spec.n_transactions * MIN_SUPPORT_FRAC))
    started = time.perf_counter()
    table, transactions = prepare_transactions(database, min_support)
    tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
    tree_bytes = tree.memory_bytes
    array = convert(tree)
    del tree
    array.set_cache_budget(DEFAULT_CACHE_BUDGET)
    collector = ListCollector()
    mine_array(array, min_support, collector)
    incore_s = time.perf_counter() - started
    oracle = canonical(
        (table.ranks_to_items(ranks), support) for ranks, support in collector.itemsets
    )
    return {"database": database, "min_support": min_support, "oracle": oracle,
            "array_bytes": array.memory_bytes, "tree_bytes": tree_bytes,
            "incore_s": incore_s}


def run(ctx: Context) -> Result:
    spec = TINY if ctx.tiny else SPEC
    result = Result()
    with ctx.scratch("ooc-") as directory:
        incore = []

        def make() -> dict:
            state = _setup(spec, ctx.seed)
            incore.append(state["incore_s"])
            return state

        state, setup_s = timed_setups(make, lambda s: None)
        array_bytes = state["array_bytes"]
        budget = max(MIN_POOL_PAGES * PAGE_SIZE, array_bytes // RATIO)
        untraced: list[float] = []
        ops: list[tuple[float, float]] = []
        traced: list[dict] = []
        report = None
        deadline = time.perf_counter() + ctx.seconds
        runs = 0
        with ReferenceSampler() as reference:
            while runs < MIN_RUNS or time.perf_counter() < deadline:
                tracing = ctx.trace and runs % 2 == 1
                before = obs.metrics.counters()
                previous = obs.set_tracer(obs.Tracer()) if tracing else None
                try:
                    with ctx.recorder.span("ooc.mine_with_budget", traced=tracing) as t:
                        itemsets, report = mine_with_budget(
                            database=state["database"], min_support=state["min_support"],
                            memory_budget=budget, spill_dir=directory)
                finally:
                    if tracing:
                        ctx.program_spans.extend(obs.get_tracer().export())
                        obs.set_tracer(previous)
                after = obs.metrics.counters()
                runs += 1
                result.check(
                    report.went_out_of_core and same_itemsets(itemsets, state["oracle"]),
                    f"run {runs}: out_of_core={report.went_out_of_core}, "
                    f"{len(itemsets)} itemsets vs {len(state['oracle'])} in core",
                )
                if tracing:
                    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
                    traced.append({"s": t["s"], "counters": delta})
                else:
                    untraced.append(t["s"])
                    ops.append((t["start"], t["s"]))

    ooc_s = median(untraced)
    ratios = reference.ratios(ops)
    result.end_to_end = {"setup_s": setup_s, "array_bytes": array_bytes,
                         "op_p50_norm": median(ratios), "op_mean_norm": mean(ratios)}
    result.named = {
        "ooc_s": (ooc_s, "s"),
        "ooc_read_amp": (report.bytes_read / array_bytes, "ratio"),
        "array_bytes": (array_bytes, "bytes"),
    }
    result.info.update(
        transactions=spec.n_transactions, min_support=state["min_support"],
        itemsets=len(state["oracle"]), runs=runs, run_s=untraced, budget_bytes=budget,
        ratio=array_bytes / budget, pool_pages=report.pool_pages,
        partitions=report.partitions, hot_bytes=report.hot_bytes,
        tree_bytes=state["tree_bytes"], bytes_read=report.bytes_read,
        page_faults=report.page_faults, input_digest=digest(state["database"]),
        **reference.info(),
    )
    if ctx.trace:
        incore_s = median(incore)
        def counter(name: str) -> float:
            return median([run["counters"].get(name, 0) for run in traced])

        faults, hits = counter("bufferpool.faults"), counter("bufferpool.hits")
        pages, prefetch_hits = counter("prefetch.pages"), counter("prefetch.hits")
        cache_hits = counter("subarray_cache.hits")
        cache_misses = counter("subarray_cache.misses")
        traced_s = median([run["s"] for run in traced])
        result.per_layer.update({
            "bufferpool.faults": faults,
            "bufferpool.hits": hits,
            "bufferpool.hit_ratio": hits / (hits + faults) if hits + faults else 0.0,
            "bufferpool.bytes_read": counter("bufferpool.bytes_read"),
            "prefetch.pages": pages,
            "prefetch.hits": prefetch_hits,
            "prefetch.hit_ratio": prefetch_hits / pages if pages else 0.0,
            "cfp_array.cache_hits": cache_hits,
            "cfp_array.cache_misses": cache_misses,
            "cfp_array.cache_hit_ratio": (
                cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0
            ),
            "ooc.incore_mine_s": incore_s,
            "ooc.slowdown": ooc_s / incore_s,
            "obs.trace_overhead_frac": traced_s / ooc_s - 1.0,
        })
    return result


#: Per-layer metrics this workload measures; the others read 0 here.
LAYERS = (
    "bufferpool.faults", "bufferpool.hits", "bufferpool.hit_ratio",
    "bufferpool.bytes_read", "prefetch.pages", "prefetch.hits", "prefetch.hit_ratio",
    "cfp_array.cache_hits", "cfp_array.cache_misses", "cfp_array.cache_hit_ratio",
    "ooc.incore_mine_s", "ooc.slowdown", "obs.trace_overhead_frac",
)
