"""mine-deep: batch CFP-growth, raw transactions to itemsets, at low support.

Each pass runs prepare -> build -> convert -> mine on fresh structures.
Mine is 55-60% of a pass and build about 30%, so a mine-kernel change
shows here and not in stream-window, which never mines.
"""

from __future__ import annotations

import time

from common import (
    Context, ReferenceSampler, Result, canonical, digest, mean, median, same_itemsets,
    timed_setups,
)
from gen import QuestSpec, quest

from repro import obs
from repro.algorithms.base import get_miner
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET, mine_array
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.fptree.growth import CountCollector, ListCollector
from repro.util.items import prepare_transactions

SPEC = QuestSpec(12_000, 10.0, 4.0, 1_000, 300)
TINY = QuestSpec(600, 8.0, 3.0, 120, 40)

#: 0.1% of the transactions (1% at tiny size, to keep it tiny).
MIN_SUPPORT_FRAC = 0.001
TINY_MIN_SUPPORT_FRAC = 0.01

#: Passes below which a run does not stop, whatever ``--seconds`` says.
MIN_PASSES = 3

#: Phase self times must add back up to the pass within this share.
SELF_TIME_TOLERANCE = 0.05

PHASES = ("items.prepare", "ternary.build", "conversion.convert", "cfp_growth.mine")


def _setup(spec: QuestSpec, seed: int, support_frac: float) -> dict:
    database = quest(spec, seed)
    min_support = max(2, round(spec.n_transactions * support_frac))
    oracle = canonical(get_miner("eclat").mine(database, min_support))
    return {"database": database, "min_support": min_support, "oracle": oracle}


def _pass(ctx: Context, state: dict, traced: bool) -> tuple[dict, list, object]:
    """One full pass; returns phase timings, the itemsets and the array."""
    rec = ctx.recorder
    database, min_support = state["database"], state["min_support"]
    out: dict = {}
    with rec.span("pass", traced=traced) as whole:
        with rec.span("items.prepare") as t:
            table, transactions = prepare_transactions(database, min_support)
        out["items.prepare"] = t
        with rec.span("ternary.build") as t:
            tree = TernaryCfpTree.from_rank_transactions(transactions, len(table))
        out["ternary.build"] = t
        out["tree_bytes"] = tree.memory_bytes
        out["tree_nodes"] = tree.node_count
        with rec.span("conversion.convert") as t:
            array = convert(tree)
            del tree
            array.set_cache_budget(DEFAULT_CACHE_BUDGET)
        out["conversion.convert"] = t
        with rec.span("cfp_growth.mine") as t:
            collector = ListCollector()
            mine_array(array, min_support, collector)
            itemsets = [
                (table.ranks_to_items(ranks), support)
                for ranks, support in collector.itemsets
            ]
        out["cfp_growth.mine"] = t
    out["pass"] = whole
    return out, itemsets, array


def run(ctx: Context) -> Result:
    spec, frac = (TINY, TINY_MIN_SUPPORT_FRAC) if ctx.tiny else (SPEC, MIN_SUPPORT_FRAC)
    result = Result()
    state, setup_s = timed_setups(lambda: _setup(spec, ctx.seed, frac), lambda s: None)
    oracle = state["oracle"]
    result.info.update(
        transactions=spec.n_transactions,
        min_support=state["min_support"],
        oracle_itemsets=len(oracle),
        input_digest=digest(state["database"]),
    )

    untraced: list[float] = []
    ops: list[tuple[float, float]] = []
    traced: list[dict] = []
    warm: list[float] = []
    cache = {"hits": 0, "misses": 0}
    array = None
    deadline = time.perf_counter() + ctx.seconds
    passes = 0
    with ReferenceSampler() as reference:
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            # The traced run alternates traced and untraced passes, so the
            # trace overhead is measured within one run on one machine state.
            tracing = ctx.trace and passes % 2 == 1
            before = obs.metrics.counters()
            previous = obs.set_tracer(obs.Tracer()) if tracing else None
            try:
                timings, itemsets, array = _pass(ctx, state, tracing)
                after = obs.metrics.counters()
                if tracing:
                    # The same array mined again: its decode cache is warm.
                    with ctx.recorder.span("cfp_growth.mine_warm") as t:
                        mine_array(array, state["min_support"], CountCollector())
                    warm.append(t["s"])
            finally:
                if tracing:
                    ctx.program_spans.extend(obs.get_tracer().export())
                    obs.set_tracer(previous)
            passes += 1
            result.check(
                same_itemsets(itemsets, oracle),
                f"pass {passes}: {len(itemsets)} itemsets differ from eclat's {len(oracle)}",
            )
            if tracing:
                traced.append(timings)
                for key in cache:
                    name = f"subarray_cache.{key}"
                    cache[key] += after.get(name, 0) - before.get(name, 0)
            else:
                untraced.append(timings["pass"]["s"])
                ops.append((timings["pass"]["start"], timings["pass"]["s"]))

    batch_s = median(untraced)
    ratios = reference.ratios(ops)
    result.end_to_end = {
        "setup_s": setup_s,
        "array_bytes": array.memory_bytes,
        "op_p50_norm": median(ratios),
        "op_mean_norm": mean(ratios),
    }
    result.named = {
        "batch_s": (batch_s, "s"),
        "tree_bytes": (timings["tree_bytes"], "bytes"),
        "array_bytes": (array.memory_bytes, "bytes"),
    }
    result.info.update(passes=passes, pass_s=untraced, itemsets=len(itemsets),
                       nodes=array.node_count, **reference.info())
    if ctx.trace:
        _layers(ctx, result, traced, untraced, warm, cache, array, itemsets)
    return result


def _layers(ctx, result, traced, untraced, warm, cache, array, itemsets) -> None:
    """Per-layer figures of the median traced pass.

    The phase times come from one pass, not from a median per phase, so
    that they add up: medians taken phase by phase come from different
    passes, and on a noisy host their sum strays from any one pass.
    """
    selfs = ctx.recorder.self_times()
    passes = sorted(
        (span["end"] - span["start"], span["id"])
        for span in ctx.recorder.spans if span["name"] == "pass" and span["traced"]
    )
    batch_traced, pass_id = passes[(len(passes) - 1) // 2]
    phase = {
        span["name"]: selfs[span["id"]]
        for span in ctx.recorder.spans
        if span["name"] in PHASES and span["parent"] == pass_id
    }
    mine_s = phase["cfp_growth.mine"]
    total = sum(phase.values())
    result.check(
        abs(total - batch_traced) <= SELF_TIME_TOLERANCE * batch_traced,
        f"phase self times sum to {total:.4f}s, traced batch_s is {batch_traced:.4f}s",
    )
    lookups = cache["hits"] + cache["misses"]
    result.per_layer.update({
        "items.prepare_s": phase["items.prepare"],
        "ternary.build_s": phase["ternary.build"],
        "ternary.nodes": traced[-1]["tree_nodes"],
        "conversion.convert_s": phase["conversion.convert"],
        "cfp_growth.mine_s": mine_s,
        "cfp_growth.mine_warm_s": median(warm),
        "cfp_growth.nodes_per_s": array.node_count / mine_s if mine_s else 0.0,
        "cfp_growth.itemsets": len(itemsets),
        "cfp_array.cache_hits": cache["hits"] / len(traced),
        "cfp_array.cache_misses": cache["misses"] / len(traced),
        "cfp_array.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "obs.trace_overhead_frac": median([d for d, __ in passes]) / median(untraced) - 1.0,
    })
    result.info["phase_sum_s"] = total
    result.info["traced_batch_s"] = batch_traced


#: Per-layer metrics this workload measures; the others read 0 here.
LAYERS = (
    "items.prepare_s", "ternary.build_s", "ternary.nodes", "conversion.convert_s",
    "cfp_growth.mine_s", "cfp_growth.mine_warm_s", "cfp_growth.nodes_per_s",
    "cfp_growth.itemsets", "cfp_array.cache_hits", "cfp_array.cache_misses",
    "cfp_array.cache_hit_ratio", "obs.trace_overhead_frac",
)
