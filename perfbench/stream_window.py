"""stream-window: a sliding window with a snapshot published after every batch.

Each update is append (with its eviction) + ``to_array`` + publish: delta
builds, merges, evictions, ``forest_to_array`` and fsynced snapshot
writes. The workload never mines, so a mine-only change must leave it
flat, and a build change shows most here.
"""

from __future__ import annotations

import os
import time

from common import Context, ReferenceSampler, Result, digest, mean, median, tail, timed_setups
from gen import QuestSpec, QuestStream

from repro import obs
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.streaming import CountingPhase, IncrementalMiner, SnapshotManager

SPEC = QuestSpec(0, 10.0, 4.0, 1_000, 300)
TINY = QuestSpec(0, 8.0, 3.0, 120, 40)
BATCH = 500
TINY_BATCH = 50
WINDOW = 12
#: Item-table threshold, a share of the window's transactions.
MIN_SUPPORT_FRAC = 0.001

#: Updates below which a run does not stop, whatever ``--seconds`` says.
MIN_UPDATES = 11


def _setup(spec: QuestSpec, batch: int, seed: int, directory: str) -> dict:
    """Inputs, frozen item table, a full window and a first snapshot."""
    stream = QuestStream(spec, seed)
    fill = [stream.take(batch) for __ in range(WINDOW)]
    counting = CountingPhase()
    for chunk in fill:
        counting.add_batch(chunk)
    table = counting.finish(max(2, round(WINDOW * batch * MIN_SUPPORT_FRAC)))
    miner = IncrementalMiner(table, window=WINDOW)
    for chunk in fill:
        miner.append_batch(chunk)
    snapshots = SnapshotManager(directory)
    snapshots.publish(miner.to_array(), table, miner.window_transactions)
    return {"stream": stream, "table": table, "miner": miner, "snapshots": snapshots,
            "window": list(fill), "digest": digest(fill)}


def _written(snapshots, generation: int) -> int:
    """Bytes one publish wrote: array file, item sidecar and manifest."""
    path = snapshots.array_path(generation)
    return (os.path.getsize(path) + os.path.getsize(path + ".items.json")
            + os.path.getsize(snapshots.manifest_path))


def _rebuild(table, window: list[list[list]]):
    rank_of = table.rank_of
    ranked = [
        sorted({rank_of[item] for item in transaction if item in rank_of})
        for chunk in window for transaction in chunk
    ]
    return convert(TernaryCfpTree.from_rank_transactions(ranked, len(table)))


def run(ctx: Context) -> Result:
    spec, batch = (TINY, TINY_BATCH) if ctx.tiny else (SPEC, BATCH)
    rec = ctx.recorder
    result = Result()
    with ctx.scratch("stream-") as directory:
        count = [0]

        def make() -> dict:
            count[0] += 1
            return _setup(spec, batch, ctx.seed, os.path.join(directory, str(count[0])))

        state, setup_s = timed_setups(make, lambda s: None)
        miner, table, snapshots = state["miner"], state["table"], state["snapshots"]
        window = state["window"]
        updates: list[float] = []
        ops: list[tuple[float, float]] = []
        traced: list[dict] = []
        written: list[int] = []
        deadline = time.perf_counter() + ctx.seconds
        before = obs.metrics.counters()
        with ReferenceSampler() as reference:
            while len(updates) + len(traced) < MIN_UPDATES or time.perf_counter() < deadline:
                chunk = state["stream"].take(batch)
                window = window[1:] + [chunk]
                tracing = ctx.trace and (len(updates) + len(traced)) % 2 == 1
                previous = obs.set_tracer(obs.Tracer()) if tracing else None
                try:
                    with rec.span("update", traced=tracing) as whole:
                        with rec.span("incremental.append") as append:
                            miner.append_batch(chunk)
                        with rec.span("incremental.to_array") as to_array:
                            array = miner.to_array()
                        with rec.span("snapshots.publish") as publish:
                            generation = snapshots.publish(
                                array, table, miner.window_transactions)
                    program = obs.get_tracer().export() if tracing else []
                finally:
                    if tracing:
                        obs.set_tracer(previous)
                ctx.program_spans.extend(program)
                written.append(_written(snapshots, generation))
                result.check(
                    snapshots.current() == (generation, snapshots.array_path(generation)),
                    f"generation {generation} is not the published one",
                )
                if tracing:
                    merge = sum(s["dur"] for s in program if s["name"] == "delta_merge")
                    traced.append({"update": whole["s"], "append": append["s"],
                                   "merge": merge, "to_array": to_array["s"],
                                   "publish": publish["s"]})
                else:
                    updates.append(whole["s"])
                    ops.append((whole["start"], whole["s"]))
        after = obs.metrics.counters()
        started = time.perf_counter()
        rebuilt = _rebuild(table, window)
        rebuild_s = time.perf_counter() - started
        result.check(
            bytes(rebuilt.buffer) == bytes(array.buffer) and rebuilt.starts == array.starts,
            "final window array differs from a from-scratch rebuild",
        )

    p50 = median(updates) * 1000.0
    tail_ms, tail_pct, tail_n = tail([u * 1000.0 for u in updates])
    per_batch = sum(written) / len(written)
    ratios = reference.ratios(ops)
    result.end_to_end = {"setup_s": setup_s, "array_bytes": array.memory_bytes,
                         "op_p50_norm": median(ratios), "op_mean_norm": mean(ratios)}
    result.named = {
        "stream_update_p50_ms": (p50, "ms"),
        "stream_update_tail_ms": (tail_ms, "ms"),
        "stream_write_bytes_per_batch": (per_batch, "bytes"),
        "array_bytes": (array.memory_bytes, "bytes"),
    }
    result.info.update(
        input_digest=state["digest"], batch=batch, window=WINDOW, min_support=table.min_support,
        updates=len(updates) + len(traced), update_s=updates,
        stream_update_tail_percentile=tail_pct,
        stream_update_tail_samples=tail_n, rebuild_s=rebuild_s, **reference.info(),
    )
    if ctx.trace:
        def p50_ms(key: str) -> float:
            return median([t[key] for t in traced]) * 1000.0

        maintain = median([t["append"] + t["to_array"] for t in traced])
        result.per_layer.update({
            "incremental.append_ms_p50": p50_ms("append"),
            "incremental.delta_merge_ms_p50": p50_ms("merge"),
            "incremental.evict_ms_p50": median(
                [t["append"] - t["merge"] for t in traced]) * 1000.0,
            "incremental.to_array_ms_p50": p50_ms("to_array"),
            "incremental.forest_nodes": miner.forest.node_count,
            # Per update: a total over the run would grow with the
            # number of updates that fit in --seconds.
            "incremental.tombstones_dropped": (
                after.get("streaming.tombstones_dropped", 0)
                - before.get("streaming.tombstones_dropped", 0)) / len(written),
            "incremental.rebuild_ratio": maintain / rebuild_s,
            "snapshots.publish_ms_p50": p50_ms("publish"),
            "snapshots.bytes_written": per_batch,
            "obs.trace_overhead_frac": median([t["update"] for t in traced])
            / median(updates) - 1.0,
        })
    return result


#: Per-layer metrics this workload measures; the others read 0 here.
LAYERS = (
    "incremental.append_ms_p50", "incremental.delta_merge_ms_p50",
    "incremental.evict_ms_p50", "incremental.to_array_ms_p50",
    "incremental.forest_nodes", "incremental.tombstones_dropped",
    "incremental.rebuild_ratio", "snapshots.publish_ms_p50",
    "snapshots.bytes_written", "obs.trace_overhead_frac",
)
