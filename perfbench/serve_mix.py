"""serve-mix: open-loop query traffic against an in-process ReproServer.

By count the traffic is mostly ``support``; by time it is ``topk``. This
is the only workload that reaches serving, ``mining.topk`` and rules.
The store (about 320 KB of array) fits in the server's 1 MB buffer pool,
so after warm-up the pool should not fault: a paging change that costs
the resident case shows here.

The store is built from one fixed Quest data set and ``--seed`` picks the
request schedule. topk's cost depends steeply on the data (0.1 s to 1.7 s
per call between Quest seeds, see the README), so a per-seed store would
make set-up and the time-weighted figure measure the data, not the code.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time

from client import OpenLoopClient
from common import Context, ReferenceSampler, Result, digest, mean, median, tail, timed_setups
from gen import BLOCK, SHAPE_SEED, QuestSpec, query_mix, quest

from repro import obs
from repro.core.conversion import convert
from repro.core.ternary import TernaryCfpTree
from repro.obs import MetricsRegistry
from repro.serving import ReproServer, ServingStore, write_sidecar
from repro.storage import save_cfp_array
from repro.util.items import prepare_transactions

SPEC = QuestSpec(12_000, 10.0, 4.0, 1_000, 300)
TINY = QuestSpec(600, 8.0, 3.0, 120, 40)
MIN_SUPPORT = 60
TINY_MIN_SUPPORT = 6

CONNECTIONS = 2
WORKERS = 2

#: Seed of the store's data; the run seed picks only the requests.
STORE_SEED = SHAPE_SEED

#: Offered rate of the nominal phase, requests per second.
NOMINAL_RPS = 20.0
#: Fixed rates of the ladder that follows it; it stops at the first rate
#: that misses the limit.
LADDER_RPS = (20.0, 40.0, 80.0, 160.0, 320.0)
#: A ladder rate is met when its tail latency stays within this limit and
#: its last answer arrives within it after the last request was due.
TAIL_LIMIT_MS = 500.0
#: Share of ``--seconds`` spent at the nominal rate, rounded to whole
#: blocks of the request mix so that every run sends the same number of
#: each op; the ladder gets the rest.
NOMINAL_SHARE = 0.6
#: Shortest ladder step, in seconds.
MIN_STEP_S = 0.25
#: Longest wait for answers after a phase's last request.
DRAIN_S = 15.0


class TimedStore:
    """Timing proxy around the ServingStore the server is handed.

    Records one service span per query call; everything else passes
    through to the wrapped store. Its cost (two clock reads and an append
    per call) is paid in traced and untraced runs alike.
    """

    def __init__(self, store) -> None:
        self._store = store
        self.calls: list[tuple[tuple, float, float]] = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def _timed(self, key: tuple, call):
        started = time.perf_counter()
        try:
            return call()
        finally:
            self.calls.append((key, started, time.perf_counter()))

    def support(self, items):
        items = list(items)
        return self._timed(("support", tuple(items)), lambda: self._store.support(items))

    def top_k(self, k, min_length=1):
        return self._timed(("topk", k, min_length), lambda: self._store.top_k(k, min_length))

    def also_bought(self, basket, limit=10, min_confidence=0.5):
        basket = list(basket)
        return self._timed(
            ("rules", tuple(basket), limit, min_confidence),
            lambda: self._store.also_bought(basket, limit, min_confidence),
        )


def request_key(request: dict) -> tuple:
    op = request["op"]
    if op == "support":
        return ("support", tuple(request["items"]))
    if op == "topk":
        return ("topk", request["k"], request["min_length"])
    return ("rules", tuple(request["basket"]), request["limit"], request["min_confidence"])


def direct_answer(store, request: dict):
    """The answer the server must give, from direct ServingStore calls."""
    op = request["op"]
    if op == "support":
        result = store.support(request["items"])
    elif op == "topk":
        result = [[list(items), support]
                  for items, support in store.top_k(request["k"], request["min_length"])]
    else:
        result = [
            {"antecedent": list(rule.antecedent), "consequent": list(rule.consequent),
             "support": rule.support, "confidence": rule.confidence, "lift": rule.lift}
            for rule in store.also_bought(
                request["basket"], request["limit"], request["min_confidence"])
        ]
    return json.loads(json.dumps(result))


def _setup(ctx: Context, spec: QuestSpec, min_support: int, count: int, directory: str) -> dict:
    database = quest(spec, STORE_SEED)
    table, transactions = prepare_transactions(database, min_support)
    array = convert(TernaryCfpTree.from_rank_transactions(transactions, len(table)))
    path = os.path.join(directory, "store.cfpa")
    if os.path.exists(path):
        os.unlink(path)
    save_cfp_array(array, path)
    write_sidecar(path, table, len(database))
    store = ServingStore(path)
    items = [table.item_of[rank] for rank in range(1, len(table) + 1)]
    requests = query_mix(items, ctx.seed, count)
    # The oracle calls also warm the pool, the decode cache and the
    # per-confidence rule cache, as a long-running server would be.
    oracle = {}
    for request in requests:
        key = request_key(request)
        if key not in oracle:
            oracle[key] = direct_answer(store, request)
    return {"store": store, "requests": requests, "oracle": oracle,
            "array_bytes": array.memory_bytes, "digest": digest([database, requests])}


class ServerThread:
    """A ReproServer on its own event loop thread."""

    def __init__(self, store, registry) -> None:
        self.server = ReproServer(store, workers=WORKERS, registry=registry)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, name="perfbench-server")

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> int:
        self._thread.start()
        self._ready.wait(timeout=30)
        return self.server.port

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=60)
        self.loop.close()


def _phases(ctx: Context) -> list[tuple[str, float, int]]:
    """``(label, rate, requests)`` for each phase of the run."""
    blocks = max(1, round(ctx.seconds * NOMINAL_SHARE * NOMINAL_RPS / BLOCK))
    nominal = blocks * BLOCK
    if ctx.trace:
        return [("nominal", NOMINAL_RPS, nominal), ("traced", NOMINAL_RPS, nominal)]
    step = max(MIN_STEP_S, (ctx.seconds - nominal / NOMINAL_RPS) / len(LADDER_RPS))
    return [("nominal", NOMINAL_RPS, nominal)] + [
        (f"ladder-{rate:g}", rate, int(rate * step)) for rate in LADDER_RPS
    ]


def run(ctx: Context) -> Result:
    spec, min_support = (TINY, TINY_MIN_SUPPORT) if ctx.tiny else (SPEC, MIN_SUPPORT)
    phases = _phases(ctx)
    count = sum(requests for __, __, requests in phases)
    result = Result()
    with ctx.scratch("serve-") as directory:
        state, setup_s = timed_setups(
            lambda: _setup(ctx, spec, min_support, count, directory),
            lambda old: old["store"].close(),
        )
        store = state["store"]
        proxy = TimedStore(store)
        registry = MetricsRegistry()
        server = ServerThread(proxy, registry)
        port = server.start()
        pool_before = _pool(store)
        cache_before = store.array.cache_counts()
        try:
            runs, nominal_calls, reference = asyncio.run(
                _drive(ctx, port, proxy, state["requests"], phases))
        finally:
            server.stop()
            store.close()
        pool_after = _pool(store)
        cache_after = store.array.cache_counts()

    by_phase: dict[str, list] = {}
    for label, samples in runs:
        by_phase[label] = samples
        for sample in samples:
            response = sample.response
            ok = (
                response is not None
                and response.get("ok") is True
                and response.get("result") == state["oracle"][request_key(sample.request)]
            )
            result.check(ok, f"{label} request {sample.request} -> {response}")

    nominal = by_phase["nominal"]
    answered = [s for s in nominal if s.response is not None]
    latencies = [s.latency_ms for s in answered]
    p50 = median(latencies)
    tail_ms, tail_pct, tail_n = tail(latencies)
    topk = [s.latency_ms for s in answered if s.request["op"] == "topk"]
    max_rps = 0.0
    ladder = {}
    for label, rate, __ in phases:
        if label in by_phase and label.startswith("ladder"):
            met, step_tail = _step_met(by_phase[label])
            ladder[label] = {"tail_ms": step_tail, "met": met}
            if met:
                max_rps = rate
    mean_service_s = sum(end - start for __, start, end in nominal_calls) / len(nominal)
    topk_service_ms = [(end - start) * 1000.0
                       for key, start, end in nominal_calls if key[0] == "topk"]
    result.end_to_end = {
        "setup_s": setup_s,
        "array_bytes": state["array_bytes"],
        # Each request and each service call over the reference around it.
        "op_p50_norm": median(reference.ratios(
            [(s.due, s.latency_ms / 1000.0) for s in answered])),
        "op_mean_norm": mean(reference.ratios(
            [(start, end - start) for __, start, end in nominal_calls])),
    }
    result.named = {
        "serve_p50_ms": (p50, "ms"),
        "serve_mean_service_ms": (mean_service_s * 1000.0, "ms"),
        "serve_tail_ms": (tail_ms, "ms"),
        "serve_topk_p50_ms": (median(topk), "ms"),
        "serve_max_rps": (max_rps, "1/s"),
        "array_bytes": (state["array_bytes"], "bytes"),
    }
    result.info.update(
        input_digest=state["digest"],
        nominal_rps=NOMINAL_RPS,
        nominal_requests=len(nominal),
        serve_tail_percentile=tail_pct,
        serve_tail_samples=tail_n,
        topk_samples=len(topk),
        topk_service_ms=[round(value, 2) for value in topk_service_ms],
        **reference.info(),
        tail_limit_ms=TAIL_LIMIT_MS,
        ladder=ladder,
        pool_bytes=store.array.pool.capacity_bytes,
        pool_faults=pool_after["faults"] - pool_before["faults"],
    )
    if ctx.trace:
        _layers(ctx, result, by_phase, proxy, registry, pool_before, pool_after,
                cache_before, cache_after)
    return result


def _step_met(samples) -> tuple[bool, float]:
    """Whether a ladder step met the latency limit with no growing backlog."""
    answered = [s for s in samples if s.response is not None and s.response.get("ok")]
    step_tail = tail([s.latency_ms for s in answered])[0]
    if len(answered) < len(samples) or not samples:
        return False, step_tail
    drained_ms = (max(s.received for s in samples) - max(s.due for s in samples)) * 1000.0
    return step_tail <= TAIL_LIMIT_MS and drained_ms <= TAIL_LIMIT_MS, step_tail


def _pool(store) -> dict:
    stats = store.array.pool.stats
    return {"hits": stats.hits, "faults": stats.faults, "bytes_read": stats.bytes_read,
            "prefetched": stats.prefetched, "prefetch_hits": stats.prefetch_hits}


async def _drive(ctx, port, proxy, requests, phases):
    """Run the phases; returns the samples, the nominal phase's service
    calls and the reference sampled during that phase."""
    client = OpenLoopClient("127.0.0.1", port, CONNECTIONS)
    await client.connect()
    runs = []
    reference = None
    nominal_calls: list = []
    offset = 0
    try:
        for label, rate, count in phases:
            first_call = len(proxy.calls)
            sampler = ReferenceSampler() if label == "nominal" else contextlib.nullcontext()
            batch = requests[offset:offset + count]
            offset += count
            previous = obs.set_tracer(obs.Tracer()) if label == "traced" else None
            try:
                with sampler:
                    samples = await client.run(batch, rate, DRAIN_S)
            finally:
                if label == "traced":
                    ctx.program_spans.extend(obs.get_tracer().export())
                    obs.set_tracer(previous)
            runs.append((label, samples))
            if label == "nominal":
                reference = sampler
                nominal_calls = proxy.calls[first_call:]
            if label.startswith("ladder") and not _step_met(samples)[0]:
                break  # higher rates would only grow the backlog further
    finally:
        await client.close()
    return runs, nominal_calls, reference


def _layers(ctx, result, by_phase, proxy, registry, pool_before, pool_after,
            cache_before, cache_after) -> None:
    rec = ctx.recorder
    traced = [s for s in by_phase["traced"] if s.response is not None]
    # Match each request to its service call: same query, inside the
    # request's send..receive window. Calls on one connection never overlap.
    calls: dict[tuple, list[tuple[float, float]]] = {}
    for key, start, end in proxy.calls:
        calls.setdefault(key, []).append((start, end))
    service: dict[str, list[float]] = {"support": [], "topk": [], "rules": []}
    waits = []
    for sample in traced:
        key = request_key(sample.request)
        request_span = rec.add(f"request.{sample.request['op']}", sample.due,
                               sample.received, request_id=sample.request["id"])
        for index, (start, end) in enumerate(calls.get(key, [])):
            if start >= sample.sent and end <= sample.received:
                del calls[key][index]
                rec.add(f"service.{key[0]}", start, end, parent=request_span,
                        request_id=sample.request["id"])
                service_ms = (end - start) * 1000.0
                service[key[0]].append(service_ms)
                waits.append(sample.latency_ms - service_ms)
                break
    plain = [s.latency_ms for s in by_phase["nominal"] if s.response is not None]
    lookups = {k: cache_after[k] - cache_before[k] for k in ("hits", "misses")}
    faults = pool_after["faults"] - pool_before["faults"]
    hits = pool_after["hits"] - pool_before["hits"]
    prefetched = pool_after["prefetched"] - pool_before["prefetched"]
    prefetch_hits = pool_after["prefetch_hits"] - pool_before["prefetch_hits"]
    result.per_layer.update({
        "topk.service_ms_p50": median(service["topk"]),
        "rules.service_ms_p50": median(service["rules"]),
        "store.support_service_ms_p50": median(service["support"]),
        "server.queue_wait_ms_p50": median(waits),
        "server.queue_wait_ms_tail": tail(waits)[0],
        "server.rejected": registry.get("serving.rejected"),
        "client.late_ms_max": max(s.late_ms for s in by_phase["traced"]),
        "cfp_array.cache_hits": lookups["hits"],
        "cfp_array.cache_misses": lookups["misses"],
        "cfp_array.cache_hit_ratio": _ratio(lookups["hits"], lookups["misses"]),
        "bufferpool.faults": faults,
        "bufferpool.hits": hits,
        "bufferpool.hit_ratio": _ratio(hits, faults),
        "bufferpool.bytes_read": pool_after["bytes_read"] - pool_before["bytes_read"],
        "prefetch.pages": prefetched,
        "prefetch.hits": prefetch_hits,
        "prefetch.hit_ratio": prefetch_hits / prefetched if prefetched else 0.0,
        "obs.trace_overhead_frac": median([s.latency_ms for s in traced]) / median(plain) - 1.0,
    })
    result.info["matched_service_calls"] = len(waits)


def _ratio(good: int, bad: int) -> float:
    return good / (good + bad) if good + bad else 0.0


#: Per-layer metrics this workload measures; the others read 0 here.
LAYERS = (
    "topk.service_ms_p50", "rules.service_ms_p50", "store.support_service_ms_p50",
    "server.queue_wait_ms_p50", "server.queue_wait_ms_tail", "server.rejected",
    "client.late_ms_max", "cfp_array.cache_hits", "cfp_array.cache_misses",
    "cfp_array.cache_hit_ratio", "bufferpool.faults", "bufferpool.hits",
    "bufferpool.hit_ratio", "bufferpool.bytes_read", "prefetch.pages", "prefetch.hits",
    "prefetch.hit_ratio", "obs.trace_overhead_frac",
)
