"""End-to-end server suite: protocol parity with direct calls, admission
control, graceful drain, fault-injection transparency, observability.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run`` on a small async body.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import faultinject, obs
from repro.budget import DEFAULT_REQUEST_BYTES
from repro.obs.registry import MetricsRegistry
from repro.serving.loadgen import run_load
from repro.serving.server import MAX_LINE_BYTES, ReproServer
from repro.serving.store import ServingStore, build_store
from tests.conftest import paper_example_database, random_database

MIN_SUPPORT = 2


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.setenv("REPRO_IO_BACKOFF", "0")  # retries must not sleep
    faultinject.reset()
    yield
    faultinject.reset()
    obs.metrics.reset()


@pytest.fixture
def store(tmp_path):
    path = tmp_path / "paper.cfpa"
    build_store(paper_example_database(), MIN_SUPPORT, path)
    with ServingStore(path) as opened:
        yield opened


async def _rpc(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: dict
) -> dict:
    writer.write(json.dumps(request).encode("ascii") + b"\n")
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed the connection mid-request"
    return json.loads(line)


async def _started(store: ServingStore, **kwargs) -> ReproServer:
    server = ReproServer(store, **kwargs)
    await server.start()
    return server


class TestProtocolParity:
    """Server answers are byte-identical to the direct library calls."""

    def test_all_ops_match_direct_calls(self, store):
        support_queries = ([1], [3, 4], [1, 2, 3], [2, 9], [1, 2, 3, 4], [7])
        expected_support = [store.support(items) for items in support_queries]
        expected_topk = {
            k: [[list(itemset), s] for itemset, s in store.top_k(k)]
            for k in (1, 3, 25)
        }
        expected_rules = [
            {
                "antecedent": list(rule.antecedent),
                "consequent": list(rule.consequent),
                "support": rule.support,
                "confidence": rule.confidence,
                "lift": rule.lift,
            }
            for rule in store.also_bought([1, 2], limit=4)
        ]

        async def body() -> None:
            server = await _started(store, registry=MetricsRegistry())
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    for items, want in zip(support_queries, expected_support):
                        response = await _rpc(
                            reader, writer, {"op": "support", "items": items}
                        )
                        assert response["ok"] and response["result"] == want
                    for k, want in expected_topk.items():
                        response = await _rpc(reader, writer, {"op": "topk", "k": k})
                        assert response["ok"] and response["result"] == want
                    response = await _rpc(
                        reader,
                        writer,
                        {"op": "rules", "basket": [1, 2], "limit": 4},
                    )
                    assert response["ok"] and response["result"] == expected_rules
                finally:
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(body())

    def test_errors_leave_connection_usable(self, store):
        async def body() -> None:
            registry = MetricsRegistry()
            server = await _started(store, registry=registry)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    bad = [
                        b"{not json\n",
                        b"[1, 2]\n",
                        b'{"op": "nope"}\n',
                        b'{"op": "support"}\n',
                        b'{"op": "support", "items": []}\n',
                        b'{"op": "support", "items": [[1]]}\n',
                        b'{"op": "topk"}\n',
                        b'{"op": "topk", "k": 0}\n',
                        b'{"op": "topk", "k": true}\n',
                        b'{"op": "rules", "basket": [1], "limit": 0}\n',
                        b'{"op": "rules", "basket": [1], "min_confidence": "x"}\n',
                    ]
                    for payload in bad:
                        writer.write(payload)
                        await writer.drain()
                        response = json.loads(await reader.readline())
                        assert response["ok"] is False, payload
                        assert response["error"]["code"] == "bad_request", payload
                    # The connection survived eleven bad requests.
                    response = await _rpc(
                        reader, writer, {"id": 9, "op": "support", "items": [1]}
                    )
                    assert response == {
                        "id": 9,
                        "ok": True,
                        "result": store.support([1]),
                    }
                    assert registry.get("serving.errors") == len(bad)
                finally:
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(body())

    def test_oversized_line_poisons_only_its_connection(self, store):
        async def body() -> None:
            registry = MetricsRegistry()
            server = await _started(store, registry=registry)
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b'{"op": "support", "items": [' + b"1," * MAX_LINE_BYTES)
                await writer.drain()
                # The server answers bad_request and hangs up — but with
                # unread bytes still in flight the close may surface to
                # this client as a reset instead of a readable response.
                try:
                    line = await reader.readline()
                    if line:
                        response = json.loads(line)
                        assert response["ok"] is False
                        assert response["error"]["code"] == "bad_request"
                except (ConnectionResetError, OSError):
                    pass
                writer.close()
                # The server itself survived and keeps serving.
                reader2, writer2 = await asyncio.open_connection(
                    server.host, server.port
                )
                response = await _rpc(
                    reader2, writer2, {"op": "support", "items": [1]}
                )
                assert response["ok"] and response["result"] == store.support([1])
                writer2.close()
                assert registry.get("serving.errors") == 1
            finally:
                await server.stop()

        asyncio.run(body())

    def test_request_id_echo_and_ping(self, store):
        async def body() -> None:
            server = await _started(store, registry=MetricsRegistry())
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                response = await _rpc(reader, writer, {"id": "abc", "op": "ping"})
                assert response == {"id": "abc", "ok": True, "result": "pong"}
                response = await _rpc(reader, writer, {"op": "stats"})
                assert response["ok"] is True
                assert response["result"]["max_inflight"] == server.max_inflight
                await _rpc(reader, writer, {"op": "topk", "k": 2})
                response = await _rpc(reader, writer, {"op": "stats"})
                caches = response["result"]["caches"]
                assert caches == store.cache_stats()
                assert set(caches) == {"frequent", "rules", "subarray"}
                assert caches["frequent"]["entries"] > 0
                assert caches["frequent"]["bytes"] > 0
                assert caches["rules"] == {"entries": 0, "bytes": 0}
                writer.close()
            finally:
                await server.stop()

        asyncio.run(body())


class TestAdmissionControl:
    def test_overload_rejected_then_recovers(self, store):
        gate = threading.Event()
        direct = store.support
        store.support = lambda items: (gate.wait(5), direct(items))[1]
        # Budget for exactly one request slot -> max_inflight == 1.
        budget = store.resident_bytes + DEFAULT_REQUEST_BYTES

        async def body() -> None:
            registry = MetricsRegistry()
            server = await _started(store, memory_budget=budget, registry=registry)
            assert server.max_inflight == 1
            try:
                r1, w1 = await asyncio.open_connection(server.host, server.port)
                r2, w2 = await asyncio.open_connection(server.host, server.port)
                try:
                    first = asyncio.ensure_future(
                        _rpc(r1, w1, {"id": 1, "op": "support", "items": [1]})
                    )
                    for _ in range(100):  # wait until the slot is taken
                        await asyncio.sleep(0.01)
                        if server._inflight >= 1:
                            break
                    rejected = await _rpc(
                        r2, w2, {"id": 2, "op": "support", "items": [2]}
                    )
                    assert rejected["ok"] is False
                    assert rejected["error"]["code"] == "overloaded"
                    assert registry.get("serving.rejected") == 1
                    gate.set()
                    accepted = await first
                    assert accepted["ok"] and accepted["result"] == direct([1])
                    # The slot freed: the same connection is admitted now.
                    retry = await _rpc(
                        r2, w2, {"id": 3, "op": "support", "items": [2]}
                    )
                    assert retry["ok"] and retry["result"] == direct([2])
                finally:
                    w1.close()
                    w2.close()
            finally:
                gate.set()
                await server.stop()

        asyncio.run(body())


class TestGracefulDrain:
    def test_inflight_request_finishes_during_stop(self, store):
        gate = threading.Event()
        direct = store.support
        store.support = lambda items: (gate.wait(5), direct(items))[1]

        async def body() -> None:
            server = await _started(store, registry=MetricsRegistry())
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                idle_reader, idle_writer = await asyncio.open_connection(
                    server.host, server.port
                )
                pending = asyncio.ensure_future(
                    _rpc(reader, writer, {"id": 1, "op": "support", "items": [3, 4]})
                )
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if server._inflight >= 1:
                        break
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.05)
                assert not stopping.done()  # drain waits on the in-flight op
                gate.set()
                response = await pending
                assert response["ok"] and response["result"] == direct([3, 4])
                await stopping
                # The idle connection was closed by the drain ...
                assert await idle_reader.read() == b""
                # ... and new connections are refused.
                with pytest.raises(OSError):
                    await asyncio.open_connection(server.host, server.port)
                writer.close()
                idle_writer.close()
            finally:
                gate.set()
                await server.stop()

        asyncio.run(body())


class TestFaultTransparency:
    def test_transient_read_faults_invisible_to_clients(self, tmp_path):
        database = random_database(seed=11, n_transactions=100)
        path = tmp_path / "faulty.cfpa"
        build_store(database, 3, path)
        queries = ([1], [0, 1], [2, 3], [1, 2, 4], [5])
        with ServingStore(path) as oracle:
            expected = [oracle.support(items) for items in queries]
        # A fresh store serves with a *cold* pool, so the first query
        # really reads pages — and hits the faults planted below. The
        # plan is installed after open: the header read has no retry
        # loop, the pool's read path (the serving path) does.
        with ServingStore(path, pool_pages=2, cache_budget=0, verify=False) as store:
            faultinject.install("pagefile.read:flake:times=3")

            async def body() -> None:
                registry = MetricsRegistry()
                server = await _started(store, registry=registry)
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    try:
                        for items, want in zip(queries, expected):
                            response = await _rpc(
                                reader, writer, {"op": "support", "items": items}
                            )
                            assert response["ok"] is True, (items, response)
                            assert response["result"] == want
                    finally:
                        writer.close()
                    assert registry.get("serving.errors") == 0
                finally:
                    await server.stop()

            asyncio.run(body())
            # The faults really fired; the retry loop absorbed them.
            assert obs.metrics.get("faultinject.fired") == 3


class TestObservability:
    def test_counters_histograms_and_spans(self, store):
        from repro.obs.tracer import Tracer

        registry = MetricsRegistry()
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:

            async def body() -> None:
                server = await _started(store, registry=registry)
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    for items in ([1], [2], [3, 4]):
                        await _rpc(reader, writer, {"op": "support", "items": items})
                    await _rpc(reader, writer, {"op": "topk", "k": 2})
                    await _rpc(reader, writer, {"op": "bogus"})
                    writer.close()
                finally:
                    await server.stop()

            asyncio.run(body())
        finally:
            obs.set_tracer(previous)
        assert registry.get("serving.requests") == 5
        assert registry.get("serving.connections") == 1
        assert registry.get("serving.errors") == 1
        support_latency = registry.histogram("serving.latency_ms.support")
        assert support_latency is not None and support_latency.count == 3
        assert registry.histogram("serving.latency_ms.topk").count == 1
        assert registry.histogram("serving.latency_ms.invalid").count == 1
        # The drain published the pool counters into the same registry.
        assert registry.get("bufferpool.hits") + registry.get("bufferpool.faults") > 0
        spans = [r for r in tracer.records if r.name == "serve_request"]
        assert len(spans) == 5
        assert {s.attrs["op"] for s in spans} == {"support", "topk", "invalid"}
        assert all(s.parent_id is None for s in spans)


    def test_executor_thread_mines_stay_untraced(self, tmp_path):
        """Mines on executor threads must not touch the loop's tracer.

        The span stack belongs to the tracer's owning thread; concurrent
        rules/topk requests mine on executor threads and must behave like
        untraced mines: no per-rank spans, no cache-metric publication.
        """
        from repro.obs.tracer import Tracer

        path = tmp_path / "rand.cfpa"
        build_store(random_database(seed=7, n_transactions=200), 3, path)
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        obs.metrics.reset()
        requests = [
            {"op": "rules", "basket": [1], "min_confidence": confidence}
            for confidence in (0.3, 0.5, 0.7)
        ]
        requests += [{"op": "topk", "k": k} for k in (3, 5, 8)]
        try:
            with ServingStore(path) as store:

                async def client(server: ReproServer, request: dict) -> dict:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    try:
                        return await _rpc(reader, writer, request)
                    finally:
                        writer.close()

                async def body() -> list[dict]:
                    server = await _started(
                        store, workers=4, registry=MetricsRegistry()
                    )
                    try:
                        return await asyncio.gather(
                            *(client(server, request) for request in requests)
                        )
                    finally:
                        await server.stop()

                responses = asyncio.run(body())
        finally:
            obs.set_tracer(previous)
        assert all(response["ok"] for response in responses), responses
        assert not [r for r in tracer.records if r.name == "mine_rank"]
        roots = [r for r in tracer.records if r.parent_id is None]
        assert len(roots) == len(tracer.records) == len(requests)
        assert {r.name for r in roots} == {"serve_request"}
        assert not [
            name for name in obs.metrics.counters() if name.startswith("subarray_cache.")
        ]


class TestLoadHarness:
    def test_64_concurrent_clients_verified(self, tmp_path):
        database = random_database(seed=23, n_transactions=120, n_items=16)
        path = tmp_path / "load.cfpa"
        build_store(database, 3, path)
        with ServingStore(path) as store:
            report = run_load(store, clients=64, requests_per_client=3, seed=7)
        assert report.clients == 64
        assert report.requests == 192
        assert report.errors == 0
        assert report.mismatches == 0
        assert report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.rps > 0
        payload = report.to_dict()
        assert payload["clients"] == 64 and payload["mismatches"] == 0
