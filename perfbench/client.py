"""The benchmark's own open-loop NDJSON client.

Requests are sent on a fixed schedule whatever the server does (open
loop), round-robin over a few pipelined connections. Each request is
timed from when it was *due*, so a stall also charges the requests that
queue behind it, and the client records how late it sent each one.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any


@dataclass
class Sample:
    request: dict
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class OpenLoopClient:
    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []
        self._pending: dict[int, Sample] = {}
        self._idle = asyncio.Event()
        self._idle.set()

    async def connect(self) -> None:
        for __ in range(self.connections):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self._writers.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            response = json.loads(line)
            sample = self._pending.pop(response.get("id"), None)
            if sample is None:
                continue
            sample.received = received
            sample.response = response
            if not self._pending:
                self._idle.set()

    async def run(self, requests: list[dict], rate: float, drain_s: float) -> list[Sample]:
        """Send ``requests`` at ``rate`` per second; wait ``drain_s`` for answers.

        Requests still unanswered after the drain keep ``response=None``.
        """
        samples = []
        start = time.perf_counter()
        for index, request in enumerate(requests):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample = Sample(request, due)
            self._pending[request["id"]] = sample
            self._idle.clear()
            writer = self._writers[index % len(self._writers)]
            sample.sent = time.perf_counter()
            writer.write(json.dumps(request).encode("ascii") + b"\n")
            await writer.drain()
            samples.append(sample)
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_s)
        except asyncio.TimeoutError:
            pass
        self._pending.clear()
        self._idle.set()
        return samples

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except OSError:
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
