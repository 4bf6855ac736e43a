"""Shared pieces of the benchmark: spans, percentiles, the run context."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core import kernels

#: A run sets up at least :data:`SETUP_REPEATS` times and until
#: :data:`SETUP_MIN_S` have passed, at most :data:`SETUP_MAX_REPEATS`
#: times; ``setup_s`` is the median. Short set-ups are repeated more,
#: since one fsync or one slow 100 ms of the host moves them most.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPEATS = 15


class Recorder:
    """Benchmark-side spans: name, start, end, parent and attributes.

    Spans are kept in memory and written out once, when the run ends.
    A disabled recorder still times its spans (the workloads need the
    durations) but keeps nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._next_id = 1

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        **attrs: Any,
    ) -> int:
        span_id = self._next_id
        self._next_id += 1
        if self.enabled:
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name,
                 "start": start, "end": end, **attrs}
            )
        return span_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, float]]:
        """Time a block; yields a dict that holds ``start`` and the duration
        ``s`` after it."""
        timing: dict[str, float] = {}
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            self._stack.pop()
            timing["start"] = start
            timing["s"] = end - start
            if self.enabled:
                self.spans.append(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, **attrs}
                )

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"])
                )
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span["id"]] = (span["end"] - span["start"]) - covered
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


#: The reference loop (about 0.7 ms on a 2.1 GHz vCPU) and how often the
#: sampler runs it: about 1.5% of one CPU.
REFERENCE_ITERATIONS = 5_000
REFERENCE_PERIOD_S = 0.05
#: An operation's reference comes from the samples in a window centred on
#: it, as long as the operation and at least this long, and needs this
#: many samples there; otherwise the whole run's reference is used.
MIN_WINDOW_S = 0.2
MIN_WINDOW_SAMPLES = 3


def _reference_loop() -> float:
    """Thread CPU seconds one run of the reference loop takes."""
    started = time.thread_time()
    total = 0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i % 1000] = total
    return time.thread_time() - started


def _trimmed_mean(values: list[float]) -> float:
    """Mean after dropping the highest and lowest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut:len(ordered) - cut])


class ReferenceSampler:
    """Times a fixed pure-Python loop, which calls no program code, on a
    thread every :data:`REFERENCE_PERIOD_S` while the workload runs.

    The host's speed changes by up to 1.5x from one 100 ms to the next and
    drifts by 30% over tens of minutes on a shared VM, and the same changes
    scale this loop. Samples are thread CPU time, so time spent waiting for
    the GIL behind the workload does not count. An operation's time over
    the samples taken around it (the ``*_norm`` metrics) stays steadier
    than the raw time. Use as a context manager around the measured part
    of a run.

    Means are trimmed (see :func:`_trimmed_mean`): a mean, because an
    idle host runs the loop in two speed modes and the average of the mix
    is what the workload saw; trimmed, because a sample that shares the
    cache with a large numpy pass runs up to twice as long.
    """

    def __init__(self) -> None:
        #: ``(perf_counter at start, thread CPU seconds)`` per sample.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-reference", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(REFERENCE_PERIOD_S):
            self.samples.append((time.perf_counter(), _reference_loop()))

    def __enter__(self) -> "ReferenceSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def value(self) -> float:
        """The reference over the whole run; one loop timed now when the
        run was too short for any sample."""
        if not self.samples:
            self.samples.append((time.perf_counter(), _reference_loop()))
        return _trimmed_mean([seconds for __, seconds in self.samples])

    def ratios(self, ops: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, seconds)`` operation over the samples taken around
        it (see :data:`MIN_WINDOW_S`)."""
        run = self.value()
        result = []
        for start, seconds in ops:
            middle = start + seconds / 2
            half = max(seconds, MIN_WINDOW_S) / 2
            inside = [cpu for at, cpu in self.samples if abs(at - middle) <= half]
            reference = _trimmed_mean(inside) if len(inside) >= MIN_WINDOW_SAMPLES else run
            result.append(seconds / reference)
        return result

    def info(self) -> dict[str, float]:
        """Report fields: the run's reference in ms and its sample count."""
        return {"reference_ms": self.value() * 1000.0,
                "reference_samples": len(self.samples)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.mean(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples)``. With ``n`` samples the
    percentile is ``100 * (n - 10) / n`` and the value is the
    ``(n - 10)``-th smallest sample; below 11 samples there is no such
    percentile and the maximum is returned with percentile 100.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def canonical(itemsets) -> dict[frozenset, int]:
    """Itemsets as ``{frozenset(items): support}``, for order-free comparison."""
    return {frozenset(items): support for items, support in itemsets}


def same_itemsets(itemsets: list, oracle: dict[frozenset, int]) -> bool:
    """Whether ``itemsets`` equal ``oracle`` (see :func:`canonical`) with no
    itemset emitted twice, which the dict comparison alone would miss."""
    return len(itemsets) == len(oracle) and canonical(itemsets) == oracle


def digest(value: Any) -> str:
    """Short SHA-256 of a JSON-able input, to show two runs measured the same data."""
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict[str, Any]:
    """Machine facts a report must match before two reports are compared."""
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "kernel_backend": kernels.backend(),
    }


@dataclass
class Context:
    """What a workload gets from the command line."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    root: str
    recorder: Recorder = field(init=False)
    #: Spans the program's own ``repro.obs.Tracer`` recorded, as exported.
    program_spans: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.recorder = Recorder(self.trace)

    @contextmanager
    def scratch(self, prefix: str) -> Iterator[str]:
        """A temporary directory inside the checkout, removed afterwards."""
        base = os.path.join(self.root, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        path = tempfile.mkdtemp(prefix=prefix, dir=base)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)


@dataclass
class Result:
    """One workload run: counts, metrics and the report-only figures.

    ``end_to_end`` and ``per_layer`` hold ``name -> value`` for the
    metrics BENCHMARK.json names; ``named`` holds the workload's own
    metrics under their report names as ``name -> (value, unit)``.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a failure is kept for the report."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok


def timed_setups(make: Callable[[], Any], dispose: Callable[[Any], None]) -> tuple[Any, float]:
    """Run ``make`` repeatedly (see :data:`SETUP_REPEATS`); keep the last
    state and return it with the median time."""
    times: list[float] = []
    state = None
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S
    ):
        if state is not None:
            dispose(state)
        started = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - started)
    return state, statistics.median(times)
