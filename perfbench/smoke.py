"""Smoke check: every workload, at tiny size, prints every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Runs each workload with ``--tiny`` for one second, untraced and traced,
and checks that the run is correct, that its result line carries every
metric BENCHMARK.json lists for that mode with the listed unit, and that
the readable report prints each of the workload's own metrics with a
unit. Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON = ("setup_s", "peak_rss_mb", "failed_frac", "array_bytes")
NAMED = {
    "mine-deep": ("batch_s", "tree_bytes"),
    "serve-mix": ("serve_p50_ms", "serve_tail_ms", "serve_topk_p50_ms", "serve_max_rps"),
    "ooc-mine": ("ooc_s", "ooc_read_amp"),
    "stream-window": (
        "stream_update_p50_ms", "stream_update_tail_ms", "stream_write_bytes_per_batch",
    ),
}


def check(workload: str, trace: int, spec: dict) -> list[str]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    problems = []
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: not correct: {lines[-1][:300]}")
    kind = "per_layer" if trace else "end_to_end"
    for entry in spec[kind]:
        got = result["metrics"].get(entry["name"])
        if got is None or got.get("unit") != entry["unit"]:
            problems.append(f"{label}: metric {entry['name']} missing or not in {entry['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {entry['name']} has no numeric value")
    if not trace:
        for name in COMMON + NAMED[workload]:
            if not any(line.strip().startswith(f"{name} = ") and len(line.split()) == 4
                       for line in lines):
                problems.append(f"{label}: report line '{name} = <value> <unit>' missing")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in NAMED:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
