"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mine-deep --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics BENCHMARK.json lists; with
``--trace 1`` they are its per-layer metrics, measured in a run that also
records spans. The lines above it are a readable report, including every
workload metric under its own name. A full JSON report and the spans go
to ``.perfbench_out/`` in the checkout. The exit code is 0 only when every
correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "mine-deep": "mine_deep",
    "serve-mix": "serve_mix",
    "ooc-mine": "ooc_mine",
    "stream-window": "stream_window",
}

#: Seed the README's reference figures use; 2 is the held-out seed.
DEFAULT_SEED = 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs, for the smoke check (perfbench/smoke.py)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        with open(spec_path, encoding="utf-8") as handle:
            spec = json.load(handle)
        import repro  # the program under test
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro comes from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    import importlib

    from common import Context, fingerprint, peak_rss_mb

    ctx = Context(args.seed, args.seconds, bool(args.trace), args.tiny, ROOT)
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        result = module.run(ctx)
    except Exception:  # noqa: BLE001 - any crash is a failed run, reported without a result line
        traceback.print_exc()
        return 1

    rss = peak_rss_mb()
    setup_s = result.end_to_end["setup_s"]
    result.end_to_end["peak_rss_mb"] = rss
    result.named.update(
        setup_s=(setup_s, "s"),
        peak_rss_mb=(rss, "MB"),
        failed_frac=(result.failed / max(1, result.attempted), "frac"),
    )
    kind = "per_layer" if args.trace else "end_to_end"
    values = result.per_layer if args.trace else result.end_to_end
    if args.trace:
        for name in module.LAYERS:
            if name not in values:
                result.check(False, f"layer metric {name} was not measured")
        # A layer this workload never calls did no work: it reports 0.
        for entry in spec["per_layer"]:
            values.setdefault(entry["name"], 0)
    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in values:
            result.check(False, f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "fingerprint": fingerprint(),
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "metrics": metrics,
        "info": result.info,
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"report-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    if args.trace:
        ctx.recorder.write(os.path.join(out_dir, f"spans-{stem}.jsonl"))
        with open(os.path.join(out_dir, f"program-{stem}.jsonl"), "w", encoding="utf-8") as handle:
            for record in ctx.program_spans:
                handle.write(json.dumps(record, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    for key, value in sorted(result.info.items()):
        print(f"  info {key} = {value}"[:200])
    for name, (value, unit) in result.named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"  [{kind}] {name} = {entry['value']:.6g} {entry['unit']}")
    for error in result.errors:
        print(f"  FAILED: {error}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
