"""Tests for the wall-clock benchmark harness (`repro bench`).

Real benchmark runs are timing-dependent, so these tests inject tiny
datasets through ``run_bench(datasets=...)`` and exercise the report
plumbing (schema, persistence, comparison gate, CLI exit codes) rather
than asserting on wall times.
"""

from __future__ import annotations

import json

from repro import bench
from tests.conftest import paper_example_database, random_database


def _tiny_run(jobs=(1, 2)):
    return bench.run_bench(
        jobs=jobs,
        datasets={
            "paper": (paper_example_database(), 2),
            "random": (random_database(1), 3),
        },
    )


class TestRunBench:
    def test_report_shape(self):
        report = _tiny_run()
        assert report["schema"] == bench.SCHEMA_VERSION
        assert set(report["datasets"]) == {"paper", "random"}
        entry = report["datasets"]["paper"]
        assert entry["transactions"] == 10
        assert entry["nodes"] > 0
        assert set(entry["mine"]) == {"1", "2"}
        for mine in entry["mine"].values():
            assert mine["wall_s"] >= 0
            assert mine["itemsets"] > 0
        assert report["peak_rss_kb"] > 0

    def test_serial_always_measured_for_speedup(self):
        # Asking only for jobs=2 still measures jobs=1 first: speedups are
        # relative to the same run's serial mine.
        report = bench.run_bench(
            jobs=(2,), datasets={"paper": (paper_example_database(), 2)}
        )
        assert set(report["datasets"]["paper"]["mine"]) == {"1", "2"}

    def test_itemset_counts_agree_across_worker_counts(self):
        # The built-in correctness tripwire: worker count must not change
        # the number of frequent itemsets.
        report = _tiny_run(jobs=(1, 2, 4))
        for entry in report["datasets"].values():
            counts = {m["itemsets"] for m in entry["mine"].values()}
            assert len(counts) == 1


class TestPersistence:
    def test_write_and_find_previous(self, tmp_path):
        report = _tiny_run()
        path = bench.write_report(report, tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        assert json.loads(path.read_text())["schema"] == bench.SCHEMA_VERSION
        assert bench.find_previous(tmp_path) == path
        assert bench.find_previous(tmp_path, exclude=path) is None

    def test_baseline_never_found_implicitly(self, tmp_path):
        (tmp_path / "BENCH_baseline.json").write_text("{}")
        assert bench.find_previous(tmp_path) is None


class TestCompareReports:
    def _reports(self, before_s, after_s):
        def make(seconds):
            return {
                "datasets": {
                    "d": {
                        "build_s": 0.0,
                        "convert_s": 0.0,
                        "mine": {"1": {"wall_s": seconds}},
                    }
                }
            }

        return make(after_s), make(before_s)

    def test_regression_beyond_tolerance_flagged(self):
        current, previous = self._reports(before_s=1.0, after_s=1.5)
        regressions = bench.compare_reports(current, previous, tolerance=0.3)
        assert len(regressions) == 1
        assert "d/mine@1" in regressions[0]

    def test_within_tolerance_passes(self):
        current, previous = self._reports(before_s=1.0, after_s=1.2)
        assert bench.compare_reports(current, previous, tolerance=0.3) == []

    def test_speedup_never_fails(self):
        current, previous = self._reports(before_s=1.0, after_s=0.2)
        assert bench.compare_reports(current, previous, tolerance=0.0) == []

    def test_noise_floor_suppresses_micro_jitter(self):
        # 10ms -> 40ms is a 300% "regression" but only 30ms of wall time.
        current, previous = self._reports(before_s=0.01, after_s=0.04)
        assert bench.compare_reports(current, previous, tolerance=0.3) == []

    def test_unknown_datasets_ignored(self):
        current, __ = self._reports(before_s=1.0, after_s=9.0)
        assert bench.compare_reports(current, {"datasets": {}}, 0.3) == []

    def test_serving_p99_regression_flagged(self):
        current = {"datasets": {}, "serving": {"p50_ms": 1.0, "p99_ms": 900.0}}
        previous = {"datasets": {}, "serving": {"p50_ms": 1.0, "p99_ms": 100.0}}
        regressions = bench.compare_reports(current, previous, tolerance=0.3)
        assert len(regressions) == 1 and "serving/p99" in regressions[0]

    def test_serving_leg_skipped_when_absent(self):
        # A v2 baseline has no serving entry; the gate must not trip.
        current = {"datasets": {}, "serving": {"p50_ms": 1.0, "p99_ms": 900.0}}
        assert bench.compare_reports(current, {"datasets": {}}, 0.3) == []

    def test_serving_jitter_under_noise_floor_ignored(self):
        # +300% but only 30ms of absolute p99 movement: loopback noise.
        current = {"datasets": {}, "serving": {"p99_ms": 40.0}}
        previous = {"datasets": {}, "serving": {"p99_ms": 10.0}}
        assert bench.compare_reports(current, previous, 0.3) == []


class TestMain:
    def test_quick_run_writes_report_and_passes(self, tmp_path, capsys):
        # A real (tiny, via --datasets) end-to-end run through the CLI glue.
        code = bench.main(
            ["--quick", "--datasets", "retail", "--jobs", "1,2",
             "--output-dir", str(tmp_path), "--no-compare", "--no-serving"]
        )
        assert code == 0
        assert list(tmp_path.glob("BENCH_*.json"))
        assert "retail" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        # Forge a much-faster baseline so the real run must look regressed
        # (with the noise floor lowered so tiny wall times still count).
        monkeypatch.setattr(bench, "NOISE_FLOOR_SECONDS", 0.0)
        baseline = {
            "datasets": {
                "kosarak": {
                    "build_s": 1e-9,
                    "convert_s": 1e-9,
                    "mine": {"1": {"wall_s": 1e-9}},
                }
            }
        }
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        code = bench.main(
            ["--quick", "--datasets", "kosarak",
             "--jobs", "1", "--output-dir", str(tmp_path), "--no-serving",
             "--baseline", str(baseline_path), "--tolerance", "0.0"]
        )
        assert code == 1
        assert "perf regressions" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path):
        code = bench.main(
            ["--output-dir", str(tmp_path), "--baseline", str(tmp_path / "no.json")]
        )
        assert code == 2

    def test_bad_jobs_is_usage_error(self, tmp_path):
        assert bench.main(["--jobs", "two", "--output-dir", str(tmp_path)]) == 2

    def test_unknown_dataset_rejected(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit):
            bench.run_bench(dataset_names=["nope"])

    def test_format_summary_mentions_every_dataset(self):
        report = _tiny_run()
        summary = bench.format_summary(report)
        assert "paper" in summary and "random" in summary
        assert "peak RSS" in summary


class TestServingLeg:
    def test_report_entry_shape_and_parity(self):
        report = bench.run_bench(
            jobs=(1,),
            build_jobs=(1,),
            datasets={"random": (random_database(5, n_transactions=80), 3)},
            serving=True,
        )
        serving = report["serving"]
        assert serving["dataset"] == "random"
        assert serving["clients"] == bench.SERVING_CLIENTS
        assert serving["requests"] == serving["clients"] * 16
        # The load run doubles as a correctness run.
        assert serving["errors"] == 0
        assert serving["mismatches"] == 0
        assert serving["p50_ms"] <= serving["p99_ms"] <= serving["max_ms"]
        assert serving["support_queries"] > 0
        assert serving["support_columnar_s"] >= 0
        assert serving["support_per_node_s"] >= 0

    def test_cli_runs_serving_leg_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(
            bench.DATASETS, "paper", lambda quick: (paper_example_database(), 2)
        )
        code = bench.main(
            ["--quick", "--datasets", "paper", "--jobs", "1",
             "--build-jobs", "1", "--output-dir", str(tmp_path), "--no-compare"]
        )
        assert code == 0
        assert "serving[paper]" in capsys.readouterr().out
        report = json.loads(next(tmp_path.glob("BENCH_*.json")).read_text())
        assert report["serving"]["errors"] == 0

    def test_serving_off_by_default(self):
        report = bench.run_bench(
            jobs=(1,),
            build_jobs=(1,),
            datasets={"paper": (paper_example_database(), 2)},
        )
        assert "serving" not in report

    def test_summary_renders_serving_line(self):
        report = {
            "created_utc": "now",
            "machine": {"platform": "p", "cpus": 1},
            "datasets": {},
            "peak_rss_kb": 1,
            "serving": {
                "dataset": "random",
                "clients": 64,
                "requests_per_client": 4,
                "rps": 1000.0,
                "p50_ms": 1.0,
                "p99_ms": 2.0,
                "pool_hits": 10,
                "pool_faults": 1,
                "errors": 0,
                "mismatches": 0,
                "support_queries": 32,
                "support_columnar_s": 0.01,
                "support_per_node_s": 0.1,
                "support_speedup": 10.0,
            },
        }
        summary = bench.format_summary(report)
        assert "serving[random]" in summary
        assert "support kernel" in summary and "10.0x" in summary


class TestTraceOverhead:
    def test_measure_returns_schema(self):
        result = bench.measure_trace_overhead(
            random_database(2, n_transactions=60, n_items=10, max_length=7),
            2,
            repeats=1,
        )
        assert set(result) == {"plain_s", "traced_s", "overhead_pct"}
        assert result["plain_s"] > 0
        assert result["traced_s"] > 0


class TestMineFloors:
    def test_parse_specs(self):
        floors = bench.parse_mine_floors(["quest-T10I4=80000", "a=1,b=2.5"])
        assert floors == {"quest-T10I4": 80000.0, "a": 1.0, "b": 2.5}

    def test_parse_rejects_malformed(self):
        import pytest

        for bad in ["quest-T10I4", "=5", "name=fast"]:
            with pytest.raises(ValueError):
                bench.parse_mine_floors([bad])

    def test_floor_passes_within_tolerance(self):
        report = _tiny_run()
        rate = report["datasets"]["paper"]["mine"]["1"]["nodes_per_s"] or 1
        # The measured rate itself sits above rate * (1 - tolerance).
        assert bench.check_mine_floors(report, {"paper": float(rate)}, 0.3) == []

    def test_floor_violation_reported(self):
        report = _tiny_run()
        failures = bench.check_mine_floors(report, {"paper": 1e12}, 0.3)
        assert len(failures) == 1 and "paper/mine@1" in failures[0]

    def test_missing_dataset_fails_the_gate(self):
        report = _tiny_run()
        failures = bench.check_mine_floors(report, {"quest-T10I4": 1.0}, 0.3)
        assert len(failures) == 1 and "no serial mine leg" in failures[0]

    def test_cli_gates_on_floor(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(
            bench.DATASETS, "paper", lambda quick: (paper_example_database(), 2)
        )
        code = bench.main(
            ["--quick", "--datasets", "paper", "--jobs", "1",
             "--build-jobs", "1", "--output-dir", str(tmp_path), "--no-serving",
             "--no-compare", "--mine-floor", "paper=1e12"]
        )
        assert code == 1
        assert "floor" in capsys.readouterr().err

    def test_cli_rejects_malformed_floor(self, tmp_path):
        code = bench.main(
            ["--mine-floor", "paper", "--output-dir", str(tmp_path)]
        )
        assert code == 2

    def test_machine_records_kernel_backend(self):
        report = _tiny_run(jobs=(1,))
        assert report["machine"]["kernel_backend"] in {"python", "numpy"}


class TestOutOfCoreLeg:
    def test_cli_fails_when_reads_exceed_the_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        forged = {
            "array_bytes": 1000, "budget_bytes": 100, "ratio": 10.0,
            "partitions": 3, "bytes_read": 6001, "faults": 2, "prefetched": 1,
            "prefetch_hits": 1, "prefetch_hit_rate": 1.0, "wall_s": 0.1,
            "slowdown": 1.0, "nodes_per_s": 1, "identical": True,
        }
        monkeypatch.setattr(bench, "_quest_ooc", lambda quick: ([[1]], 1))
        monkeypatch.setattr(bench, "bench_outofcore", lambda db, ms: dict(forged))
        monkeypatch.setitem(
            bench.DATASETS, "paper", lambda quick: (paper_example_database(), 2)
        )
        args = ["--quick", "--datasets", "paper", "--jobs", "1",
                "--build-jobs", "1", "--output-dir", str(tmp_path),
                "--no-serving", "--no-compare", "--no-incremental"]
        assert bench.main(args) == 1
        captured = capsys.readouterr()
        assert "6.00x array, max 6x" in captured.out
        assert "over 2 x 3 partitions" in captured.err
        forged["bytes_read"] = 6000
        assert bench.main(args) == 0
