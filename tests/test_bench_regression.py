"""Tests for the benchmark-regression gate (`scripts/check_bench_regression.py`)."""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
          / "scripts" / "check_bench_regression.py")
_spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = gate  # dataclass processing needs the module visible
_spec.loader.exec_module(gate)


def wall(fresh, base, fail=0.25, warn=0.10):
    metric = gate.Metric("wall_seconds", "wall")
    verdict, _ = gate.compare("BENCH_x.json", metric, fresh, base, fail, warn)
    return verdict


class TestWallComparison:
    def test_within_thresholds_is_ok(self):
        assert wall(1.02, 1.0) == "ok"

    def test_large_relative_regression_fails(self):
        assert wall(2.0, 1.0) == "fail"

    def test_warn_band(self):
        assert wall(1.2, 1.0) == "warn"

    def test_absolute_floor_shields_small_deltas(self):
        # +100% relative but only 0.1s absolute: under the floor, never gates.
        assert wall(0.2, 0.1) == "ok"

    def test_zero_baseline_does_not_divide(self):
        # Regression: a zero baseline (fully cached re-sweep records a 0.0
        # wall-time) must apply the absolute noise floor first instead of
        # dividing — and must still catch a genuinely large regression.
        assert wall(0.1, 0.0) == "ok"       # under the floor: noise
        assert wall(10.0, 0.0) == "fail"    # way past the floor: regression

    def test_near_zero_baseline_respects_the_floor(self):
        # 1 ms -> 100 ms is a 100x ratio but a sub-floor absolute delta;
        # past the warn floor it degrades gracefully instead of failing.
        assert wall(0.1, 0.001) == "ok"
        assert wall(0.2, 0.001) == "warn"
        assert wall(5.0, 0.001) == "fail"

    def test_improvements_never_gate(self):
        assert wall(0.5, 10.0) == "ok"


class TestOtherKinds:
    def test_rate_gates_on_absolute_drops(self):
        metric = gate.Metric("cache_hit_rate", "rate")
        assert gate.compare("b", metric, 0.992, 0.995, 0.25, 0.10)[0] == "ok"
        assert gate.compare("b", metric, 0.98, 0.99, 0.25, 0.10)[0] == "warn"
        assert gate.compare("b", metric, 0.90, 0.99, 0.25, 0.10)[0] == "fail"

    def test_count_fails_on_any_increase(self):
        metric = gate.Metric("simulations", "count")
        assert gate.compare("b", metric, 0.0, 0.0, 0.25, 0.10)[0] == "ok"
        assert gate.compare("b", metric, 1.0, 0.0, 0.25, 0.10)[0] == "fail"

    def test_overhead_gates_on_the_absolute_ceiling(self):
        metric = gate.Metric("overhead_fraction", "overhead")
        assert gate.compare("b", metric, 0.02, 0.01, 0.25, 0.10)[0] == "ok"
        assert gate.compare("b", metric, 0.04, 0.01, 0.25, 0.10)[0] == "warn"
        assert gate.compare("b", metric, 0.06, 0.01, 0.25, 0.10)[0] == "fail"

    def test_overhead_ignores_the_baseline(self):
        # The budget is a contract, not a trajectory: halving a failing
        # overhead is still a failure, and a 100x jump that stays under
        # the ceiling is still ok.
        metric = gate.Metric("overhead_fraction", "overhead")
        assert gate.compare("b", metric, 0.06, 0.12, 0.25, 0.10)[0] == "fail"
        assert gate.compare("b", metric, 0.02, 0.0002, 0.25, 0.10)[0] == "ok"

    def test_throughput_gates_on_the_equivalent_slowdown(self):
        # A relative drop never exceeds 1.0, so gating it against CI's
        # 1.5 fail threshold let any throughput collapse through.
        metric = gate.Metric("requests_per_wall_second", "throughput")
        assert gate.compare("b", metric, 300.0, 1000.0, 1.5, 0.25)[0] == "fail"
        assert gate.compare("b", metric, 500.0, 1000.0, 1.5, 0.25)[0] == "warn"
        assert gate.compare("b", metric, 900.0, 1000.0, 1.5, 0.25)[0] == "ok"
        assert gate.compare("b", metric, 0.0, 1000.0, 1.5, 0.25)[0] == "fail"
        assert gate.compare("b", metric, 2000.0, 1000.0, 1.5, 0.25)[0] == "ok"

    def test_throughput_and_wall_thresholds_mean_the_same(self):
        # Halving throughput is doubling the wall time: the same verdict.
        throughput = gate.Metric("requests_per_wall_second", "throughput")
        for slowdown in (0.05, 0.2, 0.3, 1.0, 2.0):
            fresh = 1000.0 / (1.0 + slowdown)
            assert (gate.compare("b", throughput, fresh, 1000.0, 0.25, 0.10)[0]
                    == wall(10.0 * (1.0 + slowdown), 10.0))

    def test_obs_record_is_gated(self):
        assert "BENCH_obs.json" in gate.BENCH_METRICS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            gate.compare("b", gate.Metric("x", "magic"), 1.0, 1.0, 0.25, 0.10)

    def test_metric_read_path_and_errors(self):
        metric = gate.Metric("report.wall", "wall")
        assert metric.read({"report": {"wall": 1.5}}) == 1.5
        with pytest.raises(KeyError, match="missing"):
            metric.read({"report": {}})
        with pytest.raises(TypeError, match="not numeric"):
            metric.read({"report": {"wall": "fast"}})


class TestMainVerdicts:
    def make_records(self, tmp_path, fresh_value, base_value):
        bench_dir = tmp_path / "fresh"
        base_dir = tmp_path / "base"
        bench_dir.mkdir()
        base_dir.mkdir()
        for name, metrics in gate.BENCH_METRICS.items():
            fresh = {}
            base = {}
            for metric in metrics:
                target_fresh = fresh
                target_base = base
                *parents, leaf = metric.path.split(".")
                for part in parents:
                    target_fresh = target_fresh.setdefault(part, {})
                    target_base = target_base.setdefault(part, {})
                # Counts must stay at zero and overheads under their
                # absolute ceiling for a run to read as clean.
                zero_kinds = ("count", "overhead")
                value_fresh = 0.0 if metric.kind in zero_kinds else fresh_value
                value_base = 0.0 if metric.kind in zero_kinds else base_value
                target_fresh[leaf] = value_fresh
                target_base[leaf] = value_base
            (bench_dir / name).write_text(json.dumps(fresh), encoding="utf-8")
            (base_dir / name).write_text(json.dumps(base), encoding="utf-8")
        return bench_dir, base_dir

    def test_clean_run_passes(self, tmp_path, capsys):
        bench_dir, base_dir = self.make_records(tmp_path, 1.0, 1.0)
        code = gate.main(["--bench-dir", str(bench_dir),
                          "--baseline-dir", str(base_dir)])
        assert code == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_gross_regression_fails(self, tmp_path, capsys):
        bench_dir, base_dir = self.make_records(tmp_path, 10.0, 1.0)
        code = gate.main(["--bench-dir", str(bench_dir),
                          "--baseline-dir", str(base_dir)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_fresh_record_fails(self, tmp_path):
        bench_dir, base_dir = self.make_records(tmp_path, 1.0, 1.0)
        next(iter(bench_dir.glob("BENCH_*.json"))).unlink()
        assert gate.main(["--bench-dir", str(bench_dir),
                          "--baseline-dir", str(base_dir)]) == 1

    def test_optimize_record_is_gated(self):
        assert "BENCH_optimize.json" in gate.BENCH_METRICS
        kinds = {metric.path: metric.kind
                 for metric in gate.BENCH_METRICS["BENCH_optimize.json"]}
        assert kinds["warm_simulations"] == "count"

    def test_realistic_cluster_case_is_gated(self):
        kinds = {metric.path: metric.kind
                 for metric in gate.BENCH_METRICS["BENCH_cluster.json"]}
        assert kinds["realistic.wall_seconds"] == "wall"
        assert kinds["realistic.requests_per_wall_second"] == "throughput"
        # The routing front end's work is gated exactly, not by wall time.
        assert kinds["realistic.fleet_views"] == "count"
        assert kinds["realistic.routable_rebuilds"] == "count"
        assert kinds["realistic.view_builds"] == "count"

    def test_realistic_aggregation_work_is_gated(self):
        kinds = {metric.path: metric.kind
                 for metric in gate.BENCH_METRICS["BENCH_cluster.json"]}
        # Trace rows built through the checked constructor, or a fleet
        # report that judges a row twice, shows as more calls.
        assert kinds["realistic.request_post_inits"] == "count"
        assert kinds["realistic.meets_calls"] == "count"
        assert kinds["realistic.slo_debt_calls"] == "count"

    def test_cold_pricing_work_is_gated(self):
        kinds = {metric.path: metric.kind
                 for metric in gate.BENCH_METRICS["BENCH_serving.json"]}
        assert kinds["cold_pricing.wall_seconds"] == "wall"
        # A memo that stops serving a priced state shows as more work.
        assert kinds["cold_pricing.graph_evals"] == "count"
        assert kinds["cold_pricing.matmul_maps"] == "count"
        assert kinds["cold_pricing.mapping_candidates"] == "count"
