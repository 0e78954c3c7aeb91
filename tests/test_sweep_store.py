"""Tests for the persistent result store and its engine integration."""

import json

import pytest

from repro.core.designs import PREDEFINED_DESIGNS, design_a, tpuv4i_baseline
from repro.serving.cluster import cluster_report_from_dict, simulate_cluster
from repro.serving.costs import STEP_PRICES
from repro.serving.spec import ServingSpec
from repro.sweep.engine import STORE_KIND, SweepEngine
from repro.sweep.grid import SweepGrid
from repro.sweep.store import STORE_VERSION, ResultStore
from repro.workloads.llm import LLAMA2_7B
from repro.workloads.registry import get_scenario
from repro.workloads.scenario import ScenarioKnobs


def small_grid(**overrides):
    base = dict(designs={"baseline": tpuv4i_baseline(), "design-a": design_a()},
                models=["gpt3-30b"], input_tokens=64, output_tokens=16)
    base.update(overrides)
    return SweepGrid(**base)


class TestResultStore:
    def test_round_trips_payloads_across_instances(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("kind-a", "key-1", {"value": 1.5, "label": "x"})
        store.put("kind-b", "key-1", {"other": True})
        reopened = ResultStore(path)
        assert len(reopened) == 2
        assert reopened.get("kind-a", "key-1") == {"value": 1.5, "label": "x"}
        assert reopened.get("kind-b", "key-1") == {"other": True}

    def test_get_counts_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.get("kind", "absent") is None
        store.put("kind", "present", {"v": 1})
        assert store.get("kind", "present") == {"v": 1}
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_last_record_of_a_key_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("kind", "key", {"v": 1})
        store.put("kind", "key", {"v": 2})
        assert ResultStore(path).get("kind", "key") == {"v": 2}

    def test_foreign_versions_are_skipped_on_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = {"v": STORE_VERSION + 1, "kind": "kind", "key": "key",
                  "value": {"v": 1}}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        store = ResultStore(path)
        assert len(store) == 0
        assert store.skipped_versions == 1

    def test_corrupt_and_torn_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        good = json.dumps({"v": STORE_VERSION, "kind": "kind", "key": "key",
                           "value": {"v": 1}})
        path.write_text("not json\n" + good + "\n" + good[: len(good) // 2],
                        encoding="utf-8")
        store = ResultStore(path)
        assert store.get("kind", "key") == {"v": 1}
        assert store.skipped_corrupt == 2

    def test_missing_file_is_an_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert len(store) == 0
        assert store.get("kind", "key") is None

    def test_concurrent_writers_never_tear_or_duplicate_lines(self, tmp_path):
        """N threads hammering one store append exactly N*M whole lines.

        The regression this pins: before the store grew its internal lock,
        concurrent ``put`` calls could interleave partial writes (torn
        lines) and race the in-memory index.  Every appended line must
        parse, every (kind, key) must appear exactly once, and a reload
        must see every record.
        """
        import threading

        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        threads_n, puts_n = 8, 50
        barrier = threading.Barrier(threads_n)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(puts_n):
                store.put("kind", f"w{worker}-k{i}",
                          {"worker": worker, "i": i, "pad": "x" * 200})

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == threads_n * puts_n
        seen = set()
        for line in lines:
            record = json.loads(line)  # raises on a torn line
            assert record["v"] == STORE_VERSION
            assert (record["kind"], record["key"]) not in seen
            seen.add((record["kind"], record["key"]))
        reloaded = ResultStore(path)
        assert len(reloaded) == threads_n * puts_n
        assert reloaded.skipped_corrupt == 0
        assert reloaded.get("kind", "w0-k0") == {"worker": 0, "i": 0,
                                                 "pad": "x" * 200}

    def test_concurrent_readers_and_writers_count_consistently(self, tmp_path):
        """Mixed get/put traffic keeps stats and index coherent."""
        import threading

        store = ResultStore(tmp_path / "store.jsonl")
        for i in range(20):
            store.put("kind", f"k{i}", {"i": i})

        def read_all() -> None:
            for i in range(20):
                assert store.get("kind", f"k{i}") == {"i": i}

        def write_more(worker: int) -> None:
            for i in range(20):
                store.put("kind", f"extra-w{worker}-{i}", {"i": i})

        threads = ([threading.Thread(target=read_all) for _ in range(4)]
                   + [threading.Thread(target=write_more, args=(w,))
                      for w in range(4)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats.hits == 4 * 20
        assert len(store) == 20 + 4 * 20


class TestEngineStoreIntegration:
    def test_warm_store_serves_rows_with_zero_simulations(self, tmp_path):
        path = tmp_path / "store.jsonl"
        grid = small_grid()
        cold_store = ResultStore(path)
        cold = SweepEngine(store=cold_store)
        cold_rows = cold.sweep(grid)
        assert cold.stats.simulations > 0
        assert cold_store.stats.hits == 0

        warm_store = ResultStore(path)
        warm = SweepEngine(store=warm_store)
        warm_rows = warm.sweep(grid)
        assert warm_rows == cold_rows  # bit-for-bit, dataclasses included
        assert warm.stats.simulations == 0
        assert (warm_store.stats.hits, warm_store.stats.misses) == (len(cold_rows), 0)

    def test_parallel_sweep_honours_the_warm_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        grid = small_grid(device_counts=(1, 2))
        cold = SweepEngine(store=ResultStore(path))
        cold_rows = cold.sweep(grid)

        warm = SweepEngine(store=ResultStore(path))
        assert warm.sweep(grid, workers=2) == cold_rows
        assert warm.stats.simulations == 0

    def test_parallel_cold_sweep_persists_for_later_runs(self, tmp_path):
        path = tmp_path / "store.jsonl"
        grid = small_grid(device_counts=(1, 2))
        cold = SweepEngine(store=ResultStore(path))
        cold_rows = cold.sweep(grid, workers=2)

        warm = SweepEngine(store=ResultStore(path))
        assert warm.sweep(grid) == cold_rows
        assert warm.stats.simulations == 0

    def test_fleet_sweep_point_round_trips_through_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        grid = small_grid(
            designs={"design-a": design_a()}, models=["llama2-7b"],
            schedulers=("fcfs",), arrival_rates=(16.0,),
            routers=("round-robin",), replica_counts=(2,),
            serving_requests=60)
        cold = SweepEngine(store=ResultStore(path))
        cold_rows = cold.sweep(grid)
        warm = SweepEngine(store=ResultStore(path))
        assert warm.sweep(grid) == cold_rows
        assert warm.stats.simulations == 0

    def test_serial_and_fanout_sweeps_write_the_same_store(self, tmp_path):
        # Both evaluate the same chip groups in the same order and store
        # rows only, never the cluster reports behind fleet points.
        grid = small_grid(
            models=["llama2-7b"], schedulers=("fcfs",), arrival_rates=(16.0,),
            routers=("round-robin",), replica_counts=(1, 2),
            serving_requests=40)
        stats = {}
        for workers in (1, 2):
            STEP_PRICES.clear()  # each run prices its step states cold
            engine = SweepEngine(store=ResultStore(tmp_path / f"w{workers}.jsonl"))
            engine.sweep(grid, workers=workers)
            stats[workers] = engine.stats
        serial = (tmp_path / "w1.jsonl").read_bytes()
        assert serial == (tmp_path / "w2.jsonl").read_bytes()
        assert stats[1] == stats[2]
        assert len(serial.splitlines()) == len(grid)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_groups_are_stored_when_a_later_group_raises(
            self, tmp_path, workers):
        from repro.sweep.engine import point_key
        from repro.sweep.grid import make_point
        from repro.workloads.dit import DIT_XL_2

        good = make_point("baseline", tpuv4i_baseline(), LLAMA2_7B, batch=1,
                          input_tokens=32, output_tokens=4, decode_kv_samples=1)
        # Tensor parallelism has no DiT sharding model: this group raises.
        bad = make_point("design-a", design_a(), DIT_XL_2, batch=1,
                         image_resolution=256, sampling_steps=1, devices=2,
                         parallelism="tensor")
        path = tmp_path / "store.jsonl"
        with pytest.raises(ValueError):
            SweepEngine(store=ResultStore(path)).sweep([good, bad],
                                                       workers=workers)
        assert ResultStore(path).get(STORE_KIND, point_key(good)) is not None


class TestClusterStoreIntegration:
    @pytest.fixture()
    def run_args(self):
        scenario = get_scenario("chat-serving")
        settings = scenario.make_settings(ScenarioKnobs(
            batch=1, input_tokens=64, output_tokens=16))
        spec = ServingSpec(replicas=2, arrival_rate=16.0, num_requests=60, seed=7)
        return LLAMA2_7B, design_a(), spec, settings

    def test_warm_store_serves_identical_report(self, tmp_path, run_args):
        model, config, spec, settings = run_args
        path = tmp_path / "store.jsonl"
        cold = simulate_cluster(model, config, spec, settings,
                                store=ResultStore(path))
        warm_store = ResultStore(path)
        warm = simulate_cluster(model, config, spec, settings, store=warm_store)
        assert warm_store.stats.hits == 1
        assert warm.to_dict(include_requests=False) == cold.to_dict(
            include_requests=False)

    def test_report_dict_round_trip_is_exact(self, run_args):
        model, config, spec, settings = run_args
        report = simulate_cluster(model, config, spec, settings)
        restored = cluster_report_from_dict(report.to_dict())
        assert restored.to_dict() == report.to_dict()
        assert restored.requests == report.requests

    def test_distinct_specs_never_collide(self, tmp_path, run_args):
        model, config, spec, settings = run_args
        store = ResultStore(tmp_path / "store.jsonl")
        first = simulate_cluster(model, config, spec, settings, store=store)
        other_spec = ServingSpec(replicas=2, arrival_rate=16.0,
                                 num_requests=60, seed=8)
        second = simulate_cluster(model, config, other_spec, settings, store=store)
        assert len(store) == 2
        assert first.to_dict(include_requests=False) != second.to_dict(
            include_requests=False)


class TestSweepGridDesignsExist:
    def test_predefined_designs_cover_grid_defaults(self):
        # The store tests rely on predefined design names; pin the two used.
        assert "baseline" in PREDEFINED_DESIGNS
        assert "design-a" in PREDEFINED_DESIGNS
