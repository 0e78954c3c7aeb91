"""Tests for the sweep engine: grids, caching invariants and parallel fan-out.

The headline invariants pinned here:

* a sweep with ``workers=4`` reproduces the serial rows exactly (and
  byte-identically once exported);
* repeated points (the shared TPUv4i baseline) simulate once;
* a cached re-sweep performs zero new graph simulations;
* single- and multi-device evaluations match the direct simulator paths.
"""

from __future__ import annotations

import pytest

from repro.common import Precision
from repro.core.designs import design_a, tpuv4i_baseline
from repro.core.explorer import ArchitectureExplorer
from repro.core.simulator import (
    DiTInferenceSettings,
    InferenceSimulator,
    LLMInferenceSettings,
)
from repro.parallel.multi_device import MultiTPUSystem
from repro.sweep.cache import CachingInferenceSimulator, ResultCache
from repro.sweep.engine import SweepEngine, point_key
from repro.sweep.export import to_csv, to_json
from repro.sweep.grid import SweepGrid, SweepPoint, default_grid, make_point
from repro.workloads.dit import DiTConfig
from repro.workloads.llm import LLMConfig

TINY_LLM = LLMConfig(name="sweep-tiny-llm", num_layers=2, num_heads=8, d_model=512, d_ff=2048,
                     vocab_size=1000)
TINY_DIT = DiTConfig(name="sweep-tiny-dit", depth=2, num_heads=4, d_model=256)


def tiny_points(designs=None):
    """A small mixed LLM/DiT point list over the given designs."""
    designs = designs if designs is not None else [("baseline", tpuv4i_baseline()),
                                                   ("design-a", design_a())]
    points = []
    for label, config in designs:
        points.append(make_point(label, config, TINY_LLM, batch=2, input_tokens=64,
                                 output_tokens=16, decode_kv_samples=2))
        points.append(make_point(label, config, TINY_DIT, batch=1, image_resolution=256,
                                 sampling_steps=2))
    return points


class TestGrid:
    def test_expansion_size_and_order(self):
        grid = SweepGrid(designs={"baseline": tpuv4i_baseline(), "design-a": design_a()},
                         models=["gpt3-30b", "dit-xl-2"],
                         precisions=(Precision.INT8, Precision.BF16), batches=(1, 8))
        points = grid.points()
        assert len(points) == len(grid) == 16
        # designs vary slowest, then models, precisions, batches.
        assert [p.design for p in points[:8]] == ["baseline"] * 8
        assert points[0].batch == 1 and points[1].batch == 8
        assert points[0].precision is Precision.INT8
        assert points[2].precision is Precision.BF16

    def test_default_grid_covers_registry_and_precisions(self):
        grid = default_grid()
        points = grid.points()
        assert {p.workload for p in points} >= {"gpt3-30b", "gpt3-175b", "llama2-7b",
                                                "llama2-13b", "dit-xl-2"}
        assert {p.precision for p in points} == {Precision.INT8, Precision.BF16}
        assert {p.batch for p in points} == {1, 8}

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(models=[])
        with pytest.raises(ValueError):
            SweepGrid(batches=())

    def test_point_settings_type_must_match_model(self):
        with pytest.raises(ValueError):
            SweepPoint(design="x", config=tpuv4i_baseline(), model=TINY_LLM,
                       settings=DiTInferenceSettings(batch=1, image_resolution=256,
                                                     sampling_steps=2))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            make_point("x", tpuv4i_baseline(), TINY_LLM, devices=0)
        with pytest.raises(ValueError):
            make_point("x", tpuv4i_baseline(), TINY_LLM, parallelism="data")


class TestCachingSimulator:
    def test_repeat_graphs_simulate_once(self):
        cache = ResultCache()
        simulator = CachingInferenceSimulator(tpuv4i_baseline(), cache)
        first = simulator.simulate_llm_prefill_layer(
            TINY_LLM, LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16))
        second = simulator.simulate_llm_prefill_layer(
            TINY_LLM, LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16))
        assert first is second
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_matches_uncached_simulator(self):
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16,
                                        decode_kv_samples=2)
        cached = CachingInferenceSimulator(tpuv4i_baseline())
        plain = InferenceSimulator(tpuv4i_baseline())
        assert (cached.simulate_llm_inference(TINY_LLM, settings).total_seconds
                == plain.simulate_llm_inference(TINY_LLM, settings).total_seconds)

    def test_cache_shared_across_chips_never_collides(self):
        cache = ResultCache()
        settings = DiTInferenceSettings(batch=1, image_resolution=256, sampling_steps=2)
        baseline = CachingInferenceSimulator(tpuv4i_baseline(), cache)
        cim = CachingInferenceSimulator(design_a(), cache)
        a = baseline.simulate_dit_block(TINY_DIT, settings)
        b = cim.simulate_dit_block(TINY_DIT, settings)
        assert a.total_seconds != b.total_seconds
        assert cache.stats.misses == 2


class TestEngineCaching:
    def test_repeated_baseline_point_simulates_once(self):
        engine = SweepEngine()
        baseline_point = tiny_points()[0]
        rows = engine.sweep([baseline_point, baseline_point, baseline_point])
        assert rows[0] == rows[1] == rows[2]
        assert engine.stats.point_misses == 1
        assert engine.stats.point_hits == 2

    def test_cached_resweep_performs_zero_new_simulations(self):
        engine = SweepEngine()
        points = tiny_points()
        first = engine.sweep(points)
        simulations_before = engine.stats.simulations
        assert simulations_before > 0
        second = engine.sweep(points)
        assert second == first
        assert engine.stats.simulations == simulations_before
        assert engine.stats.point_hits == len(points)

    def test_evaluate_matches_sweep_row(self):
        engine = SweepEngine()
        point = tiny_points()[1]
        assert engine.evaluate(point) == SweepEngine().sweep([point])[0]

    def test_result_metadata(self):
        row = SweepEngine().evaluate(tiny_points()[0])
        assert row.design == "baseline"
        assert row.workload == "sweep-tiny-llm"
        assert row.kind == "llm" and row.item_unit == "token"
        assert row.precision == "int8" and row.batch == 2
        assert row.items == 2 * 16
        assert row.latency_seconds > 0 and row.mxu_energy_joules > 0
        assert row.throughput == pytest.approx(row.items / row.latency_seconds)
        assert row.cache_key == point_key(tiny_points()[0])


class TestParallelSweep:
    def test_parallel_rows_identical_to_serial(self):
        points = tiny_points()
        serial = SweepEngine().sweep(points)
        parallel = SweepEngine().sweep(points, workers=4)
        assert parallel == serial
        assert to_json(parallel).encode() == to_json(serial).encode()
        assert to_csv(parallel).encode() == to_csv(serial).encode()

    def test_parallel_resweep_hits_point_cache(self):
        engine = SweepEngine()
        points = tiny_points()
        first = engine.sweep(points, workers=2)
        simulations = engine.stats.simulations
        second = engine.sweep(points, workers=2)
        assert second == first
        assert engine.stats.simulations == simulations

    def test_workers_one_is_serial(self):
        points = tiny_points()
        assert SweepEngine().sweep(points, workers=1) == SweepEngine().sweep(points)

    def test_warm_cache_parallel_stats_equal_serial(self):
        # Regression for cache stats lost across the process boundary: on
        # an engine that has already swept, a parallel sweep must add the
        # workers' graph hits and misses to the engine, so its statistics
        # equal a serial engine's exactly.  Graph caches last one chip
        # group of one sweep, so the hits come from the 2- and 4-device
        # points of a design sharing their per-layer graphs.
        first = tiny_points()
        second = [make_point(label, config, TINY_LLM, batch=2, input_tokens=64,
                             output_tokens=16, decode_kv_samples=2, devices=devices)
                  for label, config in (("baseline", tpuv4i_baseline()),
                                        ("design-a", design_a()))
                  for devices in (2, 4)]  # per-layer graphs shared across devices
        serial = SweepEngine()
        serial.sweep(first)
        serial_rows = serial.sweep(second)

        parallel = SweepEngine()
        parallel.sweep(first)
        rows = parallel.sweep(second, workers=4)

        assert rows == serial_rows
        assert parallel.stats == serial.stats
        assert parallel.stats.graph_hits > 0  # graphs shared within a chip group


class TestTableIVParity:
    """workers=4 reproduces the exact serial Table IV exploration rows."""

    @pytest.fixture(scope="class")
    def explorer_kwargs(self):
        return dict(
            llm=TINY_LLM, dit=TINY_DIT,
            llm_settings=LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16,
                                              decode_kv_samples=2),
            dit_settings=DiTInferenceSettings(batch=1, image_resolution=256,
                                              sampling_steps=2))

    def test_workers4_matches_serial_rows(self, explorer_kwargs):
        serial = ArchitectureExplorer(**explorer_kwargs).explore()
        parallel = ArchitectureExplorer(**explorer_kwargs, workers=4).explore()
        assert parallel == serial
        assert len(serial) == 2 * (1 + 9)  # baseline + Table IV points, both workloads

    def test_shared_engine_reuses_points_across_explorations(self, explorer_kwargs):
        engine = SweepEngine()
        first = ArchitectureExplorer(**explorer_kwargs, engine=engine).explore()
        simulations = engine.stats.simulations
        second = ArchitectureExplorer(**explorer_kwargs, engine=engine).explore()
        assert second == first
        assert engine.stats.simulations == simulations


class TestMultiDevicePoints:
    def test_multi_device_point_matches_direct_system(self):
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16,
                                        decode_kv_samples=2)
        point = SweepPoint(design="design-a", config=design_a(), model=TINY_LLM,
                           settings=settings, devices=2)
        row = SweepEngine().evaluate(point)
        direct = MultiTPUSystem(design_a(), 2).simulate_llm(TINY_LLM, settings)
        assert row.throughput == direct.throughput
        assert row.communication_seconds == direct.communication_seconds
        assert row.mxu_energy_joules == direct.mxu_energy_joules

    def test_device_axis_shares_per_layer_graphs(self):
        engine = SweepEngine()
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16,
                                        decode_kv_samples=2)
        points = [SweepPoint(design="design-a", config=design_a(), model=TINY_LLM,
                             settings=settings, devices=n) for n in (1, 2, 4)]
        engine.sweep(points)
        # The per-layer graphs are identical across device counts, so only the
        # first point simulates; the others are pure cache hits.
        assert engine.stats.simulations == 3  # prefill + 2 decode KV samples
        assert engine.stats.graph_hits >= 6

    def test_parallel_device_axis_simulates_like_serial(self):
        """Pool tasks are grouped by chip config, so fan-out keeps graph sharing."""
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16,
                                        decode_kv_samples=2)
        points = [SweepPoint(design="design-a", config=design_a(), model=TINY_LLM,
                             settings=settings, devices=n) for n in (1, 2, 4)]
        serial_engine, parallel_engine = SweepEngine(), SweepEngine()
        serial_rows = serial_engine.sweep(points)
        parallel_rows = parallel_engine.sweep(points, workers=3)
        assert parallel_rows == serial_rows
        assert parallel_engine.stats.simulations == serial_engine.stats.simulations == 3

    def test_one_chip_group_starts_no_pool(self, monkeypatch):
        """A device-axis sweep is one chip group: workers > 1 stays in-process."""
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16,
                                        decode_kv_samples=2)
        points = [SweepPoint(design="design-a", config=design_a(), model=TINY_LLM,
                             settings=settings, devices=n) for n in (1, 2, 4, 8)]
        serial = SweepEngine().sweep(points)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-group sweep started a process pool")

        monkeypatch.setattr("repro.sweep.engine.multiprocessing.Pool", no_pool)
        assert SweepEngine().sweep(points, workers=2) == serial

    def test_injected_simulator_config_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiTPUSystem(design_a(), 2,
                           simulator=InferenceSimulator(tpuv4i_baseline()))

    def test_tensor_parallel_dit_point_raises(self):
        point = SweepPoint(design="design-a", config=design_a(), model=TINY_DIT,
                           settings=DiTInferenceSettings(batch=1, image_resolution=256,
                                                         sampling_steps=2),
                           devices=2, parallelism="tensor")
        with pytest.raises(ValueError):
            SweepEngine().evaluate(point)


class TestModelKinds:
    def test_kind_matches_the_workload_registry(self):
        """Every registered model's sweep row carries its registry family tag
        (regression for the stale '"llm" or "dit"' doc: moe flows through)."""
        from repro.workloads.registry import MODEL_REGISTRY, get_model, model_kind

        engine = SweepEngine()
        for name in sorted(MODEL_REGISTRY):
            model = get_model(name)
            point = make_point("baseline", tpuv4i_baseline(), model, batch=1,
                               input_tokens=32, output_tokens=4, decode_kv_samples=1,
                               image_resolution=256, sampling_steps=1)
            assert engine.evaluate(point).kind == model_kind(model)

    def test_registry_families_are_exhaustive(self):
        from repro.workloads.registry import MODEL_KINDS, MODEL_REGISTRY, model_kind

        kinds = {model_kind(model) for model in MODEL_REGISTRY.values()}
        assert kinds == {"llm", "moe", "dit"}
        assert kinds <= {kind for _, kind in MODEL_KINDS}

    def test_unknown_model_type_rejected(self):
        from repro.workloads.registry import model_kind

        with pytest.raises(TypeError, match="no workload family"):
            model_kind(object())


class TestServingPoints:
    """Sweep points carrying a ServingSpec run the discrete-event simulator."""

    @staticmethod
    def serving_point(design="baseline", config=None, **overrides):
        from repro.serving.spec import ServingSpec

        spec = ServingSpec(scheduler=overrides.pop("scheduler", "fcfs"),
                           arrival_rate=overrides.pop("arrival_rate", 20.0),
                           num_requests=overrides.pop("num_requests", 20), seed=3)
        return make_point(design, config if config is not None else tpuv4i_baseline(),
                          TINY_LLM, batch=2, input_tokens=64, output_tokens=16,
                          decode_kv_samples=2, serving=spec, **overrides)

    def test_serving_row_shape(self):
        row = SweepEngine().evaluate(self.serving_point())
        assert row.scenario == "llm-serving"
        assert "fcfs" in row.settings_summary and "seed=3" in row.settings_summary
        assert row.item_unit == "token"
        assert row.items == 20 * 16  # every request completes
        assert row.latency_seconds > 0 and row.throughput > 0

    def test_serving_rows_cache_and_reproduce(self):
        engine = SweepEngine()
        points = [self.serving_point(), self.serving_point()]
        rows = engine.sweep(points)
        assert rows[0] == rows[1]
        assert engine.stats.point_hits >= 1
        assert SweepEngine().sweep([self.serving_point()])[0] == rows[0]

    def test_parallel_serving_sweep_matches_serial(self):
        points = [self.serving_point(),
                  self.serving_point(design="design-a", config=design_a()),
                  self.serving_point(scheduler="decode-priority")]
        serial = SweepEngine().sweep(points)
        parallel = SweepEngine().sweep(points, workers=2)
        assert to_json(parallel) == to_json(serial)

    def test_scheduler_changes_the_cache_key(self):
        assert (point_key(self.serving_point())
                != point_key(self.serving_point(scheduler="decode-priority")))

    def test_serving_grid_expansion(self):
        grid = SweepGrid(designs={"baseline": tpuv4i_baseline()},
                         models=["llama2-7b", "dit-xl-2"],
                         schedulers=("fcfs", "decode-priority"),
                         arrival_rates=(2.0, 8.0), serving_requests=10,
                         input_tokens=32, output_tokens=8)
        points = grid.points()
        # DiT is skipped under serving; 1 design x 1 model x 2 x 2 axes.
        assert len(points) == len(grid) == 4
        assert {p.serving.scheduler for p in points} == {"fcfs", "decode-priority"}
        assert {p.serving.arrival_rate for p in points} == {2.0, 8.0}

    def test_serving_grid_collapses_the_batch_axis(self):
        """Regression: batch does not affect a serving run, so extra batch
        values must not duplicate identical discrete-event simulations."""
        grid = SweepGrid(designs={"baseline": tpuv4i_baseline()},
                         models=["llama2-7b"], batches=(1, 8),
                         schedulers=("fcfs",), arrival_rates=(4.0,),
                         serving_requests=10, input_tokens=32, output_tokens=8)
        assert len(grid.points()) == len(grid) == 1

    def test_serving_grid_validation(self):
        with pytest.raises(ValueError, match="schedulers and arrival_rates"):
            SweepGrid(schedulers=("fcfs",))
        with pytest.raises(ValueError, match="deployment"):
            SweepGrid(schedulers=("fcfs",), arrival_rates=(2.0,),
                      device_counts=(1, 2))

    def test_serving_point_rejects_non_llm_and_devices(self):
        from repro.serving.spec import ServingSpec

        with pytest.raises(ValueError, match="LLM"):
            make_point("baseline", tpuv4i_baseline(), TINY_DIT, batch=1,
                       image_resolution=256, sampling_steps=1,
                       serving=ServingSpec())
        with pytest.raises(ValueError, match="deployment"):
            make_point("baseline", tpuv4i_baseline(), TINY_LLM, batch=1,
                       input_tokens=32, output_tokens=4, devices=2,
                       serving=ServingSpec())


class TestErrorPaths:
    def test_get_model_unknown_name_raises_keyerror(self):
        from repro.workloads.registry import get_model
        with pytest.raises(KeyError, match="registered models"):
            get_model("gpt-neo-x")

    def test_design_config_unknown_name_exits(self):
        from repro.cli import _design_config
        with pytest.raises(SystemExit, match="unknown design"):
            _design_config("gpu")

    def test_best_design_empty_candidates_raises(self):
        explorer = ArchitectureExplorer()
        with pytest.raises(ValueError, match="no exploration rows"):
            explorer.best_design([], "llm")
