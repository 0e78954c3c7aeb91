"""Tests for the repro-sim command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    return exit_code, captured.out


SMALL = ["--batch", "2", "--input-tokens", "64", "--output-tokens", "16",
         "--resolution", "256", "--steps", "2"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults_match_paper_settings(self):
        args = build_parser().parse_args(["explore"])
        assert args.batch == 8
        assert args.input_tokens == 1024
        assert args.output_tokens == 512
        assert args.resolution == 512

    def test_multi_device_options(self):
        args = build_parser().parse_args(["multi-device", "--devices", "1", "2",
                                          "--parallelism", "tensor"])
        assert args.devices == [1, 2]
        assert args.parallelism == "tensor"


class TestCompare:
    def test_compare_runs_and_prints_table(self, capsys):
        code, out = run_cli(capsys, *SMALL, "compare", "--design", "cim-default")
        assert code == 0
        assert "Baseline TPUv4i vs. cim-default" in out
        assert "decode layer" in out

    def test_compare_unknown_design_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(SMALL + ["compare", "--design", "gpu"])

    def test_compare_rejects_non_llm_model(self):
        with pytest.raises(SystemExit):
            main(SMALL + ["--llm", "dit-xl-2", "compare"])


class TestExplore:
    def test_explore_runs_and_prints_table(self, capsys):
        code, out = run_cli(capsys, *SMALL, "explore")
        assert code == 0
        assert "design-space exploration" in out
        assert "baseline" in out

    def test_explore_honours_global_llm_flag(self, capsys):
        """Regression: ``--llm`` used to be silently ignored by ``explore``."""
        _, default_out = run_cli(capsys, *SMALL, "--llm", "gpt3-30b", "explore")
        _, llama_out = run_cli(capsys, *SMALL, "--llm", "llama2-7b", "explore")
        assert default_out != llama_out  # a different model gives different latencies

    def test_explore_rejects_non_llm_model(self):
        with pytest.raises(SystemExit, match="not an LLM"):
            main(SMALL + ["--llm", "dit-xl-2", "explore"])

    def test_explore_with_workers(self, capsys):
        code, out = run_cli(capsys, *SMALL, "explore", "--workers", "2")
        assert code == 0
        assert "design-space exploration" in out


class TestSweep:
    def test_sweep_runs_and_reports_cache_stats(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "gpt3-30b", "dit-xl-2",
                            "--designs", "baseline", "design-a",
                            "--precisions", "int8", "--batches", "2")
        assert code == 0
        assert "Scenario sweep" in out
        assert "graph simulations" in out
        assert "dit-xl-2" in out

    def test_sweep_exports_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "rows.json"
        csv_path = tmp_path / "rows.csv"
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "gpt3-30b",
                            "--designs", "baseline", "--precisions", "int8",
                            "--batches", "2", "--json", str(json_path),
                            "--csv", str(csv_path))
        assert code == 0
        assert json_path.exists() and csv_path.exists()
        assert "latency_seconds" in json_path.read_text()
        assert csv_path.read_text().startswith("design,")

    def test_sweep_multi_device_axis(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "llama2-7b",
                            "--designs", "design-a", "--precisions", "int8",
                            "--batches", "2", "--devices", "1", "2")
        assert code == 0
        assert out.count("llama2-7b") >= 2

    def test_sweep_tensor_parallelism_skips_dit_models(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "llama2-7b", "dit-xl-2",
                            "--designs", "design-a", "--precisions", "int8",
                            "--batches", "2", "--devices", "2", "--parallelism", "tensor")
        assert code == 0
        assert "skipping DiT models" in out
        assert "llama2-7b" in out

    def test_sweep_tensor_parallelism_with_only_dit_fails(self):
        with pytest.raises(SystemExit, match="only modelled for LLM"):
            main(SMALL + ["sweep", "--models", "dit-xl-2", "--designs", "design-a",
                          "--precisions", "int8", "--batches", "2",
                          "--devices", "2", "--parallelism", "tensor"])

    def test_sweep_unwritable_export_path_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot write results"):
            main(SMALL + ["sweep", "--models", "gpt3-30b", "--designs", "baseline",
                          "--precisions", "int8", "--batches", "2",
                          "--json", str(tmp_path / "missing-dir" / "rows.json")])

    def test_sweep_unknown_design_fails(self):
        with pytest.raises(SystemExit, match="unknown design"):
            main(SMALL + ["sweep", "--designs", "gpu"])

    def test_sweep_unknown_model_fails(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(SMALL + ["sweep", "--models", "gpt5"])

    def test_sweep_parser_defaults_cover_registry(self):
        args = build_parser().parse_args(["sweep"])
        assert "gpt3-175b" in args.models and "mixtral-8x7b" in args.models
        assert "dit-xl-2" in args.models
        assert set(args.precisions) == {"int8", "bf16"}
        assert args.batches == [1, 8]
        assert args.scenarios is None  # default: per-model scenarios

    def test_sweep_explicit_scenarios(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "llama2-7b", "dit-xl-2",
                            "--designs", "design-a", "--precisions", "int8",
                            "--batches", "2",
                            "--scenarios", "chat-serving", "dit-sampling")
        assert code == 0
        assert "chat-serving" in out
        assert "dit-sampling" in out

    def test_sweep_moe_model_uses_moe_scenario(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "mixtral-8x7b",
                            "--designs", "design-a", "--precisions", "int8",
                            "--batches", "2")
        assert code == 0
        assert "moe-serving" in out

    def test_sweep_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(SMALL + ["sweep", "--scenarios", "training"])

    def test_sweep_tensor_parallelism_skips_moe_models(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "mixtral-8x7b",
                            "llama2-7b", "--designs", "design-a",
                            "--precisions", "int8", "--batches", "2",
                            "--devices", "2", "--parallelism", "tensor")
        assert code == 0
        assert "without a tensor-parallel scenario" in out
        assert "llama2-7b" in out

    def test_sweep_tensor_parallelism_skips_unshardable_scenarios(self, capsys):
        # chat-serving declares tensor support, but an MoE model cannot be
        # sharded, so the shard probe drops it instead of aborting mid-sweep.
        code, out = run_cli(capsys, *SMALL, "sweep", "--models", "mixtral-8x7b",
                            "llama2-7b", "--designs", "design-a",
                            "--precisions", "int8", "--batches", "2",
                            "--scenarios", "chat-serving",
                            "--devices", "2", "--parallelism", "tensor")
        assert code == 0
        assert "without a tensor-parallel scenario" in out
        assert "mixtral-8x7b" in out
        assert "chat-serving" in out


class TestServe:
    SERVE = ["--seed", "7", "--llm", "llama2-7b", "--input-tokens", "64",
             "--output-tokens", "16", "serve", "--scenario", "llm-serving",
             "--rate", "20", "--requests", "30"]

    def test_serve_runs_and_prints_slo_analytics(self, capsys):
        code, out = run_cli(capsys, *self.SERVE)
        assert code == 0
        assert "TTFT" in out and "TPOT" in out and "p99" in out
        assert "SLO" in out and "goodput" in out
        assert "step-cost cache" in out and "hit rate" in out

    def test_serve_is_bit_for_bit_reproducible(self, capsys):
        _, first = run_cli(capsys, *self.SERVE)
        _, second = run_cli(capsys, *self.SERVE)
        assert first == second

    def test_serve_seed_changes_the_run(self, capsys):
        _, first = run_cli(capsys, *self.SERVE)
        _, other = run_cli(capsys, "--seed", "8", *self.SERVE[2:])
        assert first != other

    def test_serve_default_scenario_is_chat_serving(self):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "chat-serving"
        assert args.scheduler == "fcfs"

    def test_serve_exports_report_and_request_rows(self, capsys, tmp_path):
        import json as json_module

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "requests.csv"
        code, _ = run_cli(capsys, *self.SERVE, "--json", str(json_path),
                          "--csv", str(csv_path))
        assert code == 0
        report = json_module.loads(json_path.read_text())
        assert report["completed"] == 30
        assert "cost_cache_hit_rate" in report and "ttft" in report
        assert csv_path.read_text().startswith("request_id,")

    def test_serve_replays_jsonl_trace(self, capsys, tmp_path):
        from repro.serving.trace import generate_trace, write_trace_jsonl
        from repro.workloads.chat import RequestClass

        trace_path = tmp_path / "trace.jsonl"
        write_trace_jsonl(generate_trace(
            "poisson", (RequestClass(input_tokens=64, output_tokens=16),),
            10.0, 20, 3), trace_path)
        code, out = run_cli(capsys, "--llm", "llama2-7b", "serve",
                            "--scenario", "llm-serving",
                            "--trace-file", str(trace_path))
        assert code == 0
        assert "20/20 completed" in out

    def test_serve_scheduler_flag_changes_output(self, capsys):
        _, fcfs = run_cli(capsys, *self.SERVE, "--rate", "100")
        _, waves = run_cli(capsys, *self.SERVE, "--rate", "100",
                           "--scheduler", "decode-priority")
        assert fcfs != waves

    def test_serve_rejects_non_llm_model(self):
        with pytest.raises(SystemExit, match="not an LLM"):
            main(["--llm", "dit-xl-2", "serve"])

    def test_serve_rejects_unsupported_scenario(self):
        with pytest.raises(SystemExit, match="does not support"):
            main(["--llm", "llama2-7b", "serve", "--scenario", "moe-serving"])

    def test_serve_rejects_undersized_deployment(self):
        with pytest.raises(SystemExit, match="does not fit"):
            main(["--llm", "gpt3-30b", "serve", "--devices", "1"])

    def test_serve_unwritable_export_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot write results"):
            main(self.SERVE + ["--json", str(tmp_path / "missing" / "report.json")])


class TestServeFidelity:
    BASE = ["--seed", "7", "--llm", "llama2-7b", "--input-tokens", "64",
            "--output-tokens", "16", "serve", "--scenario", "chat-serving",
            "--rate", "0.5", "--requests", "60"]

    def test_fluid_fidelity_prints_report(self, capsys):
        code, out = run_cli(capsys, *self.BASE, "--fidelity", "fluid")
        assert code == 0
        assert "TTFT" in out and "SLO" in out

    def test_fluid_rejects_trace_file(self, tmp_path):
        with pytest.raises(SystemExit, match="fluid"):
            main(self.BASE + ["--fidelity", "fluid",
                              "--trace-file", str(tmp_path / "t.jsonl")])

    def test_fluid_rejects_faults(self):
        with pytest.raises(SystemExit, match="exact"):
            main(self.BASE + ["--fidelity", "fluid",
                              "--faults", "replica-crash:at_s=1"])

    def test_profile_writes_pstats_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "serve.pstats"
        code, out = run_cli(capsys, *self.BASE, "--profile",
                            "--profile-out", str(out_path))
        assert code == 0
        assert "cumulative" in out
        assert out_path.stat().st_size > 0

    def test_fleet_fluid_fidelity_sizes_the_fleet(self, capsys):
        code, out = run_cli(
            capsys, "--llm", "llama2-7b", "--input-tokens", "64",
            "--output-tokens", "16", "fleet", "--rate", "2",
            "--requests", "80", "--max-replicas", "2", "--seed", "7",
            "--fidelity", "fluid")
        assert "Fleet sizing" in out and "replicas" in out


class TestServeCluster:
    CLUSTER = ["--llm", "llama2-7b", "--input-tokens", "64",
               "--output-tokens", "16", "serve", "--replicas", "3",
               "--rate", "32", "--requests", "60", "--seed", "7"]

    def test_cluster_run_prints_fleet_analytics(self, capsys):
        code, out = run_cli(capsys, *self.CLUSTER)
        assert code == 0
        assert "x3 replicas" in out and "round-robin router" in out
        assert "Per-replica breakdown" in out
        assert "per million tokens" in out
        assert "peak" in out and "active" in out

    def test_cluster_run_is_bit_for_bit_reproducible(self, capsys):
        _, first = run_cli(capsys, *self.CLUSTER)
        _, second = run_cli(capsys, *self.CLUSTER)
        assert first == second

    def test_router_flag_changes_the_split(self, capsys):
        _, round_robin = run_cli(capsys, *self.CLUSTER)
        _, affinity = run_cli(capsys, *self.CLUSTER, "--router",
                              "session-affinity")
        assert round_robin != affinity

    def test_autoscaler_flag_reports_scaling(self, capsys):
        code, out = run_cli(capsys, *self.CLUSTER, "--autoscaler",
                            "queue-depth", "--rate", "200")
        assert code == 0
        assert "queue-depth autoscaler" in out

    def test_check_determinism_passes_and_prints_digest(self, capsys):
        code, out = run_cli(capsys, *self.CLUSTER, "--check-determinism")
        assert code == 0
        assert "determinism check passed" in out
        assert "stable p99 digest" in out

    def test_check_determinism_single_deployment(self, capsys):
        code, out = run_cli(capsys, "--llm", "llama2-7b", "--input-tokens",
                            "64", "--output-tokens", "16", "serve",
                            "--rate", "16", "--requests", "30", "--seed", "7",
                            "--check-determinism")
        assert code == 0
        assert "determinism check passed" in out

    def test_subcommand_seed_overrides_global(self, capsys):
        _, sub_seed = run_cli(capsys, *self.CLUSTER)  # --seed 7 after serve
        _, global_seed = run_cli(capsys, "--seed", "7", *self.CLUSTER[:-2])
        assert sub_seed == global_seed

    def test_cluster_exports_report_and_replica_rows(self, capsys, tmp_path):
        import json as json_module

        json_path = tmp_path / "cluster.json"
        csv_path = tmp_path / "replicas.csv"
        code, _ = run_cli(capsys, *self.CLUSTER, "--json", str(json_path),
                          "--csv", str(csv_path))
        assert code == 0
        report = json_module.loads(json_path.read_text())
        assert report["fleet_size"] == 3
        assert "replica_timeline" in report and "cost_per_million_tokens_dollars" in report
        text = csv_path.read_text()
        assert text.startswith("index,")
        assert text.count("\n") == 4  # header + one row per replica

    def test_min_replicas_validation_fails_cleanly(self):
        with pytest.raises(SystemExit, match="min_replicas"):
            main(self.CLUSTER + ["--min-replicas", "5"])


class TestFleet:
    FLEET = ["--llm", "llama2-7b", "--input-tokens", "64",
             "--output-tokens", "16", "fleet", "--rate", "8",
             "--requests", "40", "--max-replicas", "4",
             "--slo-ttft", "2.0", "--slo-tpot", "0.2",
             "--attainment", "0.8", "--seed", "7"]

    def test_fleet_sizing_prints_verdict(self, capsys):
        code, out = run_cli(capsys, *self.FLEET)
        assert code == 0
        assert "Fleet sizing" in out
        assert "SLO attained" in out and "$/Mtok" in out
        assert "verdict:" in out and "meet the SLO target" in out

    def test_fleet_exports_plan(self, capsys, tmp_path):
        import json as json_module

        path = tmp_path / "plan.json"
        code, _ = run_cli(capsys, *self.FLEET, "--json", str(path))
        assert code == 0
        plan = json_module.loads(path.read_text())
        assert plan["met"] is True
        assert plan["evaluations"]

    def test_unmet_target_exits_nonzero(self, capsys):
        code = main(self.FLEET[:-2] + ["--slo-ttft", "0.000001",
                                       "--slo-tpot", "0.000001",
                                       "--max-replicas", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no fleet" in out

    def test_fleet_rejects_non_llm_model(self):
        with pytest.raises(SystemExit, match="not an LLM"):
            main(["--llm", "dit-xl-2", "fleet", "--rate", "8"])

    def test_fleet_requires_rate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])


class TestOptimize:
    OPTIMIZE = ["--llm", "llama2-7b", "--input-tokens", "64",
                "--output-tokens", "16", "optimize",
                "--designs", "baseline", "design-a",
                "--replica-counts", "2", "3",
                "--rate", "24", "--requests", "120", "--seed", "7",
                "--constraints", "slo>=0.5"]

    def test_optimize_prints_frontier_and_provenance(self, capsys):
        code, out = run_cli(capsys, *self.OPTIMIZE)
        assert code == 0
        assert "Pareto frontier" in out
        assert "best cost-per-million-tokens" in out
        assert "best p99-ttft" in out
        assert "searched 4 candidates" in out
        assert "new simulations:" in out

    def test_optimize_warm_store_simulates_nothing(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code, cold = run_cli(capsys, *self.OPTIMIZE, "--store", str(store))
        assert code == 0
        assert "new simulations: 0;" not in cold
        code, warm = run_cli(capsys, *self.OPTIMIZE, "--store", str(store))
        assert code == 0
        assert "new simulations: 0;" in warm

        def frontier_lines(text):
            return [line for line in text.splitlines()
                    if "simulations" not in line and "store" not in line]

        assert frontier_lines(warm) == frontier_lines(cold)

    def test_optimize_exports_json_and_csv(self, capsys, tmp_path):
        import json as json_module

        json_path = tmp_path / "frontier.json"
        csv_path = tmp_path / "frontier.csv"
        code, _ = run_cli(capsys, *self.OPTIMIZE, "--json", str(json_path),
                          "--csv", str(csv_path))
        assert code == 0
        payload = json_module.loads(json_path.read_text())
        assert payload["strategy"] == "successive-halving"
        assert payload["points"]
        header = csv_path.read_text().splitlines()[0]
        assert "cost_per_million_tokens_dollars" in header
        assert "dominated_count" in header

    def test_optimize_exhaustive_strategy(self, capsys):
        code, out = run_cli(capsys, *self.OPTIMIZE, "--strategy", "exhaustive")
        assert code == 0
        assert "exhaustive search" in out

    def test_optimize_unsatisfiable_constraints_exit_nonzero(self, capsys):
        code = main(self.OPTIMIZE[:-1] + ["chip-hours<=0.0000001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no feasible candidate" in out

    def test_optimize_rejects_bad_constraint(self):
        with pytest.raises(SystemExit, match="accepted forms"):
            main(self.OPTIMIZE[:-1] + ["cheap-and-fast"])

    def test_optimize_rejects_unknown_design(self):
        with pytest.raises(SystemExit, match="predefined designs"):
            main(["--llm", "llama2-7b", "optimize", "--designs", "gpu",
                  "--rate", "8"])

    def test_optimize_unusable_store_path_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot use result store"):
            main(self.OPTIMIZE + ["--store", "/proc/nope/store.jsonl"])

    def test_optimize_rejects_non_llm_model(self):
        with pytest.raises(SystemExit, match="not an LLM"):
            main(["--llm", "dit-xl-2", "optimize"])


class TestServingSweep:
    def test_sweep_serving_axes(self, capsys):
        code, out = run_cli(capsys, "--seed", "3", *SMALL, "sweep",
                            "--models", "llama2-7b", "--designs", "baseline",
                            "--precisions", "int8", "--batches", "2",
                            "--scenarios", "llm-serving",
                            "--schedulers", "fcfs", "decode-priority",
                            "--arrival-rates", "4", "--trace-requests", "20")
        assert code == 0
        assert "fcfs" in out and "decode-priority" in out
        assert "seed=3" in out

    def test_sweep_serving_skips_non_llm_models(self, capsys):
        code, out = run_cli(capsys, *SMALL, "sweep",
                            "--models", "llama2-7b", "dit-xl-2",
                            "--designs", "baseline", "--precisions", "int8",
                            "--batches", "2", "--schedulers", "fcfs",
                            "--arrival-rates", "4", "--trace-requests", "10")
        assert code == 0
        assert "skipping non-LLM models" in out

    def test_sweep_serving_with_only_dit_fails(self):
        with pytest.raises(SystemExit, match="only modelled for LLM"):
            main(SMALL + ["sweep", "--models", "dit-xl-2", "--designs", "baseline",
                          "--precisions", "int8", "--batches", "2",
                          "--schedulers", "fcfs", "--arrival-rates", "4"])

    def test_sweep_schedulers_require_rates(self):
        with pytest.raises(SystemExit, match="schedulers and arrival_rates"):
            main(SMALL + ["sweep", "--models", "llama2-7b", "--designs", "baseline",
                          "--precisions", "int8", "--batches", "2",
                          "--schedulers", "fcfs"])

    def test_sweep_fleet_axes(self, capsys):
        code, out = run_cli(capsys, "--seed", "3", *SMALL, "sweep",
                            "--models", "llama2-7b", "--designs", "baseline",
                            "--precisions", "int8", "--batches", "2",
                            "--scenarios", "llm-serving",
                            "--schedulers", "fcfs", "--arrival-rates", "8",
                            "--trace-requests", "20",
                            "--routers", "least-kv-pressure",
                            "--replica-counts", "1", "2")
        assert code == 0
        assert "x2 least-kv-pressure/fixed" in out

    def test_sweep_fleet_axes_require_serving_grid(self):
        with pytest.raises(SystemExit, match="fleet axes"):
            main(SMALL + ["sweep", "--models", "llama2-7b", "--designs",
                          "baseline", "--precisions", "int8", "--batches", "2",
                          "--routers", "round-robin"])


class TestMultiDevice:
    def test_pipeline_parallel(self, capsys):
        code, out = run_cli(capsys, *SMALL, "--llm", "llama2-7b",
                            "multi-device", "--design", "design-a", "--devices", "1", "2")
        assert code == 0
        assert "tokens/s" in out
        assert "pipeline parallel" in out

    def test_tensor_parallel(self, capsys):
        code, out = run_cli(capsys, *SMALL, "--llm", "llama2-7b",
                            "multi-device", "--design", "design-a", "--devices", "2",
                            "--parallelism", "tensor")
        assert code == 0
        assert "tensor parallel" in out


class TestModels:
    def test_models_listing(self, capsys):
        code, out = run_cli(capsys, *SMALL, "models")
        assert code == 0
        assert "gpt3-30b" in out
        assert "dit-xl-2" in out
        assert "min TPUs" in out

    def test_models_listing_includes_moe(self, capsys):
        code, out = run_cli(capsys, *SMALL, "models")
        assert code == 0
        assert "mixtral-8x7b" in out
        assert "MoE" in out
        assert "default scenario" in out


class TestScenarios:
    def test_scenarios_listing(self, capsys):
        code, out = run_cli(capsys, "scenarios")
        assert code == 0
        for name in ("llm-serving", "dit-sampling", "moe-serving", "chat-serving"):
            assert name in out
        assert "tensor-parallel" in out
