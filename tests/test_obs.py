"""Telemetry core, exporters, report renderer and the CLI observability flags.

The contract under test, in order of importance:

1. **Telemetry never perturbs the simulation** — ServingReport /
   ClusterReport are bit-for-bit identical with tracing on vs. off, on
   every execution path (exact, fluid, cluster chaos).
2. **The Chrome trace-event schema is pinned** — a golden file in
   tests/golden/ locks phase names, pid/tid mapping and fault
   instant-event fields, so Perfetto compatibility cannot rot silently.
3. The CLI flags compose: ``--trace-out`` with ``--profile``, with
   ``--check-determinism``, and ``repro-sim report`` renders both formats.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.cli import main
from repro.core.designs import design_a
from repro.obs import (
    Telemetry,
    load_trace_file,
    render_report,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.export import (
    TRACE_PID,
    chrome_trace_dict,
    load_chrome_trace,
    load_metrics_jsonl,
    metrics_lines,
)
from repro.obs.report import sparkline
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import parse_fault
from repro.serving.metrics import SLO
from repro.serving.simulator import ServingSimulator, simulate_serving
from repro.serving.spec import ServingSpec
from repro.serving.trace import generate_trace
from repro.workloads.chat import DEFAULT_REQUEST_MIX
from repro.workloads.llm import GPT3_30B
from repro.workloads.registry import get_scenario
from repro.workloads.scenario import ScenarioKnobs

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chrome_trace.json"

SLO_SPEC = SLO(ttft_s=1.0, tpot_s=0.1)


def make_trace(num_requests=80, rate=20.0, seed=3):
    return generate_trace("poisson", DEFAULT_REQUEST_MIX, rate,
                          num_requests, seed)


def run_serial(trace, telemetry=None, **kwargs):
    simulator = ServingSimulator(GPT3_30B, design_a())
    return simulator.run(trace, slo=SLO_SPEC, telemetry=telemetry, **kwargs)


def synthetic_telemetry() -> Telemetry:
    """A small hand-built telemetry object with every record kind."""
    tel = Telemetry(gauge_interval_s=0.5)
    tel.span("replica-0", "prefill", 0.0, 0.25, {"batch": 4})
    tel.span("replica-0", "decode", 0.25, 1.5,
             {"batch": 4, "context_bucket": 1, "steps": 10, "tokens": 40})
    tel.span("replica-1", "cold-start", 0.0, 5.0)
    tel.event("autoscaler", "scale-up", 0.4, {"from": 1, "to": 2})
    tel.event("faults", "crash", 1.0,
              {"replica": 0, "duration_s": 5.0, "victims": 3}, scope="g")
    tel.gauge("replica-0", "queue_depth", 0.0, 3.0)
    tel.gauge("replica-0", "queue_depth", 0.5, 1.0)
    tel.count("cluster.requests", 8)
    tel.count("cluster.shed")
    return tel


# ---------------------------------------------------------------------------
# Telemetry core
# ---------------------------------------------------------------------------
class TestTelemetryCore:
    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False)
        tel.span("t", "s", 0.0, 1.0)
        tel.event("t", "e", 0.5)
        tel.gauge("t", "g", 0.0, 1.0)
        tel.count("c")
        tel.wall_event("t", "w")
        with tel.wall_span("t", "ws"):
            pass
        assert not tel
        assert tel.summary() == {"spans": 0, "events": 0, "gauges": 0,
                                 "counters": {}}

    def test_enabled_is_truthy_and_collects(self):
        tel = synthetic_telemetry()
        assert tel
        assert tel.summary() == {
            "spans": 3, "events": 2, "gauges": 2,
            "counters": {"cluster.requests": 8, "cluster.shed": 1}}

    def test_tracks_are_sorted_and_distinct(self):
        tel = synthetic_telemetry()
        assert tel.tracks() == ["autoscaler", "faults", "replica-0",
                                "replica-1"]

    def test_sorted_events_monotonic(self):
        tel = Telemetry()
        tel.event("t", "late", 2.0)
        tel.event("t", "early", 1.0)
        assert [e.name for e in tel.sorted_events()] == ["early", "late"]

    def test_wall_span_records_duration(self):
        tel = Telemetry()
        with tel.wall_span("sweep", "work", {"points": 1}):
            pass
        (span,) = tel.spans
        assert span.track == "sweep" and span.name == "work"
        assert span.end_s >= span.start_s >= 0.0

    def test_gauge_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="gauge_interval_s"):
            Telemetry(gauge_interval_s=0.0)


# ---------------------------------------------------------------------------
# Exporters: Chrome trace + metrics JSONL, round-trips and golden schema
# ---------------------------------------------------------------------------
class TestExporters:
    def test_chrome_trace_golden_schema(self):
        """The exact Chrome trace-event JSON is pinned by a golden file.

        Regenerate (after an intentional schema change) with:
        ``python tests/golden/regenerate.py``.
        """
        produced = chrome_trace_dict(synthetic_telemetry())
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert produced == golden

    def test_chrome_tid_mapping_is_sorted_track_order(self):
        trace = chrome_trace_dict(synthetic_telemetry())
        names = {record["tid"]: record["args"]["name"]
                 for record in trace["traceEvents"]
                 if record["ph"] == "M" and record["name"] == "thread_name"}
        assert names == {0: "autoscaler", 1: "faults", 2: "replica-0",
                         3: "replica-1"}
        assert all(record["pid"] == TRACE_PID
                   for record in trace["traceEvents"])

    def test_fault_instant_events_are_global_scope(self):
        trace = chrome_trace_dict(synthetic_telemetry())
        crash = next(record for record in trace["traceEvents"]
                     if record.get("name") == "crash")
        assert crash["ph"] == "i"
        assert crash["s"] == "g"
        assert crash["args"]["victims"] == 3

    def test_chrome_trace_round_trips(self, tmp_path):
        tel = synthetic_telemetry()
        path = write_chrome_trace(tel, tmp_path / "t.json")
        data = load_chrome_trace(path)
        assert data["time_domain"] == "simulated"
        assert len(data["spans"]) == 3
        assert len(data["events"]) == 2
        assert data["gauges"] == [
            {"track": "replica-0", "name": "queue_depth", "t_s": 0.0,
             "value": 3.0},
            {"track": "replica-0", "name": "queue_depth", "t_s": 0.5,
             "value": 1.0}]
        assert data["counters"] == {"cluster.requests": 8, "cluster.shed": 1}

    def test_metrics_jsonl_round_trips(self, tmp_path):
        tel = synthetic_telemetry()
        path = write_metrics_jsonl(tel, tmp_path / "m.jsonl",
                                   time_domain="wall")
        data = load_metrics_jsonl(path)
        assert data["time_domain"] == "wall"
        assert len(data["spans"]) == 3
        assert data["counters"] == {"cluster.requests": 8, "cluster.shed": 1}

    def test_metrics_first_line_is_meta(self):
        lines = metrics_lines(synthetic_telemetry())
        assert lines[0]["type"] == "meta"
        assert lines[0]["time_domain"] == "simulated"

    def test_load_trace_file_sniffs_both_formats(self, tmp_path):
        tel = synthetic_telemetry()
        chrome = write_chrome_trace(tel, tmp_path / "t.json")
        jsonl = write_metrics_jsonl(tel, tmp_path / "m.jsonl")
        assert load_trace_file(chrome) == load_chrome_trace(chrome)
        assert load_trace_file(jsonl) == load_metrics_jsonl(jsonl)

    def test_load_trace_file_rejects_empty(self, tmp_path):
        empty = tmp_path / "e.json"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty trace"):
            load_trace_file(empty)


# ---------------------------------------------------------------------------
# Report renderer
# ---------------------------------------------------------------------------
class TestReport:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        line = sparkline([0.0, 1.0], width=2)
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(1000)), width=60)) == 60

    def test_render_sections(self, tmp_path):
        path = write_metrics_jsonl(synthetic_telemetry(), tmp_path / "m.jsonl")
        text = render_report(load_trace_file(path))
        assert "== time-series gauges ==" in text
        assert "replica-0:queue_depth" in text
        assert "== action log ==" in text
        assert "scale-up" in text and "crash" in text
        assert "== span totals ==" in text
        assert "== counters ==" in text
        assert "cluster.requests = 8" in text

    def test_render_empty_trace(self):
        text = render_report({"time_domain": "simulated", "gauges": [],
                              "events": [], "spans": [], "counters": {}})
        assert "empty trace" in text


# ---------------------------------------------------------------------------
# The core invariant: tracing on vs. off is bit-for-bit identical
# ---------------------------------------------------------------------------
class TestTracedIdentity:
    def test_serial_report_identical_with_tracing(self):
        trace = make_trace()
        plain = run_serial(trace)
        traced = run_serial(trace, telemetry=Telemetry())
        assert traced.to_dict() == plain.to_dict()

    def test_disabled_instance_equals_none(self):
        trace = make_trace()
        plain = run_serial(trace)
        disabled = Telemetry(enabled=False)
        report = run_serial(trace, telemetry=disabled)
        assert report.to_dict() == plain.to_dict()
        assert disabled.summary()["spans"] == 0

    def test_fluid_report_identical_with_tracing(self):
        scenario = get_scenario("chat-serving")
        settings = scenario.make_settings(ScenarioKnobs(
            batch=8, input_tokens=64, output_tokens=16))
        spec = ServingSpec(arrival_rate=4.0, num_requests=50,
                           fidelity="fluid")
        tel = Telemetry()
        plain = simulate_serving(GPT3_30B, design_a(), spec, settings)
        traced = simulate_serving(GPT3_30B, design_a(), spec, settings,
                                  telemetry=tel)
        assert traced.to_dict() == plain.to_dict()
        # Fluid runs contribute summary records only — never loop events.
        assert [span.name for span in tel.spans] == ["fluid-run"]
        assert tel.gauges == []

    def test_cluster_chaos_identical_with_tracing(self):
        trace = make_trace(num_requests=100, rate=30.0, seed=7)
        faults = (parse_fault("replica-crash:at_s=1,duration_s=4,replica=0"),)

        def run(telemetry=None):
            replicas = [ServingSimulator(GPT3_30B, design_a())
                        for _ in range(3)]
            cluster = ClusterSimulator(replicas, autoscaler="queue-depth",
                                       faults=faults)
            return cluster.run(trace, slo=SLO_SPEC, telemetry=telemetry)

        tel = Telemetry()
        plain = run()
        traced = run(telemetry=tel)
        assert traced.to_dict() == plain.to_dict()
        tracks = tel.tracks()
        assert "autoscaler" in tracks and "faults" in tracks
        assert any(track.startswith("replica-") for track in tracks)
        crash_events = [e for e in tel.events
                        if e.track == "faults" and e.name == "crash"]
        assert crash_events and crash_events[0].scope == "g"
        assert any(e.name == "restart" for e in tel.events
                   if e.track == "faults")

    def test_serving_telemetry_content(self):
        """Spot-check the semantic content of a traced serving run."""
        trace = make_trace()
        tel = Telemetry()
        report = run_serial(trace, telemetry=tel)
        assert tel.counters["serve.completed"] == report.completed
        assert tel.counters["serve.prefill_steps"] == report.prefill_steps
        assert tel.counters["serve.decode_steps"] == report.decode_steps
        names = {gauge.name for gauge in tel.gauges}
        assert {"queue_depth", "batch_occupancy",
                "kv_utilisation", "slo_attainment"} <= names
        # Gauge samples land on the absolute interval grid.
        interval = tel.gauge_interval_s
        queue = [g for g in tel.gauges if g.name == "queue_depth"]
        assert all(abs(g.time_s / interval - round(g.time_s / interval))
                   < 1e-9 or g is queue[-1] for g in queue)
        # Decode spans merge: steps accumulate, tokens = steps * batch sum.
        decode = [s for s in tel.spans if s.name == "decode"]
        assert decode and all(s.args["steps"] >= 1 for s in decode)

    def test_decode_spans_account_for_every_step_and_token(self):
        """Decode spans tile the decode work, spans a prefill cut included.

        At this rate requests arrive while a batch decodes, so some
        prefills interrupt a running decode span: those spans end with no
        completion event, and the run's totals only add up if they are
        still recorded.
        """
        tel = Telemetry()
        report = run_serial(make_trace(rate=0.5), telemetry=tel)
        decode = [s for s in tel.spans if s.name == "decode"]
        completions = {e.time_s for e in tel.events if e.name == "complete"}
        assert any(s.end_s not in completions for s in decode)
        assert sum(s.args["steps"] for s in decode) == report.decode_steps
        assert (sum(s.args["tokens"] for s in decode)
                == sum(r.output_tokens - 1 for r in report.requests))
        # A waiting request has not had its prefill, so its first token
        # comes after the sample.
        queue = [g for g in tel.gauges if g.name == "queue_depth"]
        assert max(g.value for g in queue) > 0
        for gauge in queue:
            assert gauge.value <= sum(r.first_token_s > gauge.time_s
                                      for r in report.requests)

    def test_idle_gaps_stay_unsampled(self):
        """The gauge grid re-anchors when the deployment drains.

        A trace repeated 1e5 s later leaves a long idle gap between its
        copies.  Only the grid points next to the gap's edges may be
        sampled; without the re-anchor the catch-up block fills the whole
        gap with samples of an empty deployment.
        """
        burst = make_trace(num_requests=60, rate=0.5)
        trace = burst + tuple(
            dataclasses.replace(request, arrival_s=request.arrival_s + 1e5,
                                request_id=request.request_id + 1000)
            for request in burst)
        tel = Telemetry()
        report = run_serial(trace, telemetry=tel)
        gap_start = max(r.finish_s for r in report.requests
                        if r.request_id < 1000)
        gap_end = min(r.arrival_s for r in report.requests
                      if r.request_id >= 1000)
        assert gap_end - gap_start > 9e4
        interval = tel.gauge_interval_s
        assert tel.gauges
        assert not [g for g in tel.gauges
                    if gap_start + interval < g.time_s < gap_end - interval]


# ---------------------------------------------------------------------------
# CLI: flags, composition, report subcommand
# ---------------------------------------------------------------------------
SERVE_SMALL = ["serve", "--design", "design-a", "--requests", "40",
               "--rate", "20"]


def run_cli(capsys, *argv):
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    return exit_code, captured.out


class TestObsCLI:
    def test_serve_writes_both_outputs(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.jsonl"
        code, out = run_cli(capsys, *SERVE_SMALL,
                            "--trace-out", str(trace_out),
                            "--metrics-out", str(metrics_out))
        assert code == 0
        assert "wrote Chrome trace" in out and "wrote metrics JSONL" in out
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        assert trace["otherData"]["repro.time_domain"] == "simulated"
        assert any(record["ph"] == "X" for record in trace["traceEvents"])
        assert load_trace_file(metrics_out)["counters"]

    def test_profile_and_trace_out_compose(self, capsys, tmp_path):
        """Regression: --profile and --trace-out together, single export."""
        trace_out = tmp_path / "trace.json"
        code, out = run_cli(capsys, *SERVE_SMALL, "--profile",
                            "--profile-out", str(tmp_path / "p.pstats"),
                            "--trace-out", str(trace_out))
        assert code == 0
        assert "profile: top functions" in out
        assert out.count("wrote Chrome trace") == 1
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        spans = [r for r in trace["traceEvents"] if r["ph"] == "X"]
        # One run's worth of spans: the profiled run is the traced run.
        names = {r["name"] for r in spans}
        assert "prefill" in names and "decode" in names

    def test_check_determinism_validates_on_vs_off(self, capsys, tmp_path):
        code, out = run_cli(capsys, *SERVE_SMALL, "--check-determinism",
                            "--trace-out", str(tmp_path / "t.json"))
        assert code == 0
        assert "traced and untraced runs agree bit-for-bit" in out

    def test_report_renders_both_formats(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.jsonl"
        run_cli(capsys, *SERVE_SMALL, "--trace-out", str(trace_out),
                "--metrics-out", str(metrics_out))
        for path in (trace_out, metrics_out):
            code, out = run_cli(capsys, "report", str(path))
            assert code == 0
            assert "== time-series gauges ==" in out
            assert "serve:queue_depth" in out

    def test_report_missing_file_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["report", str(tmp_path / "nope.json")])

    def test_fleet_chaos_trace_has_fault_markers(self, capsys, tmp_path):
        trace_out = tmp_path / "fleet.json"
        code, _ = run_cli(capsys, "serve", "--design", "design-a",
                          "--requests", "60", "--rate", "30",
                          "--replicas", "2",
                          "--faults",
                          "replica-crash:at_s=1,duration_s=3,replica=0",
                          "--trace-out", str(trace_out))
        assert code == 0
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        instants = [r for r in trace["traceEvents"] if r["ph"] == "i"]
        crash = next(r for r in instants if r["name"] == "crash")
        assert crash["s"] == "g"
        threads = {r["args"]["name"] for r in trace["traceEvents"]
                   if r["ph"] == "M" and r["name"] == "thread_name"}
        assert {"replica-0", "replica-1", "faults"} <= threads

    def test_sweep_trace_out_is_wall_domain(self, capsys, tmp_path):
        metrics_out = tmp_path / "sweep.jsonl"
        code, _ = run_cli(capsys, "sweep", "--designs", "design-a",
                          "--models", "gpt3-30b", "--batches", "1",
                          "--precisions", "int8",
                          "--metrics-out", str(metrics_out))
        assert code == 0
        data = load_trace_file(metrics_out)
        assert data["time_domain"] == "wall"
        assert any(span["name"].startswith("point:")
                   for span in data["spans"])

    def test_optimize_trace_out_has_promote_prune(self, capsys, tmp_path):
        trace_out = tmp_path / "opt.json"
        code, _ = run_cli(capsys, "optimize", "--designs", "design-a",
                          "design-b", "--replica-counts", "1", "2",
                          "--requests", "30", "--rate", "0.05",
                          "--trace-out", str(trace_out))
        assert code == 0
        data = load_trace_file(trace_out)
        assert data["time_domain"] == "wall"
        names = {event["name"] for event in data["events"]}
        assert names & {"promote", "prune"}
        promote = next(e for e in data["events"] if e["name"] == "promote")
        assert promote["args"]["fidelity"] in ("fluid", "short")
        assert "margin" in promote["args"]
        # Every candidate evaluation is a wall span: the timeline shows
        # where the search budget went, and which runs the store answered.
        evaluations = [span for span in data["spans"]
                       if span["name"].startswith("evaluate:")]
        assert evaluations
        assert {span["name"].split(":", 1)[1] for span in evaluations} <= {
            "fluid", "short", "full"}
        assert all("store_hit" in span["args"] for span in evaluations)
        assert all(span["dur_s"] >= 0 for span in evaluations)

    def test_verbose_flag_parses(self, capsys):
        code, _ = run_cli(capsys, "-vv", *SERVE_SMALL)
        assert code == 0
