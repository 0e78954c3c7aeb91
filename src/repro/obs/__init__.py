"""Observability layer: spans, events, counters and time-series gauges.

Every subsystem — the discrete-event serving engine, the cluster, the
sweep engine, the result store and the co-design optimizer — emits its
structured telemetry through one :class:`~repro.obs.telemetry.Telemetry`
object.  The contract, test-gated end to end:

* **Zero overhead when off.**  Call sites receive ``telemetry=None`` by
  default and guard every emission behind a single truthiness check, so
  an uninstrumented run executes the exact pre-telemetry hot path.
* **Never perturbs results.**  Telemetry only *reads* simulation state;
  reports are bit-for-bit identical with tracing on vs off (exact and
  fluid — fluid emits summary events only).
* **Simulated-time gauges.**  Time-series samples are taken on a fixed
  grid in *simulated* seconds, so a trace of a 10-minute fleet run has
  the same gauge density however fast the simulator replayed it.

Exports: Chrome trace-event JSON (:func:`~repro.obs.export.write_chrome_trace`,
loadable in chrome://tracing or Perfetto), a metrics JSONL stream
(:func:`~repro.obs.export.write_metrics_jsonl`) and a text dashboard
(:func:`~repro.obs.report.render_report`, the ``repro-sim report``
subcommand).
"""

from repro.obs.export import (
    load_metrics_jsonl,
    load_trace_file,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.report import render_report
from repro.obs.telemetry import Event, Gauge, Span, Telemetry

__all__ = [
    "Event",
    "Gauge",
    "Span",
    "Telemetry",
    "load_metrics_jsonl",
    "load_trace_file",
    "render_report",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
