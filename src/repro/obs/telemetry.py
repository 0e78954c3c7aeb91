"""The :class:`Telemetry` object: spans, events, counters, gauges.

One ``Telemetry`` instance collects everything a run emits.  Emission is
cheap by construction — no locks, no clock reads unless the caller asks
for a wall-clock span — because the serving engine's inner loop records
from inside its hottest path and the enabled-overhead budget is <5 %
wall (``benchmarks/bench_obs.py`` gates it).  Bulk producers go further:
they register a :meth:`Telemetry.defer` callable over their raw capture
rows, and the per-record :class:`Span`/:class:`Event`/:class:`Gauge`
construction happens lazily on first read (export, report, summary) —
outside both the simulated run and the overhead budget.

Two time domains coexist, and deliberately never mix inside one file:

* **Simulated seconds** — the serving/cluster engines stamp spans,
  events and gauges with the simulation clock, so a trace renders the
  *modelled* timeline (a 10-minute fleet run spans 10 minutes in
  Perfetto however fast the replay ran).
* **Wall seconds** — the sweep engine and optimizer stamp spans with
  :func:`time.perf_counter` relative to the telemetry epoch, rendering
  where a search actually spent its budget.

The CLI wires one domain per output file, so exported timestamps are
always mutually comparable.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed operation on a named track: ``[start_s, end_s]``."""

    track: str
    name: str
    start_s: float
    end_s: float
    args: dict | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class Event:
    """One instantaneous marker (fault onset, scale decision, reject)."""

    track: str
    name: str
    time_s: float
    args: dict | None = None
    #: Chrome instant-event scope: ``"t"`` draws a tick on the track,
    #: ``"g"`` a full-height line across every track (fault markers).
    scope: str = "t"


@dataclass(frozen=True)
class Gauge:
    """One fixed-grid time-series sample of a named quantity."""

    track: str
    name: str
    time_s: float
    value: float


class Telemetry:
    """Collects spans/events/counters/gauges for one run.

    ``telemetry=None`` is the off switch throughout the codebase: an
    instance is on, and each call site tests ``is not None`` once, so hot
    paths never reach a sink that is off.
    """

    __slots__ = ("gauge_interval_s", "counters", "_spans",
                 "_events", "_gauges", "_pending", "_wall_epoch")

    def __init__(self, *, gauge_interval_s: float = 1.0) -> None:
        if gauge_interval_s <= 0:
            raise ValueError("gauge_interval_s must be positive")
        self.gauge_interval_s = gauge_interval_s
        self._spans: list[Span] = []
        self._events: list[Event] = []
        self.counters: dict[str, float] = {}
        self._gauges: list[Gauge] = []
        #: Deferred bulk producers (see :meth:`defer`) not yet materialised.
        self._pending: list = []
        self._wall_epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Storage — records materialise lazily
    # ------------------------------------------------------------------

    def defer(self, materialize) -> None:
        """Register a bulk producer whose records materialise on first read.

        ``materialize(spans, events, gauges)`` is called once, lazily, and
        appends :class:`Span`/:class:`Event`/:class:`Gauge` records to the
        lists it is handed.  Bulk emitters (the serving engine translates
        tens of thousands of raw capture rows per run) register one
        callable instead of constructing every record inside the timed
        run — the construction cost lands at export/report time, where the
        <5 % enabled-overhead budget does not apply.
        """
        self._pending.append(materialize)

    def _drain(self) -> None:
        pending, self._pending = self._pending, []
        for materialize in pending:
            materialize(self._spans, self._events, self._gauges)

    @property
    def spans(self) -> list[Span]:
        if self._pending:
            self._drain()
        return self._spans

    @property
    def events(self) -> list[Event]:
        if self._pending:
            self._drain()
        return self._events

    @property
    def gauges(self) -> list[Gauge]:
        if self._pending:
            self._drain()
        return self._gauges

    # ------------------------------------------------------------------
    # Emission — simulated-time domain
    # ------------------------------------------------------------------

    def span(self, track: str, name: str, start_s: float, end_s: float,
             args: dict | None = None) -> None:
        if self._pending:
            self._drain()
        self._spans.append(Span(track, name, start_s, end_s, args))

    def event(self, track: str, name: str, time_s: float,
              args: dict | None = None, *, scope: str = "t") -> None:
        if self._pending:
            self._drain()
        self._events.append(Event(track, name, time_s, args, scope))

    def gauge(self, track: str, name: str, time_s: float,
              value: float) -> None:
        if self._pending:
            self._drain()
        self._gauges.append(Gauge(track, name, time_s, value))

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    # ------------------------------------------------------------------
    # Emission — wall-clock domain (sweep engine, optimizer)
    # ------------------------------------------------------------------

    def wall_now(self) -> float:
        """Seconds since this telemetry object was created."""
        return time.perf_counter() - self._wall_epoch

    @contextmanager
    def wall_span(self, track: str, name: str,
                  args: dict | None = None) -> Iterator[None]:
        """Time a block against the wall clock and record it as a span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self._pending:
                self._drain()
            self._spans.append(Span(track, name, start - self._wall_epoch,
                                    end - self._wall_epoch, args))

    def wall_event(self, track: str, name: str,
                   args: dict | None = None, *, scope: str = "t") -> None:
        if self._pending:
            self._drain()
        self._events.append(Event(track, name, self.wall_now(), args, scope))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tracks(self) -> list[str]:
        """Distinct track names, sorted — the exporters' tid ordering."""
        names = {span.track for span in self.spans}
        names.update(event.track for event in self.events)
        names.update(gauge.track for gauge in self.gauges)
        return sorted(names)

    def sorted_events(self) -> list[Event]:
        """Events in monotonic time order (stable across equal stamps)."""
        return sorted(self.events, key=lambda event: event.time_s)

    def summary(self) -> dict:
        """Record counts — handy for tests and the bench record."""
        return {
            "spans": len(self.spans),
            "events": len(self.events),
            "gauges": len(self.gauges),
            "counters": dict(sorted(self.counters.items())),
        }
