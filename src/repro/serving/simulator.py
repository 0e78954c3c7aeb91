"""The discrete-event continuous-batching engine.

:class:`ServingSimulator` replays a request trace against one model on one
TPU deployment and measures what a production inference service measures:
TTFT/TPOT/e2e latency distributions, SLO goodput, utilisation and energy per
token.  The event loop models the control plane; the data plane — what one
prefill or decode step costs — comes from the analytical cost model through
a memoised :class:`~repro.serving.costs.StepCostModel`, so the simulator
inherits the paper's chip model (and the process-wide step-price table)
instead of inventing its own timing.

Modelling choices, stated explicitly:

* **Continuous batching.**  Between steps the active
  :class:`~repro.serving.scheduler.SchedulerPolicy` may admit waiting
  requests (one prefill step per admitted group, which also emits each
  request's first token); all running requests then decode together, one
  token per request per step.
* **Chunked decode events.**  Step cost is constant while the batch
  composition and the (bucketed) maximum context are constant, so the loop
  advances whole chunks of identical decode steps at once — a 10k-request
  trace is tens of thousands of events, not millions of per-token ones.
  Chunks never skip a scheduling opportunity: they are capped at the next
  completion, context-bucket crossing, and (when admission could act on it)
  the next arrival.
* **KV admission control.**  Each admitted request reserves its full-context
  KV footprint against the deployment's budget from
  :func:`repro.analysis.capacity.serving_kv_budget`; admission walks the
  policy's order and stops at the first request that does not fit, so the
  committed footprint can never exceed the device memory.
* **Pipeline-parallel memory, single-chip timing.**  ``devices > 1`` widens
  the weight/KV budget (layers are partitioned, not replicated) while step
  latency stays the full per-layer sum — i.e. no inter-group pipelining
  overlap and no ICI hop cost.  This is conservative for throughput and
  exact for single-chip deployments; ring modelling is future work.

The hot path exploits one invariant: running requests all decode in
lock-step, so against a global decode counter ``G`` each request has a
*fixed* context offset (``input_tokens + 1`` at the ``G`` of its prefill)
and a *fixed* death epoch (the ``G`` at which it emits its last token).
The batch therefore lives in two heaps — min-heap on death epoch, lazy
max-heap on context offset — and advancing a decode chunk is O(1) with no
per-request work; a finish pops exactly the finishing requests.  Per-request
latency values accumulate into raw arrays and percentiles are computed once
at report time.  Device-busy time and energy accumulate per *quiescent
segment* — the spans between instants where the system is fully drained —
and each segment's subtotal joins the run's totals when the segment closes.
Stored report payloads and benchmark digests pin the floats these
additions produce, so the grouping is part of the output contract: a flat
running sum changes the last digits of ``busy_s`` and the energies.

Determinism: given identical arguments (including the trace seed) a run is
bit-for-bit reproducible — the only randomness is the explicit
``random.Random(seed)`` inside trace generation.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from repro.analysis.capacity import serving_kv_budget
from repro.codec import decode
from repro.common import Precision, ceil_div
from repro.core.config import TPUConfig
from repro.core.simulator import InferenceSimulator
from repro.obs.telemetry import Event, Gauge, Span, Telemetry
from repro.serving.costs import StepCostModel
from repro.serving.metrics import (
    SLO,
    LatencySummary,
    RequestMetrics,
    ServingReport,
)
from repro.serving.scheduler import (
    SchedulerPolicy,
    _by_arrival,
    get_scheduler,
)
from repro.serving.spec import ServingSpec
from repro.serving.trace import Request, generate_trace, request_classes_from_settings
from repro.sweep.fingerprint import fingerprint
from repro.workloads.chat import RequestClass
from repro.workloads.llm import LLMConfig

#: Store namespace of single-deployment serving reports (the fleet-shaped
#: analogue lives in :mod:`repro.serving.cluster` as ``cluster-report``).
SERVING_STORE_KIND = "serving-report"

_new_instance = object.__new__
#: Values per gauge catch-up block in ``_RunState.tel_gauges``.
_GAUGE_ROW = 7
_arrival_key = attrgetter("arrival_s", "request_id")


@dataclass
class LiveRequest:
    """Mutable in-flight state of one request inside the event loop.

    The optimised engine keeps running requests as plain heap tuples; this
    class survives as the argument of
    :attr:`~repro.serving.scheduler.SchedulerPolicy.priority` keys (and for
    any external schedulers built on it), wrapping requests on the waiting
    queue of non-FCFS policies.
    """

    request: Request
    first_token_s: float | None = None
    generated: int = 0

    @property
    def context_tokens(self) -> int:
        """Current KV-cache length (prompt plus generated tokens)."""
        return self.request.input_tokens + self.generated

    @property
    def remaining(self) -> int:
        """Tokens still to generate."""
        return self.request.output_tokens - self.generated


@dataclass
class _RunState:
    """Raw outcome of one event-loop pass over a trace."""

    #: ``(request_id, arrival_s, input_tokens, output_tokens, first_token_s,
    #: finish_s)`` tuples in completion order (empty when per-request rows
    #: are not collected).
    finished: list = field(default_factory=list)
    #: Per-request latency values in completion order.
    ttfts: list = field(default_factory=list)
    tpots: list = field(default_factory=list)
    e2es: list = field(default_factory=list)
    #: Requests (and their output tokens) that met the run's SLO.
    met_count: int = 0
    met_tokens: int = 0
    #: Sums of the closed quiescent segments' subtotals, in segment order
    #: (see the module docstring).
    busy_s: float = 0.0
    mxu_energy_j: float = 0.0
    total_energy_j: float = 0.0
    prefill_steps: int = 0
    decode_steps: int = 0
    total_tokens: int = 0
    peak_reserved: int = 0
    final_clock: float = 0.0
    #: Telemetry capture (empty unless the run collects telemetry): flat
    #: lists of plain values, one row after another, so capture allocates
    #: no per-row object for the garbage collector to track.  ``tel_spans``
    #: holds rows of two shapes.  A prefill row is ``None`` followed by
    #: ``(start_s, step_s, group, bucket, batch, G, decode_steps,
    #: decode_bucket)``: one prefill span ending at ``start_s + step_s``
    #: plus an admit of ``group`` requests at ``start_s``.  A completion
    #: row ``(end_s, G, decode_steps, bucket, batch, batch_after)`` closes
    #: a decode span and completes ``batch - batch_after`` requests at
    #: ``end_s``.  Decode spans run from the previous row's end to the next
    #: row: a completion row always ends one, and a prefill row ends one
    #: when decode steps ran since the previous row.  ``G`` and
    #: ``decode_steps`` are the run's decode counters when the row was
    #: written; their deltas give a decode span's tokens and steps.
    #: ``tel_gauges`` holds catch-up blocks ``(grid_t0, n_points, arrived,
    #: batch, reserved_bytes, met, completed)`` that expand to ``n_points``
    #: consecutive fixed-interval grid samples sharing one state snapshot.
    #: Every arrived request is waiting, running or completed, so the
    #: queue depth is ``arrived - batch - completed``.
    tel_spans: list = field(default_factory=list)
    tel_gauges: list = field(default_factory=list)


class ServingSimulator:
    """Replays request traces through the continuous-batching event loop."""

    def __init__(self, model: LLMConfig, tpu_config: TPUConfig, *,
                 scheduler: str | SchedulerPolicy = "fcfs",
                 precision: Precision = Precision.INT8,
                 max_batch: int = 32, bucket_tokens: int = 256,
                 devices: int | None = None, memory_utilisation: float = 0.9,
                 simulator: InferenceSimulator | None = None) -> None:
        if not isinstance(model, LLMConfig):
            raise ValueError(f"serving is modelled for LLM workloads, "
                             f"got {type(model).__name__} '{getattr(model, 'name', model)}'")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if devices is not None and devices <= 0:
            raise ValueError("devices must be positive (or None to auto-plan)")
        self.model = model
        self.tpu_config = tpu_config
        self.policy = (scheduler if isinstance(scheduler, SchedulerPolicy)
                       else get_scheduler(scheduler))
        self.precision = precision
        self.max_batch = max_batch
        self.devices = devices
        self.memory_utilisation = memory_utilisation
        self.costs = StepCostModel(
            model, simulator if simulator is not None
            else InferenceSimulator(tpu_config),
            precision=precision, bucket_tokens=bucket_tokens)
        #: KV-cache bytes one token of one sequence occupies (all layers).
        self.kv_bytes_per_token = model.kv_cache_bytes(1, 1, precision)

    @classmethod
    def for_spec(cls, model: LLMConfig, tpu_config: TPUConfig,
                 spec: ServingSpec, settings: object) -> "ServingSimulator":
        """The engine one deployment of ``spec`` runs on; the precision
        follows the scenario ``settings``."""
        return cls(model, tpu_config, scheduler=spec.scheduler,
                   precision=getattr(settings, "precision", Precision.INT8),
                   max_batch=spec.max_batch, bucket_tokens=spec.bucket_tokens,
                   devices=spec.devices,
                   memory_utilisation=spec.memory_utilisation)

    # ------------------------------------------------------------- deployment
    def kv_budget(self, devices: int) -> int:
        """KV bytes a ``devices``-chip deployment can commit (may be <= 0)."""
        return serving_kv_budget(self.model, self.tpu_config, devices=devices,
                                 max_batch=self.max_batch, precision=self.precision,
                                 memory_utilisation=self.memory_utilisation)

    def plan_devices(self, trace: Sequence[Request] | Sequence[RequestClass]) -> int:
        """Smallest device count whose KV budget admits the largest request.

        ``trace`` is a trace or a request mix: only ``total_tokens`` is read.
        """
        largest = max(request.total_tokens for request in trace) * self.kv_bytes_per_token
        shortfall = largest - self.kv_budget(1)
        if shortfall <= 0:
            return 1
        per_device = int(self.tpu_config.main_memory_bytes * self.memory_utilisation)
        return 1 + ceil_div(shortfall, per_device)

    # -------------------------------------------------------------- event loop
    def run(self, trace: Sequence[Request], slo: SLO = SLO(), *,
            devices: int | None = None,
            slow_windows: Sequence[tuple[float, float, float]] = (),
            collect_requests: bool = True,
            telemetry: Telemetry | None = None,
            telemetry_track: str = "serve",
            ) -> ServingReport:
        """Replay the trace and return the aggregate serving report.

        ``devices`` overrides the deployment for this run only (the cluster
        layer pins the fleet-planned deployment this way without mutating
        the replica); by default the constructor's ``devices`` applies, or
        the smallest deployment admitting the largest trace request.

        ``slow_windows`` are ``(start_s, end_s, factor)`` degradation
        windows (absolute simulated time) during which step *durations* are
        multiplied by ``factor`` — the cluster layer's slow-node fault
        model.  Overlapping windows compound multiplicatively.  Only time
        stretches: per-step energy is unchanged (throttling slows the chip,
        it does not add work), and the factor is sampled at each step
        chunk's start, with chunks capped at the next window boundary so a
        long chunk cannot smear one factor across a boundary.

        ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry`)
        captures reject/admit/complete events, prefill/decode spans and
        fixed-interval gauges onto ``telemetry_track`` — the cluster layer
        names one track per replica.  Telemetry only *reads* loop state:
        the report is bit-for-bit identical with it on or off.

        ``collect_requests=False`` skips materialising the per-request
        :class:`~repro.serving.metrics.RequestMetrics` rows
        (``report.requests`` comes back empty); every aggregate — latency
        percentiles included — is identical, computed from the same raw
        arrays.  Day-scale traces use this to avoid building millions of
        row objects nothing will read.

        Raises
        ------
        ValueError
            If the trace is empty, an explicit ``devices`` deployment
            cannot hold the model's weights at all, or a slow window is
            malformed (end before start, or factor below 1).
        """
        if not trace:
            raise ValueError("serving needs a non-empty trace")
        if devices is not None and devices <= 0:
            raise ValueError("devices must be positive (or None)")
        for window_start, window_end, factor in slow_windows:
            if window_end <= window_start or factor < 1.0:
                raise ValueError("slow windows need end > start and factor >= 1")

        ordered_trace = sorted(trace, key=_arrival_key)
        if devices is None:
            devices = (self.devices if self.devices is not None
                       else self.plan_devices(trace))
        budget = self.kv_budget(devices)
        if budget <= 0:
            raise ValueError(
                f"{self.model.name} does not fit {devices} x {self.tpu_config.name}: "
                f"no KV budget left after weights (use more devices)")

        # Integer token limit: same predicate as reserving the full-context
        # KV footprint against the budget, without a multiply per request.
        token_limit = budget // self.kv_bytes_per_token
        admissible: list[Request] = []
        rejected = 0
        tel = telemetry
        for request in ordered_trace:
            if request.input_tokens + request.output_tokens > token_limit:
                rejected += 1
                if tel is not None:
                    tel.event(telemetry_track, "reject", request.arrival_s,
                              {"request": request.request_id,
                               "tokens": request.total_tokens})
            else:
                admissible.append(request)

        # The core consults the memo without per-lookup stats bookkeeping
        # (misses are still counted inside StepCostModel._step); every
        # event does exactly one lookup, so the hits are the event count
        # minus the new misses.
        stats = self.costs.stats
        misses_before = stats.misses
        state = self._run_core(admissible, budget=budget, slo=slo,
                               slow_windows=slow_windows,
                               collect_requests=collect_requests,
                               collect_telemetry=tel is not None,
                               gauge_interval=(tel.gauge_interval_s
                                               if tel is not None else 1.0))
        stats.hits += (state.prefill_steps + state.decode_steps
                       - (stats.misses - misses_before))

        if tel is not None:
            self._install_telemetry(tel, telemetry_track, state,
                                    budget=budget, rejected=rejected)
        return self._build_report(state, slo, devices=devices,
                                  num_requests=len(ordered_trace),
                                  rejected=rejected, budget=budget,
                                  start_s=ordered_trace[0].arrival_s)

    @staticmethod
    def _install_telemetry(tel: Telemetry, track: str, state: _RunState, *,
                           budget: int, rejected: int) -> None:
        """Hand the raw capture rows to the telemetry sink.

        A serving run captures tens of thousands of rows; turning each
        into a record object here would dwarf the run itself and
        blow the <5 % enabled-overhead budget.  Registering one deferred
        translator keeps this call O(1) — the records materialise when
        the telemetry is first read (export, report, summary).
        """
        tel_spans = state.tel_spans
        tel_gauges = state.tel_gauges
        interval = tel.gauge_interval_s
        final_clock = state.final_clock
        final_met = state.met_count
        final_completed = len(state.ttfts)

        def materialize(spans: list, events: list, gauges: list) -> None:
            # End and decode counters of the previous row.  The first row
            # is a prefill at decode_steps 0, so it opens no decode span.
            last_end = 0.0
            last_g = last_steps = 0
            i, size = 0, len(tel_spans)
            while i < size:
                if tel_spans[i] is None:
                    (start, step_s, group, bucket, batch, g, steps,
                     decode_bucket) = tel_spans[i + 1:i + 9]
                    i += 9
                    end = start + step_s
                    if steps > last_steps:
                        # The prefill interrupted a running decode span.
                        spans.append(Span(track, "decode", last_end, start,
                                          {"batch": batch,
                                           "context_bucket": decode_bucket,
                                           "steps": steps - last_steps,
                                           "tokens": (g - last_g) * batch}))
                    events.append(Event(track, "admit", start,
                                        {"count": group}))
                    spans.append(Span(track, "prefill", start, end,
                                      {"batch": group, "context_bucket": bucket,
                                       "steps": 1, "tokens": group}))
                else:
                    end, g, steps, bucket, batch, batch_after = \
                        tel_spans[i:i + 6]
                    i += 6
                    spans.append(Span(track, "decode", last_end, end,
                                      {"batch": batch, "context_bucket": bucket,
                                       "steps": steps - last_steps,
                                       "tokens": (g - last_g) * batch}))
                    events.append(Event(track, "complete", end,
                                        {"count": batch - batch_after}))
                last_end, last_g, last_steps = end, g, steps
            for i in range(0, len(tel_gauges), _GAUGE_ROW):
                t0, points, arrived, batch, reserved, met, completed = \
                    tel_gauges[i:i + _GAUGE_ROW]
                queue = arrived - batch - completed
                kv = reserved / budget
                slo_frac = met / completed if completed else None
                for k in range(points):
                    t = t0 + k * interval
                    gauges.append(Gauge(track, "queue_depth", t, queue))
                    gauges.append(Gauge(track, "batch_occupancy", t, batch))
                    gauges.append(Gauge(track, "kv_utilisation", t, kv))
                    if completed:
                        gauges.append(Gauge(track, "slo_attainment", t,
                                            slo_frac))
            # Closing samples so every series extends to the drain instant.
            gauges.append(Gauge(track, "queue_depth", final_clock, 0))
            gauges.append(Gauge(track, "batch_occupancy", final_clock, 0))
            gauges.append(Gauge(track, "kv_utilisation", final_clock, 0.0))
            if final_completed:
                gauges.append(Gauge(track, "slo_attainment", final_clock,
                                    final_met / final_completed))

        tel.defer(materialize)
        tel.count(f"{track}.completed", len(state.ttfts))
        tel.count(f"{track}.rejected", rejected)
        tel.count(f"{track}.prefill_steps", state.prefill_steps)
        tel.count(f"{track}.decode_steps", state.decode_steps)
        tel.count(f"{track}.tokens", state.total_tokens)

    # ------------------------------------------------------------------- core
    def _run_core(self, admissible: Sequence[Request], *, budget: int,
                  slo: SLO, slow_windows: Sequence[tuple[float, float, float]],
                  collect_requests: bool, collect_telemetry: bool,
                  gauge_interval: float) -> _RunState:
        """One optimised event-loop pass over already-admissible requests."""
        state = _RunState()
        if not admissible:
            return state

        boundaries = sorted({edge for window in slow_windows
                             for edge in window[:2]})

        def slow_factor(t: float) -> float:
            factor = 1.0
            for window_start, window_end, window_factor in slow_windows:
                if window_start <= t < window_end:
                    factor *= window_factor
            return factor

        def next_boundary(t: float) -> float:
            index = bisect.bisect_right(boundaries, t)
            return boundaries[index] if index < len(boundaries) else math.inf

        policy = self.policy
        fifo = policy.priority is _by_arrival
        admit_during_decode = policy.admit_during_decode
        priority = policy.priority
        max_batch = self.max_batch
        costs = self.costs
        memo_get = costs._memo.get
        price = costs._step
        bt = costs.bucket_tokens
        btm1 = bt - 1
        kv_per_token = self.kv_bytes_per_token
        ceil = math.ceil
        inf = math.inf
        slo_ttft = slo.ttft_s
        slo_tpot = slo.tpot_s
        collect = collect_requests

        arrivals = [request.arrival_s for request in admissible]
        n = len(admissible)
        index = 0

        #: Waiting queue: FCFS-ordered policies take the deque fast path
        #: (admissible is pre-sorted by the FCFS key, so FIFO order *is*
        #: the heap's pop order); anything else keeps the policy-key heap.
        waiting: deque | list = deque() if fifo else []
        heappush, heappop = heapq.heappush, heapq.heappop
        #: Running batch as two heaps over plain tuples (see module doc):
        #: ``rem_heap`` = (death_G, request_id, arrival_s, input_tokens,
        #: output_tokens, first_token_s, reservation) min-heap on the death
        #: epoch; ``ctx_heap`` = (-ctx0, death_G, request_id) lazy max-heap
        #: on the context offset (entries of finished requests are popped
        #: when they surface).
        rem_heap: list = []
        ctx_heap: list = []
        batch = 0

        finished_append = state.finished.append
        ttfts_append = state.ttfts.append
        tpots_append = state.tpots.append
        e2es_append = state.e2es.append
        met_count = met_tokens = 0
        total_tokens = 0
        prefill_steps = decode_steps = 0
        reserved = peak_reserved = 0

        clock = arrivals[0]
        busy_seg = mxu_seg = te_seg = 0.0
        busy_sum = mxu_sum = te_sum = 0.0
        #: Global decode counter: total decode chunks applied so far.
        G = 0

        # Telemetry capture.  Gauges sample on the absolute simulated-time
        # grid (multiples of gauge_interval); a catch-up block covering
        # every grid point since the last emission is appended at the top
        # of the outer loop, and quiescent instants re-anchor the grid so
        # idle gaps stay unsampled.  With telemetry
        # off next_gauge is +inf and the whole apparatus is one
        # always-false float compare per outer iteration.  Spans cost one
        # row per prefill and one per completing decode burst, nothing
        # else: the batch only changes at those two events, so each
        # decode span is exactly the decode time between two consecutive
        # rows, and the G/decode_steps snapshots the rows carry give its
        # steps and tokens at materialisation.  Decode bursts that end
        # without a completion carry zero telemetry instructions.
        tel = collect_telemetry
        tel_rows = state.tel_spans
        tel_grid = state.tel_gauges
        ttfts = state.ttfts
        floor = math.floor
        next_gauge = (floor(clock / gauge_interval) * gauge_interval
                      if tel else inf)
        #: Context bucket of the latest decode chunk (a prefill row stamps
        #: it onto the decode span it interrupts).
        bkt = 0
        slow = bool(boundaries)
        #: Per-run unpacked step-cost caches keyed ``bucket << shift |
        #: group`` (an exact composite — group never exceeds ``max_batch``):
        #: int keys hash faster than tuples and allocate nothing.  Values
        #: are (seconds, mxu_energy, total_energy), layered over the memo.
        shift = max_batch.bit_length()
        dcache: dict = {}
        dcache_get = dcache.get
        pcache: dict = {}
        pcache_get = pcache.get

        while True:
            # Quiescent point: nothing in flight and the next arrival is not
            # in the past — close the current busy/energy segment.
            if not batch and not waiting and (index == n or arrivals[index] >= clock):
                if busy_seg != 0.0:
                    busy_sum += busy_seg
                    mxu_sum += mxu_seg
                    te_sum += te_seg
                    busy_seg = mxu_seg = te_seg = 0.0
                if tel:
                    # Re-anchor the gauge grid at the quiescent instant: the
                    # catch-up block would otherwise fill the whole idle gap
                    # with samples of an empty deployment.
                    next_gauge = floor(clock / gauge_interval) * gauge_interval

            if fifo:
                while index < n and arrivals[index] <= clock:
                    waiting.append(admissible[index])
                    index += 1
            else:
                while index < n and arrivals[index] <= clock:
                    live = LiveRequest(admissible[index])
                    heappush(waiting, (priority(live), live))
                    index += 1

            if clock >= next_gauge:
                # int(passed) + 1 grid points, without the call in the
                # common one-point case.
                passed = (clock - next_gauge) / gauge_interval
                points = 1 if passed < 1.0 else int(passed) + 1
                tel_grid += (next_gauge, points, index, batch, reserved,
                             met_count, len(ttfts))
                next_gauge += gauge_interval * points

            if waiting and (admit_during_decode or not batch):
                slots = max_batch - batch
                group = 0
                admitted: list = []  # (request, reservation) pairs
                while waiting and group < slots:
                    request = waiting[0] if fifo else waiting[0][1].request
                    resv = (request.input_tokens + request.output_tokens) * kv_per_token
                    if reserved + resv > budget:
                        break  # no hole-filling: the priority is the contract
                    if fifo:
                        waiting.popleft()
                    else:
                        heappop(waiting)
                    admitted.append((request, resv))
                    group += 1
                    reserved += resv
                if reserved > peak_reserved:
                    peak_reserved = reserved
                if group:
                    max_input = 0
                    for request, _ in admitted:
                        if request.input_tokens > max_input:
                            max_input = request.input_tokens
                    pbkt = (max_input + btm1) // bt * bt
                    cached = pcache_get(pbkt << shift | group)
                    if cached is None:
                        cost = memo_get(("prefill", group, pbkt))
                        if cost is None:
                            cost = price("prefill", group, pbkt)
                        cached = (cost.seconds, cost.mxu_energy_joules,
                                  cost.total_energy_joules)
                        pcache[pbkt << shift | group] = cached
                    seconds, mxu_e, total_e = cached
                    step_s = seconds * slow_factor(clock) if slow else seconds
                    if tel:
                        tel_rows += (None, clock, step_s, group, pbkt, batch,
                                     G, decode_steps, bkt)
                    clock += step_s
                    busy_seg += step_s
                    mxu_seg += mxu_e
                    te_seg += total_e
                    prefill_steps += 1
                    # Live top of the context heap, for the domination test
                    # below (entries of finished requests pop lazily here
                    # exactly as in the decode loop).
                    top = ctx_heap[0] if ctx_heap else None
                    while top is not None and top[1] <= G:
                        heappop(ctx_heap)
                        top = ctx_heap[0] if ctx_heap else None
                    for request, resv in admitted:
                        out = request.output_tokens
                        if out <= 1:
                            # Prefill emitted the only token: finish now.
                            reserved -= resv
                            total_tokens += out
                            arrival = request.arrival_s
                            ttft = clock - arrival
                            if collect:
                                finished_append((request.request_id, arrival,
                                                 request.input_tokens, out,
                                                 clock, clock))
                            ttfts_append(ttft)
                            tpots_append(0.0)
                            e2es_append(ttft)
                            if ttft <= slo_ttft:
                                met_count += 1
                                met_tokens += out
                        else:
                            rid = request.request_id
                            death = G + out - 1
                            heappush(rem_heap, (death, rid, request.arrival_s,
                                                request.input_tokens, out,
                                                clock, resv))
                            # Domination test: a request whose context offset
                            # and death epoch are both <= the live top's can
                            # never define max_context — skip its entry.
                            neg_ctx0 = G - request.input_tokens - 1
                            if top is None or neg_ctx0 < top[0] or death > top[1]:
                                heappush(ctx_heap, (neg_ctx0, death, rid))
                            batch += 1
                    continue

            if batch:
                # Decode fast path: advance chunk after chunk in O(1) until
                # the composition can change (a finish, a due arrival, or a
                # slow-window edge).
                arrival_cap = index < n and admit_during_decode and batch < max_batch
                next_arrival = arrivals[index] if index < n else inf
                while True:
                    top = ctx_heap[0]
                    while top[1] <= G:  # finished request's stale entry
                        heappop(ctx_heap)
                        top = ctx_heap[0]
                    max_context = G - top[0]
                    bkt = (max_context + btm1) // bt * bt
                    cached = dcache_get(bkt << shift | batch)
                    if cached is None:
                        cost = memo_get(("decode", batch, bkt))
                        if cost is None:
                            cost = price("decode", batch, bkt)
                        cached = (cost.seconds, cost.mxu_energy_joules,
                                  cost.total_energy_joules)
                        dcache[bkt << shift | batch] = cached
                    seconds, mxu_e, total_e = cached
                    step_s = seconds * slow_factor(clock) if slow else seconds
                    min_remaining = rem_heap[0][0] - G
                    chunk = bkt - max_context + 1
                    if min_remaining < chunk:
                        chunk = min_remaining
                    if arrival_cap:
                        cap = ceil((next_arrival - clock) / step_s)
                        if cap < 1:
                            cap = 1
                        if cap < chunk:
                            chunk = cap
                    if slow:
                        edge = next_boundary(clock)
                        if edge != inf:
                            cap = ceil((edge - clock) / step_s)
                            if cap < 1:
                                cap = 1
                            if cap < chunk:
                                chunk = cap
                    dt = chunk * step_s
                    clock += dt
                    busy_seg += dt
                    mxu_seg += chunk * mxu_e
                    te_seg += chunk * total_e
                    decode_steps += 1
                    G += chunk
                    if rem_heap[0][0] <= G:
                        running = batch
                        while rem_heap and rem_heap[0][0] <= G:
                            (_, rid, arrival, inp, out, first,
                             resv) = heappop(rem_heap)
                            reserved -= resv
                            total_tokens += out
                            ttft = first - arrival
                            tpot = (clock - first) / (out - 1)
                            if collect:
                                finished_append((rid, arrival, inp, out,
                                                 first, clock))
                            ttfts_append(ttft)
                            tpots_append(tpot)
                            e2es_append(clock - arrival)
                            if ttft <= slo_ttft and tpot <= slo_tpot:
                                met_count += 1
                                met_tokens += out
                            batch -= 1
                        if tel:
                            tel_rows += (clock, G, decode_steps, bkt,
                                         running, batch)
                        break
                    if arrival_cap and next_arrival <= clock:
                        break
                    if slow:
                        break  # re-sample the degradation factor per chunk
                continue

            if index < n:
                # Idle: jump to the next arrival.
                if arrivals[index] > clock:
                    clock = arrivals[index]
                continue
            break

        # The loop only exits from a quiescent point, which closed the last
        # segment, and the completion that emptied the batch wrote a row:
        # no segment or decode span is left open here.
        state.busy_s = busy_sum
        state.mxu_energy_j = mxu_sum
        state.total_energy_j = te_sum
        state.met_count = met_count
        state.met_tokens = met_tokens
        state.total_tokens = total_tokens
        state.prefill_steps = prefill_steps
        state.decode_steps = decode_steps
        state.peak_reserved = peak_reserved
        state.final_clock = clock
        return state

    # ----------------------------------------------------------------- report
    def _build_report(self, state: _RunState, slo: SLO, *, devices: int,
                      num_requests: int, rejected: int, budget: int,
                      start_s: float) -> ServingReport:
        """Assemble the :class:`ServingReport` from raw event-loop state."""
        records = sorted(state.finished)
        requests: list[RequestMetrics] = []
        requests_append = requests.append
        set_dict = object.__setattr__  # bypass the frozen-dataclass guard
        for request_id, arrival, inp, out, first, finish in records:
            metric = _new_instance(RequestMetrics)
            set_dict(metric, "__dict__", {
                "request_id": request_id, "arrival_s": arrival,
                "input_tokens": inp, "output_tokens": out,
                "first_token_s": first, "finish_s": finish,
                "ttft_s": first - arrival,
                "tpot_s": (finish - first) / (out - 1) if out > 1 else 0.0,
                "e2e_s": finish - arrival, "disrupted": False})
            requests_append(metric)
        completed = len(state.ttfts)
        makespan = state.final_clock - start_s if completed else 0.0
        mxu_energy = state.mxu_energy_j
        span = makespan if makespan > 0 else 0.0
        per_second = (1.0 / span) if span else 0.0
        total_tokens = state.total_tokens
        return ServingReport(
            model_name=self.model.name, tpu_name=self.tpu_config.name,
            scheduler=self.policy.name, devices=devices,
            num_requests=num_requests, completed=completed, rejected=rejected,
            makespan_s=makespan, busy_s=state.busy_s,
            total_tokens=total_tokens,
            tokens_per_second=total_tokens * per_second,
            requests_per_second=completed * per_second,
            ttft=(LatencySummary.from_values(state.ttfts)
                  if completed else LatencySummary.empty()),
            tpot=(LatencySummary.from_values(state.tpots)
                  if completed else LatencySummary.empty()),
            e2e=(LatencySummary.from_values(state.e2es)
                 if completed else LatencySummary.empty()),
            slo=slo,
            slo_attainment=state.met_count / completed if completed else 0.0,
            goodput_requests_per_second=state.met_count * per_second,
            goodput_tokens_per_second=state.met_tokens * per_second,
            mxu_energy_joules=mxu_energy,
            total_energy_joules=state.total_energy_j,
            energy_per_token_joules=mxu_energy / total_tokens if total_tokens else 0.0,
            prefill_steps=state.prefill_steps, decode_steps=state.decode_steps,
            kv_budget_bytes=budget, peak_kv_reserved_bytes=state.peak_reserved,
            cost_cache_hits=self.costs.stats.hits,
            cost_cache_misses=self.costs.stats.misses,
            requests=tuple(requests))


def emit_report_summary(telemetry: Telemetry | None, track: str,
                        report, *, fidelity: str) -> None:
    """Summary-only telemetry for runs without an event loop to observe.

    Fluid estimates (and store-served cluster reports) have no events to
    trace, so they contribute one whole-run span plus headline counters —
    enough for the dashboard without pretending a replay happened.
    ``report`` is any report shape with completed/rejected/makespan/SLO
    fields (:class:`ServingReport` or the cluster's ``ClusterReport``).
    """
    if telemetry is None:
        return
    telemetry.span(track, f"{fidelity}-run", 0.0, report.makespan_s,
                   {"completed": report.completed,
                    "rejected": report.rejected,
                    "slo_attainment": round(report.slo_attainment, 6)})
    telemetry.count(f"{track}.completed", report.completed)
    telemetry.count(f"{track}.rejected", report.rejected)
    telemetry.count(f"{track}.tokens", report.total_tokens)


def serving_report_from_dict(payload: Mapping[str, object]) -> ServingReport:
    """Rebuild a :class:`ServingReport` from its ``to_dict`` payload.

    The derived keys (utilisation, cache hit rate) are properties and
    ignored; a store-served report is bit for bit the computed one.
    """
    return decode(ServingReport, payload)


def serving_run_key(model: LLMConfig, tpu_config: TPUConfig, spec: ServingSpec,
                    settings: object) -> str:
    """Content fingerprint of one :func:`simulate_serving` run.

    The version string follows the same bump rule as ``cluster-report``
    keys: any change to the report schema, the spec's axes or the engine's
    semantics bumps it, so older stores miss instead of serving stale
    payloads (the rule is documented in CONTRIBUTING.md).
    """
    return fingerprint("serving-report/v1", tpu_config, model, spec, settings)


def simulate_serving(model: LLMConfig, tpu_config: TPUConfig, spec: ServingSpec,
                     settings: object, *, store=None,
                     telemetry: Telemetry | None = None) -> ServingReport:
    """Run one :class:`ServingSpec` end to end (the sweep engine's entry).

    The request mix comes from the scenario ``settings`` (an explicit
    ``request_classes`` mix, or the single canonical shape of plain LLM
    serving settings); the precision follows the settings too, so a sweep
    point's serving run prices the same numerics as its analytical row.

    ``spec.fidelity`` selects the engine: ``"exact"`` replays the
    discrete-event loop; ``"fluid"`` dispatches to the closed-form
    estimator (:func:`repro.serving.fluid.estimate_serving`) — same report
    shape, orders of magnitude faster, golden-bounded error.

    A persistent :class:`~repro.sweep.store.ResultStore` short-circuits the
    whole run, exactly like :func:`repro.serving.cluster.simulate_cluster`
    does for fleets: reports are keyed by :func:`serving_run_key` and
    stored with their per-request rows, so a repeated run — another
    process, another client of the gateway, days later — decodes the
    report bit for bit instead of replaying the event loop.

    Raises
    ------
    ValueError
        If the spec injects faults — fault timelines act at the routing
        layer, so faulted specs (any replica count) must run through
        :func:`repro.serving.cluster.simulate_cluster`.
    """
    if spec.faults:
        raise ValueError("fault injection needs the cluster simulator; "
                         "route faulted specs through simulate_cluster")
    key = serving_run_key(model, tpu_config, spec, settings) if store is not None else ""
    if store is not None:
        report = store.load(SERVING_STORE_KIND, key, serving_report_from_dict)
        if report is not None:
            # Store-served runs replay nothing: summary-only telemetry,
            # exactly like fluid estimates.
            emit_report_summary(telemetry, "serve", report, fidelity="stored")
            return report
    if spec.fidelity == "fluid":
        from repro.serving.fluid import estimate_serving

        report = estimate_serving(model, tpu_config, spec, settings)
        # Fluid runs have no event loop: summary telemetry only, and the
        # estimate itself never sees the telemetry object at all.
        emit_report_summary(telemetry, "serve", report, fidelity="fluid")
        if store is not None:
            store.put(SERVING_STORE_KIND, key, report.to_dict())
        return report
    classes = request_classes_from_settings(settings)
    trace = generate_trace(spec.trace, classes, spec.arrival_rate,
                           spec.num_requests, spec.seed, overlay=spec.overlay)
    engine = ServingSimulator.for_spec(model, tpu_config, spec, settings)
    report = engine.run(trace, slo=spec.slo, telemetry=telemetry)
    if store is not None:
        store.put(SERVING_STORE_KIND, key, report.to_dict())
    return report
