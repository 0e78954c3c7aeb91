"""Multi-replica fleet simulation: routing, autoscaling and fleet economics.

PR 3's :class:`~repro.serving.simulator.ServingSimulator` models one
deployment — one scheduler, one pipeline-parallel group, one arrival stream.
Production serving stacks put a *router* and an *autoscaler* in front of many
such deployments, and that fleet layer is where capacity, cost-per-token and
tail-latency trade-offs are actually decided.  :class:`ClusterSimulator`
composes N replicas — possibly heterogeneous in chip design, device count,
batching limit or scheduler — behind a pluggable
:class:`~repro.serving.router.RouterPolicy` and
:class:`~repro.serving.autoscaler.AutoscalerPolicy` and rolls the per-replica
reports into one frozen :class:`ClusterReport`.

How the fleet is simulated, stated explicitly:

* **Route first, then replay.**  One seeded arrival trace is split across
  replicas in a deterministic pre-pass: at each arrival an autoscaler that
  scales is consulted (one without ``decide``, like ``fixed``, never is),
  then the router picks among the routable replicas (active, past cold
  start, not stalled, preferring ones whose KV budget fits the request).
  That set changes only at a cold-start end, a stall edge, a rescale, a
  crash or a restart, so the pre-pass keeps it from one such edge to the
  next.  Each replica then replays its sub-trace through the full
  continuous-batching event loop.  Replicas do not interact mid-flight —
  true for production fleets too, where the router is the only coupling
  point.
* **Routing sees estimates, not oracle state.**  The front-end tracks each
  replica with a queueing estimate shaped like the engine itself: prefill
  occupies the replica serially (one prompt at a time, priced by the
  replica's own cost model at the request's bucketed length) and decode
  occupies one of ``max_batch`` concurrent slots for ``output_tokens``
  full-batch decode steps.  Heterogeneous replicas therefore attract load
  proportional to their actual speed, but the router never peeks at event-
  loop internals a real load balancer could not see.
* **Routing one arrival is a few integer and heap operations.**  Each
  replica keeps its router view until its load estimate moves: a drain
  that retires an estimate, an assignment or a crash drops it, and only a
  replica with an estimate due is drained.  Each replica also holds an
  integer token limit (its KV budget over the per-token KV bytes, the
  limit its own admission applies), and a request within the smallest
  limit of the routable set fits all of them, so only a larger one is
  tested view by view.  An assignment moves the replica's estimate with
  one heap replace of its earliest decode slot.
* **Each completed request is judged once.**  The replicas' rows are
  sorted by request id once and tallied in one pass
  (:class:`~repro.serving.metrics.RequestTally`): latency summaries, SLO
  attainment and goodput, the SLO debt of the requests that missed, and
  the healthy and disrupted counts the resilience summary reads.  Crash
  and fault-free fleets take the same path.
* **Autoscaling pays its costs.**  Scale-out suffers the policy's cold-start
  delay before a replica becomes routable; scale-in is hysteresis-guarded
  and always releases the highest-indexed replica, so the fleet never flaps
  and replicas below ``min_replicas`` never drain.  The replica-count
  timeline is part of the report, and fleet economics (chip-hours and
  energy → cost per million tokens) are priced from it.
* **Faults act at the routing layer.**  Injected
  :class:`~repro.serving.faults.FaultSpec` sources expand into a
  deterministic event timeline merged with the arrivals.  A **crash** fells
  the replica at its onset: billing stops, the front-end's estimated
  in-flight requests drain back to the router and are re-routed immediately
  (their completed metrics are fixed up to the *original* arrival and
  flagged ``disrupted``, so the disruption shows up as real latency), and
  the replica restarts ``duration_s`` later, paying the autoscaler's cold
  start before it is routable again.  **Slow** windows multiply the
  replica's step durations during its replay (the front end stays blind to
  them — unplanned degradation is exactly what routing estimates miss), and
  **stall** windows make the replica unroutable while in-flight work
  continues.  Conservation holds throughout: every trace request completes,
  is rejected at admission, or is counted as shed.

Determinism: the pre-pass, the fault timeline and every replica replay are
pure functions of the trace and the configuration, so a cluster run —
chaos included — is bit-for-bit reproducible: the acceptance property the
CI determinism checks pin.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.codec import decode
from repro.serving.autoscaler import AutoscalerPolicy, FleetView, get_autoscaler
from repro.serving.faults import FaultEvent, FaultSpec, fault_timeline
from repro.serving.metrics import (
    SLO,
    LatencySummary,
    RequestMetrics,
    RequestTally,
    ResilienceSummary,
    ServingReport,
    report_payload,
)
from repro.obs.telemetry import Telemetry
from repro.serving.router import ReplicaView, RouterContext, RouterPolicy, get_router
from repro.serving.simulator import ServingSimulator, _arrival_key, emit_report_summary
from repro.serving.spec import ServingSpec
from repro.serving.trace import Request, generate_trace, request_classes_from_settings
from repro.sweep.fingerprint import fingerprint

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sweep.store import ResultStore, StoreView

#: Store namespace of persisted fleet reports (see repro.sweep.store).
STORE_KIND = "cluster-report"

# The per-arrival ReplicaView and RouterContext skip the frozen-dataclass
# __init__, as the replay's RequestMetrics rows do.
_new_instance = object.__new__
_set_attribute = object.__setattr__
_finish_s = attrgetter("finish_s")
_request_id = attrgetter("request_id")


@dataclass(frozen=True)
class FleetCostModel:
    """Dollar pricing of a fleet run: amortised chip-hours plus energy.

    ``chip_hour_dollars`` amortises capex/hosting per accelerator-hour (a
    replica with 4 devices active for an hour bills 4 chip-hours);
    ``energy_dollars_per_kwh`` prices the simulated energy draw.  The
    defaults are deliberately round placeholders — the point is comparing
    fleet configurations under one consistent price sheet, not absolute
    dollar accuracy.
    """

    chip_hour_dollars: float = 1.50
    energy_dollars_per_kwh: float = 0.12

    def __post_init__(self) -> None:
        if self.chip_hour_dollars < 0 or self.energy_dollars_per_kwh < 0:
            raise ValueError("fleet prices must be non-negative")

    def run_dollars(self, chip_hours: float, energy_joules: float) -> float:
        """Total cost of a run with the given chip-hours and energy."""
        return (chip_hours * self.chip_hour_dollars
                + energy_joules / 3.6e6 * self.energy_dollars_per_kwh)


@dataclass(frozen=True)
class ReplicaSummary:
    """Flat per-replica outcome row (CSV-exportable: no nested fields)."""

    index: int
    tpu_name: str
    scheduler: str
    devices: int
    #: Simulated seconds the replica was provisioned (activation spans).
    active_s: float
    #: Simulated seconds the replica spent executing prefill/decode steps.
    busy_s: float
    utilisation: float
    requests_routed: int
    completed: int
    rejected: int
    total_tokens: int
    tokens_per_second: float
    mxu_energy_joules: float
    total_energy_joules: float
    kv_budget_bytes: int
    peak_kv_reserved_bytes: int
    cost_cache_hits: int
    cost_cache_misses: int


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate outcome of one simulated fleet run."""

    model_name: str
    router: str
    autoscaler: str
    scheduler: str
    #: Configured fleet ceiling / autoscaler floor / devices across the fleet.
    fleet_size: int
    min_replicas: int
    total_devices: int
    num_requests: int
    completed: int
    rejected: int
    #: Simulated wall-clock span (first arrival to last completion).
    makespan_s: float
    total_tokens: int
    tokens_per_second: float
    requests_per_second: float
    #: Fleet-wide latency distributions over every completed request.
    ttft: LatencySummary
    tpot: LatencySummary
    e2e: LatencySummary
    slo: SLO
    slo_attainment: float
    goodput_requests_per_second: float
    goodput_tokens_per_second: float
    mxu_energy_joules: float
    total_energy_joules: float
    energy_per_token_joules: float
    #: Fleet economics: provisioned accelerator-hours and the resulting
    #: cost per million generated tokens under the run's price sheet.
    chip_hours: float
    cost_model: FleetCostModel
    cost_per_million_tokens_dollars: float
    #: (time, active replicas) at every change, starting at the first arrival.
    replica_timeline: tuple[tuple[float, int], ...]
    peak_active_replicas: int
    mean_active_replicas: float
    replicas: tuple[ReplicaSummary, ...]
    requests: tuple[RequestMetrics, ...] = ()
    #: Requests no replica could take at all (conservation contract:
    #: ``completed + rejected + shed == num_requests`` — structurally 0
    #: while every crash schedules a restart, but the accounting is total).
    shed: int = 0
    #: Resilience outcomes, computed for every run: a fault-free fleet
    #: reports availability 1.0, zero recovery time and a goodput-under-
    #: failure equal to its plain goodput (nothing was disrupted).
    resilience: ResilienceSummary = ResilienceSummary.clean()
    #: The injected fault timeline in absolute simulated time (provenance).
    fault_events: tuple[FaultEvent, ...] = ()

    @property
    def utilisation(self) -> float:
        """Busy fraction of the provisioned chip-time, devices-weighted.

        Each replica's busy time is clamped to its provisioned seconds
        before the ratio: drain-aware billing keeps a scaled-in replica's
        ``busy_s`` accruing through activation gaps its billing clock never
        covered, and without the clamp an aggressive scale-in trace could
        report a fleet utilisation above 1.0.  The result is provably in
        [0, 1] for *any* replica summaries, engine-produced or
        hand-constructed.
        """
        provisioned = sum(r.devices * r.active_s for r in self.replicas)
        busy = sum(r.devices * min(r.busy_s, r.active_s) for r in self.replicas)
        return min(1.0, busy / provisioned) if provisioned > 0 else 0.0

    @property
    def cost_cache_hits(self) -> int:
        """Step-cost memo hits summed over the fleet."""
        return sum(r.cost_cache_hits for r in self.replicas)

    @property
    def cost_cache_misses(self) -> int:
        """Distinct step-cost states priced, summed over the fleet."""
        return sum(r.cost_cache_misses for r in self.replicas)

    @property
    def cost_cache_hit_rate(self) -> float:
        """Fraction of fleet step-cost lookups served from the memos."""
        lookups = self.cost_cache_hits + self.cost_cache_misses
        return self.cost_cache_hits / lookups if lookups else 0.0

    def to_dict(self, include_requests: bool = True) -> dict[str, object]:
        """Plain-dict form (nested summaries inlined) for JSON export."""
        return report_payload(
            self, include_requests, utilisation=self.utilisation,
            cost_cache_hits=self.cost_cache_hits,
            cost_cache_misses=self.cost_cache_misses,
            cost_cache_hit_rate=self.cost_cache_hit_rate)


class _ReplicaHandle:
    """Mutable front-end state of one replica during the routing pre-pass."""

    def __init__(self, index: int, replica: ServingSimulator,
                 trace: Sequence[Request]) -> None:
        self.index = index
        self.replica = replica
        # Plan the deployment against the FULL trace (not the sub-trace the
        # routing produces), so the budget the router sees is the budget the
        # replica's replay prices; run() gets it as a per-run override and
        # the replica object itself is never mutated.  Only the largest
        # request matters, so run() passes just that one.
        self.devices = (replica.devices if replica.devices is not None
                        else replica.plan_devices(trace))
        self.kv_budget = replica.kv_budget(self.devices)
        if self.kv_budget <= 0:
            raise ValueError(
                f"replica {index}: {replica.model.name} does not fit "
                f"{self.devices} x {replica.tpu_config.name}: no KV budget "
                f"left after weights (use more devices)")
        # The largest request (prompt + output tokens) the KV budget holds:
        # t * b <= K exactly when t <= K // b for positive integers, the
        # limit the replica's own admission applies.
        self.token_limit = self.kv_budget // replica.kv_bytes_per_token
        step = replica.costs.decode_cost(replica.max_batch,
                                         replica.costs.bucket_tokens)
        self._decode_step_s = step.seconds
        self._prefill_cost = replica.costs.prefill_cost
        self.service_tokens_per_s = replica.max_batch / step.seconds
        # Queueing estimate the router acts on: serial prefill occupancy,
        # max_batch decode slots, and the set of requests still in flight
        # (keyed by finish estimate, carrying the request so a crash knows
        # exactly what to drain back to the router).  ``next_finish`` is the
        # earliest estimate in ``_queue`` (inf when it is empty).
        self._queue: list[tuple[float, int, Request]] = []
        self.next_finish = math.inf
        self._prefill_busy_until = 0.0
        self._slots = [0.0] * replica.max_batch
        self.outstanding_tokens = 0
        self._view: ReplicaView | None = None
        # A view's fields in declaration order; all but the two load
        # figures are fixed for the run, so a rebuild copies this and sets
        # those two.
        self._view_fields = {
            "index": index, "tpu_name": replica.tpu_config.name,
            "devices": self.devices, "max_batch": replica.max_batch,
            "outstanding_requests": 0, "outstanding_tokens": 0,
            "service_tokens_per_s": self.service_tokens_per_s,
            "kv_budget_bytes": self.kv_budget,
            "kv_bytes_per_token": replica.kv_bytes_per_token}
        self.view_builds = 0
        self.subtrace: list[Request] = []
        # Activation bookkeeping.
        self.active = False
        self.ready_at = 0.0
        self.active_since: float | None = None
        self.deactivated_at: float | None = None
        self.active_s = 0.0
        # Fault state: the pending outage end (None = up), completed outage
        # spans, and the degradation/stall windows the timeline attached.
        self.down_until: float | None = None
        self.outages: list[tuple[float, float]] = []
        self.slow_windows: list[tuple[float, float, float]] = []
        self.stall_windows: list[tuple[float, float]] = []

    # ----------------------------------------------------------- scaling
    def activate(self, now: float, cold_start_s: float) -> None:
        self.active = True
        self.ready_at = now + cold_start_s
        self.active_since = now
        self.deactivated_at = None

    def deactivate(self, now: float) -> None:
        self.active = False
        if self.active_since is not None:
            self.active_s += now - self.active_since
        self.active_since = None
        self.deactivated_at = now

    def finalize(self, end_s: float, last_finish_s: float | None) -> None:
        """Close the billing clock at the fleet's end time.

        A replica scaled in while work was still in flight keeps draining
        (no new requests, but its replay runs to completion), so billing is
        extended from the final deactivation to its last completion — the
        instance cannot be released before the drain, and utilisation/cost
        must account for it.
        """
        if self.active and self.active_since is not None:
            self.active_s += max(0.0, end_s - self.active_since)
            self.active_since = None
        elif (self.deactivated_at is not None and last_finish_s is not None
              and last_finish_s > self.deactivated_at):
            self.active_s += last_finish_s - self.deactivated_at

    # ------------------------------------------------------------- faults
    def stalled(self, now: float) -> bool:
        """Whether an admission-stall window covers ``now``."""
        if not self.stall_windows:
            return False
        return any(start <= now < end for start, end in self.stall_windows)

    def next_edge(self, now: float) -> float:
        """The first cold-start end or stall edge after ``now``: the next
        instant the replica's routability can change."""
        edges = [self.ready_at, *(t for window in self.stall_windows for t in window)]
        return min((t for t in edges if t > now), default=math.inf)

    def crash(self, now: float, *, up_at: float) -> list[Request]:
        """Fell the replica: stop billing, mark it down until ``up_at``.

        Returns the front-end's estimated in-flight requests (finish
        estimate past ``now``), removed from the sub-trace, in
        deterministic (finish, id) order — the caller re-routes them.
        Requests estimated already complete stay on the sub-trace: the
        crash cannot un-serve them.
        """
        victims = [request for _, _, request in sorted(self._queue)]
        victim_ids = {request.request_id for request in victims}
        self.subtrace = [r for r in self.subtrace
                         if r.request_id not in victim_ids]
        self._queue = []
        self.next_finish = math.inf
        self.outstanding_tokens = 0
        self._view = None
        # The estimate queues future assignments behind the outage.
        self._prefill_busy_until = up_at
        self._slots = [up_at] * self.replica.max_batch
        if self.active:
            self.deactivate(now)
        self.down_until = up_at
        self.outages.append((now, up_at))
        return victims

    def restart(self, now: float, cold_start_s: float) -> None:
        """Bring the replica back: billing resumes, cold start applies."""
        self.down_until = None
        self.activate(now, cold_start_s)
        self._prefill_busy_until = self.ready_at
        self._slots = [self.ready_at] * self.replica.max_batch

    # ------------------------------------------------------------ routing
    def drain(self, now: float) -> None:
        """Retire the estimates finished by ``now`` (dropping the view)."""
        if self.next_finish > now:
            return
        queue = self._queue
        tokens = self.outstanding_tokens
        while queue and queue[0][0] <= now:
            _, _, request = heapq.heappop(queue)
            tokens -= request.input_tokens + request.output_tokens
        self.outstanding_tokens = tokens
        self.next_finish = queue[0][0] if queue else math.inf
        self._view = None

    def assign(self, request: Request, now: float) -> None:
        prefill_s = self._prefill_cost(1, request.input_tokens).seconds
        # The conditional expressions pick exactly what max() would.
        busy = self._prefill_busy_until
        busy = (busy if busy > now else now) + prefill_s
        self._prefill_busy_until = busy
        # The request takes the decode slot that frees first.
        slot_free = self._slots[0]
        finish = ((slot_free if slot_free > busy else busy)
                  + request.output_tokens * self._decode_step_s)
        heapq.heapreplace(self._slots, finish)
        heapq.heappush(self._queue, (finish, request.request_id, request))
        if finish < self.next_finish:
            self.next_finish = finish
        self.outstanding_tokens += request.input_tokens + request.output_tokens
        self.subtrace.append(request)
        self._view = None

    def view(self) -> ReplicaView:
        """The router's snapshot of the current load estimate.

        Only ``drain`` (when it retires an estimate), ``assign`` and
        ``crash`` move the two load figures, and each drops the view, so a
        view still held is the current one and is handed out again.  A new
        one copies the handle's field template with the two load figures
        set, is built without the frozen-dataclass ``__init__`` (the class
        has no ``__post_init__`` to skip) and is counted in ``view_builds``.
        Whether a request fits is settled by the integer ``token_limit``
        where it can be, not by the view.
        """
        view = self._view
        if view is None:
            fields = self._view_fields.copy()
            fields["outstanding_requests"] = len(self._queue)
            fields["outstanding_tokens"] = self.outstanding_tokens
            view = self._view = _new_instance(ReplicaView)
            _set_attribute(view, "__dict__", fields)
            self.view_builds += 1
        return view


class ClusterSimulator:
    """Routes one arrival trace across N replica engines and aggregates."""

    def __init__(self, replicas: Sequence[ServingSimulator], *,
                 router: str | RouterPolicy = "round-robin",
                 autoscaler: str | AutoscalerPolicy = "fixed",
                 min_replicas: int = 1,
                 cost_model: FleetCostModel = FleetCostModel(),
                 faults: Sequence[FaultSpec] = ()) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        names = {replica.model.name for replica in replicas}
        if len(names) != 1:
            raise ValueError("all replicas must serve the same model, got "
                             + ", ".join(sorted(names)))
        if not 1 <= min_replicas <= len(replicas):
            raise ValueError(f"min_replicas must be in [1, {len(replicas)}], "
                             f"got {min_replicas}")
        self.replicas = replicas
        self.router = router if isinstance(router, RouterPolicy) else get_router(router)
        self.autoscaler = (autoscaler if isinstance(autoscaler, AutoscalerPolicy)
                           else get_autoscaler(autoscaler))
        self.min_replicas = min_replicas
        self.cost_model = cost_model
        self.faults = tuple(faults)

    @classmethod
    def for_spec(cls, model, tpu_config, spec: ServingSpec,
                 settings: object) -> "ClusterSimulator":
        """``spec.replicas`` engines of ``spec`` behind its router,
        autoscaler, ``min_replicas`` and faults (see
        :meth:`ServingSimulator.for_spec`)."""
        return cls([ServingSimulator.for_spec(model, tpu_config, spec, settings)
                    for _ in range(spec.replicas)],
                   router=spec.router, autoscaler=spec.autoscaler,
                   min_replicas=spec.min_replicas, faults=spec.faults)

    # ---------------------------------------------------------------- run
    def run(self, trace: Sequence[Request], slo: SLO = SLO(), *,
            telemetry: Telemetry | None = None) -> ClusterReport:
        """Route the trace, replay every replica, aggregate the fleet report.

        ``telemetry`` captures the fleet-level story on dedicated tracks —
        routing decisions on ``router``, scale events on ``autoscaler``,
        fault onsets/recoveries as global instants on ``faults`` — plus
        each replica's own replay on its ``replica-N`` track (cold-start
        and degradation windows included).  Like the engine's, it only
        observes: the :class:`ClusterReport` is bit-for-bit identical with
        telemetry on or off.

        Raises
        ------
        ValueError
            If the trace is empty, two requests share a request id (the
            fleet tells re-routed and disrupted requests apart by id) or
            any replica's deployment cannot hold the model's weights.
        """
        if not trace:
            raise ValueError("cluster serving needs a non-empty trace")
        tel = telemetry
        ordered = sorted(trace, key=_arrival_key)
        # Sorted ids, not a set: on a 20,000-request trace (Python 3.11) a
        # set of the ids raised the run's peak RSS by 1.5 MB, this by 0.1.
        ids = sorted(map(_request_id, ordered))
        for previous, request_id in zip(ids, itertools.islice(ids, 1, None)):
            if previous == request_id:
                raise ValueError(f"request_id {request_id} repeats in the "
                                 "trace; a fleet tells requests apart by id")
        # A planned deployment admits the trace's largest request: find it
        # once for the fleet instead of once per replica.
        plan = ((max(ordered, key=attrgetter("total_tokens")),)
                if any(replica.devices is None for replica in self.replicas)
                else ordered)
        handles = [_ReplicaHandle(index, replica, plan)
                   for index, replica in enumerate(self.replicas)]
        fleet_size = len(handles)
        start_s = ordered[0].arrival_s

        # A policy without ``decide`` never scales: no view is built and the
        # whole fleet is provisioned, which is what ``fixed`` asks for.
        decide = self.autoscaler.decide
        scaler_state: dict = {}
        fleet_views = 0
        initial = fleet_size
        if decide is not None:
            bootstrap = FleetView(now_s=start_s, fleet_size=fleet_size,
                                  min_replicas=self.min_replicas,
                                  active_count=self.min_replicas,
                                  ready_count=self.min_replicas,
                                  outstanding_requests=0, kv_pressure=0.0,
                                  utilisation=0.0)
            fleet_views += 1
            initial = self._clamp(decide(bootstrap, scaler_state))
        for handle in handles[:initial]:
            # The initial fleet is provisioned before traffic: no cold start.
            handle.activate(start_s, 0.0)
        timeline: list[tuple[float, int]] = [(start_s, initial)]

        # Expand the injected fault sources into one deterministic event
        # timeline over the arrival span.  Slow/stall windows attach to
        # replica state directly; crashes (and the restarts they schedule)
        # merge with the arrivals through a pending-event heap.
        events = fault_timeline(self.faults, fleet_size,
                                ordered[-1].arrival_s - start_s)
        pending: list[tuple[float, int, str, object]] = []
        seq = itertools.count(len(events))
        for order, event in enumerate(events):
            at = start_s + event.time_s
            handle = handles[event.replica]
            if event.effect == "slow":
                handle.slow_windows.append((at, at + event.duration_s,
                                            event.magnitude))
                if tel is not None:
                    tel.span(f"replica-{event.replica}", "fault:slow",
                             at, at + event.duration_s,
                             {"magnitude": event.magnitude})
            elif event.effect == "stall":
                handle.stall_windows.append((at, at + event.duration_s))
                if tel is not None:
                    tel.span(f"replica-{event.replica}", "fault:stall",
                             at, at + event.duration_s)
            else:
                heapq.heappush(pending, (at, order, "crash", event))

        crash_times: list[float] = []
        original_arrival: dict[int, float] = {}
        disrupted: set[int] = set()
        shed = 0
        routed = 0
        # The replicas dispatch picks from, kept until ``routable_until``:
        # the next cold-start end or stall edge among the active replicas
        # (dispatch times never decrease).  Rescales, crashes and restarts
        # change the fleet and reset it.  A request of at most
        # ``routable_limit`` tokens fits every one of them.
        routable: list[_ReplicaHandle] = []
        routable_until = -math.inf
        routable_limit = 0
        routable_rebuilds = 0
        choose = self.router.choose

        def active_handles() -> list[_ReplicaHandle]:
            return [h for h in handles if h.active]

        def dispatch(request: Request, now: float, rerouted: bool = False) -> None:
            """Route one request at ``now``."""
            nonlocal routed, shed, routable, routable_until, routable_limit, \
                routable_rebuilds
            if now >= routable_until:
                active = active_handles()
                warm = [h for h in active if h.ready_at <= now]
                routable = [h for h in warm if not h.stalled(now)]
                if not routable and active:
                    # Every candidate is cold-starting or stalled: wait on
                    # the least-soon-ready one.
                    pool = warm or active
                    routable = [min(pool, key=lambda h: (h.ready_at, h.index))]
                routable_until = min((h.next_edge(now) for h in active),
                                     default=math.inf)
                routable_limit = min((h.token_limit for h in routable),
                                     default=0)
                routable_rebuilds += 1
            if routable:
                # Only the replicas whose views are read need draining, and
                # only when an estimate is due: a drain pops every estimate
                # finished by its time, so one left behind reaches the same
                # state when next read.
                for handle in routable:
                    if handle.next_finish <= now:
                        handle.drain(now)
                candidates = tuple([handle._view or handle.view()
                                    for handle in routable])
                if request.input_tokens + request.output_tokens > routable_limit:
                    candidates = tuple([view for view in candidates
                                        if view.fits(request)]) or candidates
                context = _new_instance(RouterContext)
                _set_attribute(context, "__dict__", {
                    "now_s": now, "routed_count": routed,
                    "fleet_size": fleet_size})
                handle = handles[choose(request, candidates, context).index]
            else:
                # Mid-outage the whole fleet can be down; queue the request
                # on the replica that restarts first rather than fail it.
                down = [h for h in handles if h.down_until is not None]
                if not down:  # structurally unreachable while every crash
                    shed += 1  # schedules a restart; accounting stays total
                    if tel is not None:
                        tel.event("router", "shed", now,
                                  {"request": request.request_id})
                    return
                handle = min(down, key=lambda h: (h.down_until, h.index))
            arrival = request.arrival_s
            if handle.down_until is not None:
                # Assigned across an outage: the replay cannot start the
                # request before the replica is back and warm again.
                arrival = max(arrival, handle.down_until
                              + self.autoscaler.cold_start_s)
            if rerouted:
                disrupted.add(request.request_id)
                arrival = max(arrival, now)
            if arrival != request.arrival_s:
                original_arrival.setdefault(request.request_id,
                                            request.arrival_s)
                request = dataclasses.replace(request, arrival_s=arrival)
            handle.assign(request, now)
            routed += 1
            if tel is not None:
                tel.event("router", "reroute" if rerouted else "route", now,
                          {"request": request.request_id,
                           "replica": handle.index})

        def advance_faults(now: float) -> None:
            nonlocal routable_until
            while pending and pending[0][0] <= now:
                at, _, kind, payload = heapq.heappop(pending)
                if kind == "restart":
                    handle = handles[payload]
                    if handle.down_until is not None:
                        handle.restart(at, self.autoscaler.cold_start_s)
                        routable_until = -math.inf
                        timeline.append((at, len(active_handles())))
                        if tel is not None:
                            tel.event("faults", "restart", at,
                                      {"replica": payload}, scope="g")
                            tel.span(f"replica-{payload}", "cold-start", at,
                                     handle.ready_at)
                    continue
                event = payload
                handle = handles[event.replica]
                if not handle.active or handle.down_until is not None:
                    continue  # already down or scaled in: nothing to fell
                handle.drain(at)
                victims = handle.crash(at, up_at=at + event.duration_s)
                routable_until = -math.inf
                crash_times.append(at)
                if tel is not None:
                    tel.event("faults", "crash", at,
                              {"replica": event.replica,
                               "duration_s": event.duration_s,
                               "victims": len(victims)}, scope="g")
                heapq.heappush(pending, (at + event.duration_s, next(seq),
                                         "restart", event.replica))
                timeline.append((at, len(active_handles())))
                for victim in victims:
                    dispatch(victim, at, rerouted=True)

        for request in ordered:
            now = request.arrival_s
            if pending:
                advance_faults(now)
            if decide is None:
                dispatch(request, now)
                continue
            active = active_handles()
            for handle in active:
                if handle.next_finish <= now:
                    handle.drain(now)
            fleet_views += 1
            target = self._clamp(decide(self._fleet_view(now, fleet_size, active),
                                        scaler_state))
            if target != len(active):
                routable_until = -math.inf  # dispatch must see the new fleet
                before = len(active)
                self._rescale(handles, active, target, now, tel=tel)
                # A crashed replica cannot be re-activated by scale-out, so
                # the rescale can be a no-op; only real changes are events.
                after = len(active_handles())
                if after != before:
                    timeline.append((now, after))
                    if tel is not None:
                        tel.event("autoscaler",
                                  "scale-up" if after > before else "scale-down",
                                  now, {"from": before, "to": after})
            dispatch(request, now)
        while pending:  # restarts beyond the last arrival still end outages
            at, _, kind, payload = heapq.heappop(pending)
            if kind == "restart" and handles[payload].down_until is not None:
                handles[payload].restart(at, self.autoscaler.cold_start_s)
                timeline.append((at, len(active_handles())))
                if tel is not None:
                    tel.event("faults", "restart", at,
                              {"replica": payload}, scope="g")
                    tel.span(f"replica-{payload}", "cold-start", at,
                             handles[payload].ready_at)

        reports: list[ServingReport | None] = [
            handle.replica.run(tuple(handle.subtrace), slo,
                               devices=handle.devices,
                               slow_windows=tuple(handle.slow_windows),
                               telemetry=tel,
                               telemetry_track=f"replica-{handle.index}")
            if handle.subtrace else None
            for handle in handles]
        if tel is not None:
            tel.count("cluster.requests", len(ordered))
            tel.count("cluster.routed", routed)
            tel.count("cluster.shed", shed)
            tel.count("cluster.crashes", len(crash_times))
            tel.count("cluster.fleet_views", fleet_views)
            tel.count("cluster.routable_rebuilds", routable_rebuilds)
            tel.count("cluster.view_builds",
                      sum(handle.view_builds for handle in handles))

        last_finishes = [max(map(_finish_s, report.requests))
                         if report is not None and report.requests else None
                         for report in reports]
        end_s = max([ordered[-1].arrival_s,
                     *(last for last in last_finishes if last is not None)])
        for handle, last_finish in zip(handles, last_finishes):
            handle.finalize(end_s, last_finish)
        return self._report(ordered, handles, reports, timeline, slo,
                            start_s=start_s, end_s=end_s, events=events,
                            crash_times=crash_times,
                            original_arrival=original_arrival,
                            disrupted=disrupted, shed=shed)

    # ------------------------------------------------------------ internal
    def _clamp(self, target: int) -> int:
        return max(self.min_replicas, min(len(self.replicas), target))

    def _fleet_view(self, now: float, fleet_size: int,
                    active: Sequence[_ReplicaHandle]) -> FleetView:
        # Keep sum(): from Python 3.12 it rounds differently from a running
        # +=, and the report golden pins its rounding.
        loads = [h.view() for h in active]
        outstanding = sum([view.outstanding_requests for view in loads])
        if active:
            utilisation = sum([min(1.0, view.outstanding_requests / view.max_batch)
                               for view in loads]) / len(active)
            pressure = sum([view.kv_pressure for view in loads]) / len(active)
        else:  # reachable mid-outage: crashes can fell the whole fleet
            utilisation = pressure = 0.0
        return FleetView(now_s=now, fleet_size=fleet_size,
                         min_replicas=self.min_replicas,
                         active_count=len(active),
                         ready_count=sum(1 for h in active if h.ready_at <= now),
                         outstanding_requests=outstanding,
                         kv_pressure=pressure, utilisation=utilisation)

    def _rescale(self, handles: list[_ReplicaHandle],
                 active: list[_ReplicaHandle], target: int, now: float,
                 tel: Telemetry | None = None) -> None:
        if target > len(active):
            for handle in handles:
                if len(active) >= target:
                    break
                # A crashed replica cannot be scale-out-activated early: its
                # restart event is what brings it back.
                if not handle.active and handle.down_until is None:
                    handle.activate(now, self.autoscaler.cold_start_s)
                    active.append(handle)
                    if tel is not None and handle.ready_at > now:
                        tel.span(f"replica-{handle.index}", "cold-start",
                                 now, handle.ready_at)
        else:
            # Release the highest-indexed replicas first: replica 0 (and
            # everything below min_replicas) is never drained.
            for handle in sorted(active, key=lambda h: -h.index):
                if len(active) <= target:
                    break
                handle.deactivate(now)
                active.remove(handle)

    def _report(self, ordered: Sequence[Request],
                handles: Sequence[_ReplicaHandle],
                reports: Sequence[ServingReport | None],
                timeline: list[tuple[float, int]], slo: SLO, *,
                start_s: float, end_s: float,
                events: Sequence[FaultEvent] = (),
                crash_times: Sequence[float] = (),
                original_arrival: Mapping[int, float] | None = None,
                disrupted: frozenset[int] | set[int] = frozenset(),
                shed: int = 0) -> ClusterReport:
        completed = rejected = total_tokens = 0
        mxu_energy = total_energy = 0.0
        summaries: list[ReplicaSummary] = []
        for handle, report in zip(handles, reports):
            if report is not None:
                completed += report.completed
                rejected += report.rejected
                total_tokens += report.total_tokens
                mxu_energy += report.mxu_energy_joules
                total_energy += report.total_energy_joules
            busy = report.busy_s if report is not None else 0.0
            # The drain extension in finalize() covers the final scale-in;
            # flooring at busy_s additionally covers work spilling across an
            # intermediate deactivate/reactivate gap, so billed time always
            # contains the executed time.  The per-replica ratio is clamped
            # anyway: utilisation must be provably in [0, 1] even if a
            # future billing change re-opens a busy > provisioned window.
            active_s = max(handle.active_s, busy)
            summaries.append(ReplicaSummary(
                index=handle.index, tpu_name=handle.replica.tpu_config.name,
                scheduler=handle.replica.policy.name, devices=handle.devices,
                active_s=active_s, busy_s=busy,
                utilisation=min(1.0, busy / active_s) if active_s > 0 else 0.0,
                requests_routed=len(handle.subtrace),
                completed=report.completed if report is not None else 0,
                rejected=report.rejected if report is not None else 0,
                total_tokens=report.total_tokens if report is not None else 0,
                tokens_per_second=(report.total_tokens / active_s
                                   if report is not None and active_s > 0
                                   else 0.0),
                mxu_energy_joules=report.mxu_energy_joules if report is not None else 0.0,
                total_energy_joules=report.total_energy_joules if report is not None else 0.0,
                kv_budget_bytes=handle.kv_budget,
                peak_kv_reserved_bytes=(report.peak_kv_reserved_bytes
                                        if report is not None else 0),
                cost_cache_hits=handle.replica.costs.stats.hits,
                cost_cache_misses=handle.replica.costs.stats.misses))

        # The replicas' rows go straight into the tally's sort: a list of
        # them kept beside the tally's tuple raised day-trace's peak memory.
        finished: Iterable[RequestMetrics] = itertools.chain.from_iterable(
            report.requests for report in reports if report is not None)
        original_arrival = original_arrival or {}
        if original_arrival or disrupted:
            # Replays measured drained/delayed requests from their *floored*
            # arrival; the client experienced the original one.  Re-derive
            # the latency fields from it and flag the disrupted streams.
            finished = (
                RequestMetrics.from_times(
                    m.request_id,
                    original_arrival.get(m.request_id, m.arrival_s),
                    m.input_tokens, m.output_tokens, m.first_token_s,
                    m.finish_s, disrupted=m.request_id in disrupted)
                if (m.request_id in original_arrival
                    or m.request_id in disrupted)
                else m
                for m in finished)
        tally = RequestTally.of(finished, slo)
        makespan = end_s - start_s
        per_second = (1.0 / makespan) if makespan > 0 else 0.0
        chip_hours = sum(s.devices * s.active_s for s in summaries) / 3600.0
        dollars = self.cost_model.run_dollars(chip_hours, total_energy)
        downtime = sum(max(0.0, min(up_at, end_s) - down_at)
                       for handle in handles
                       for down_at, up_at in handle.outages)
        resilience = ResilienceSummary.compute(
            tally, fault_count=len(events),
            crash_times=tuple(crash_times), downtime_replica_s=downtime,
            provisioned_replica_s=sum(s.active_s for s in summaries),
            shed=shed, start_s=start_s, end_s=end_s)
        # Restarts scheduled past the last completion keep the full timeline
        # honest but must not skew the makespan-bounded aggregates.
        capped = [entry for entry in timeline if entry[0] <= end_s]
        return ClusterReport(
            model_name=self.replicas[0].model.name,
            router=self.router.name, autoscaler=self.autoscaler.name,
            scheduler=self.replicas[0].policy.name,
            fleet_size=len(handles), min_replicas=self.min_replicas,
            total_devices=sum(h.devices for h in handles),
            num_requests=len(ordered), completed=completed, rejected=rejected,
            makespan_s=makespan, total_tokens=total_tokens,
            tokens_per_second=total_tokens * per_second,
            requests_per_second=completed * per_second,
            ttft=tally.ttft, tpot=tally.tpot, e2e=tally.e2e, slo=slo,
            slo_attainment=(tally.met / len(tally.rows)
                            if tally.rows else 0.0),
            goodput_requests_per_second=tally.met * per_second,
            goodput_tokens_per_second=tally.met_tokens * per_second,
            mxu_energy_joules=mxu_energy, total_energy_joules=total_energy,
            energy_per_token_joules=mxu_energy / total_tokens if total_tokens else 0.0,
            chip_hours=chip_hours, cost_model=self.cost_model,
            cost_per_million_tokens_dollars=(dollars / (total_tokens / 1e6)
                                             if total_tokens else 0.0),
            replica_timeline=tuple(timeline),
            peak_active_replicas=max(count for _, count in capped),
            mean_active_replicas=_time_weighted_mean(capped, end_s),
            replicas=tuple(summaries),
            requests=tally.rows,
            shed=shed,
            resilience=resilience,
            fault_events=tuple(
                dataclasses.replace(event, time_s=start_s + event.time_s)
                for event in events))


def _time_weighted_mean(timeline: Sequence[tuple[float, int]], end_s: float) -> float:
    """Mean active replica count over [first event, end_s]."""
    if len(timeline) == 1 or end_s <= timeline[0][0]:
        return float(timeline[-1][1])
    area = 0.0
    for (t0, count), (t1, _) in zip(timeline, timeline[1:]):
        area += count * (t1 - t0)
    last_t, last_count = timeline[-1]
    area += last_count * (end_s - last_t)
    return area / (end_s - timeline[0][0])


def cluster_report_from_dict(payload: Mapping[str, object]) -> ClusterReport:
    """Rebuild a :class:`ClusterReport` from its ``to_dict`` payload.

    The derived keys (utilisation, cache totals) are properties and
    ignored, and a row-free payload restores no requests; a store-served
    report is bit for bit the computed one.
    """
    return decode(ClusterReport, payload)


def cluster_run_key(model, tpu_config, spec: ServingSpec, settings: object) -> str:
    """Content fingerprint of one :func:`simulate_cluster` run.

    The version string is bumped whenever the report schema, the spec's
    axes, or the fidelity semantics change shape (v2: fault/overlay chaos
    axes + resilience fields; v3: the ``fidelity`` spec axis and the fluid
    estimator), so stores written before a change *miss* instead of
    serving stale or silently fault-blind payloads.
    """
    return fingerprint("cluster-report/v3", tpu_config, model, spec, settings)


def simulate_cluster(model, tpu_config, spec: ServingSpec, settings: object, *,
                     store: "ResultStore | StoreView | None" = None,
                     telemetry: Telemetry | None = None) -> ClusterReport:
    """Run one fleet-shaped :class:`ServingSpec` end to end (the sweep entry).

    Builds ``spec.replicas`` homogeneous replicas (which share step prices
    through :data:`~repro.serving.costs.STEP_PRICES`, so the fleet prices
    each distinct step state at most once), a router and an autoscaler from
    the spec's names, and replays the spec's seeded trace through the
    cluster.

    A persistent :class:`~repro.sweep.store.ResultStore` short-circuits the
    whole run: reports are keyed by :func:`cluster_run_key` and stored
    without per-request rows, so a repeated run — in another process, days
    later — decodes the report instead of replaying the event loop.  This
    is what makes warm ``repro-sim optimize --store`` searches perform
    zero new simulations.
    """
    key = cluster_run_key(model, tpu_config, spec, settings) if store is not None else ""
    if store is not None:
        report = store.load(STORE_KIND, key, cluster_report_from_dict)
        if report is not None:
            # Store-served runs replay nothing: summary-only telemetry,
            # exactly like fluid estimates.
            emit_report_summary(telemetry, "cluster", report, fidelity="stored")
            return report
    if spec.fidelity == "fluid":
        report = _fluid_cluster_report(model, tpu_config, spec, settings)
        emit_report_summary(telemetry, "cluster", report, fidelity="fluid")
        if store is not None:
            store.put(STORE_KIND, key, report.to_dict(include_requests=False))
        return report
    classes = request_classes_from_settings(settings)
    trace = generate_trace(spec.trace, classes, spec.arrival_rate,
                           spec.num_requests, spec.seed,
                           overlay=spec.overlay)
    cluster = ClusterSimulator.for_spec(model, tpu_config, spec, settings)
    report = cluster.run(trace, slo=spec.slo, telemetry=telemetry)
    if store is not None:
        store.put(STORE_KIND, key, report.to_dict(include_requests=False))
    return report


def _fluid_cluster_report(model, tpu_config, spec: ServingSpec,
                          settings: object) -> ClusterReport:
    """Fleet-shaped fluid estimate: R identical replicas, flow split evenly.

    The fluid model has no routing events to replay, so the fleet reduces
    to ``spec.replicas`` independent single-replica estimates at
    ``arrival_rate / replicas`` each (what a balanced router converges to),
    rolled up with the same aggregation the exact cluster performs.  The
    replica count is static — autoscaler dynamics, like scheduler order,
    cannot matter to a flow — and the resilience summary is the clean one
    with goodput-under-failure equal to plain goodput (nothing disrupted).
    """
    from repro.serving.fluid import estimate_serving

    fleet = spec.replicas
    base, extra = divmod(spec.num_requests, fleet)
    # At most two distinct per-replica request counts; estimate each once.
    reports: dict[int, ServingReport] = {}
    counts = [base + (1 if index < extra else 0) for index in range(fleet)]
    for count in sorted(set(counts)):
        if count == 0:
            continue
        replica_spec = dataclasses.replace(
            spec, arrival_rate=spec.arrival_rate / fleet, num_requests=count,
            replicas=1, min_replicas=1)
        reports[count] = estimate_serving(model, tpu_config, replica_spec,
                                          settings)
    per_replica = [reports[count] for count in counts if count > 0]
    makespan = max(report.makespan_s for report in per_replica)
    per_second = (1.0 / makespan) if makespan > 0 else 0.0
    completed = sum(report.completed for report in per_replica)
    total_tokens = sum(report.total_tokens for report in per_replica)
    mxu_energy = sum(report.mxu_energy_joules for report in per_replica)
    total_energy = sum(report.total_energy_joules for report in per_replica)
    met_requests = sum(report.completed * report.slo_attainment
                      for report in per_replica)
    attainment = met_requests / completed if completed else 0.0
    goodput_tokens = sum(
        report.goodput_tokens_per_second * report.makespan_s
        for report in per_replica)
    devices = per_replica[0].devices if per_replica else (spec.devices or 1)
    summaries = tuple(
        ReplicaSummary(
            index=index, tpu_name=tpu_config.name,
            scheduler=report.scheduler, devices=report.devices,
            active_s=makespan, busy_s=report.busy_s,
            utilisation=report.busy_s / makespan if makespan > 0 else 0.0,
            requests_routed=report.num_requests, completed=report.completed,
            rejected=report.rejected, total_tokens=report.total_tokens,
            tokens_per_second=report.tokens_per_second,
            mxu_energy_joules=report.mxu_energy_joules,
            total_energy_joules=report.total_energy_joules,
            kv_budget_bytes=report.kv_budget_bytes,
            peak_kv_reserved_bytes=report.peak_kv_reserved_bytes,
            cost_cache_hits=report.cost_cache_hits,
            cost_cache_misses=report.cost_cache_misses)
        for index, report in enumerate(per_replica))
    cost_model = FleetCostModel()
    chip_hours = sum(s.devices * s.active_s for s in summaries) / 3600.0
    cost = cost_model.run_dollars(chip_hours, total_energy)
    head = per_replica[0] if per_replica else None
    empty = LatencySummary.empty()
    goodput_requests = completed * attainment * per_second
    goodput_tokens_rate = goodput_tokens * per_second if makespan > 0 else 0.0
    return ClusterReport(
        model_name=model.name, router=spec.router, autoscaler=spec.autoscaler,
        scheduler=head.scheduler if head else spec.scheduler,
        fleet_size=fleet, min_replicas=spec.min_replicas,
        total_devices=sum(s.devices for s in summaries) or fleet * devices,
        num_requests=spec.num_requests, completed=completed,
        rejected=sum(report.rejected for report in per_replica),
        makespan_s=makespan, total_tokens=total_tokens,
        tokens_per_second=total_tokens * per_second,
        requests_per_second=completed * per_second,
        ttft=head.ttft if head else empty,
        tpot=head.tpot if head else empty,
        e2e=head.e2e if head else empty,
        slo=spec.slo, slo_attainment=attainment,
        goodput_requests_per_second=goodput_requests,
        goodput_tokens_per_second=goodput_tokens_rate,
        mxu_energy_joules=mxu_energy, total_energy_joules=total_energy,
        energy_per_token_joules=(mxu_energy / total_tokens
                                 if total_tokens else 0.0),
        chip_hours=chip_hours, cost_model=cost_model,
        cost_per_million_tokens_dollars=(cost / (total_tokens / 1e6)
                                         if total_tokens else 0.0),
        replica_timeline=((0.0, fleet),),
        peak_active_replicas=fleet, mean_active_replicas=float(fleet),
        replicas=summaries, requests=(), shed=0,
        resilience=dataclasses.replace(
            ResilienceSummary.clean(),
            goodput_under_failure_requests_per_second=goodput_requests,
            goodput_under_failure_tokens_per_second=goodput_tokens_rate),
        fault_events=())
