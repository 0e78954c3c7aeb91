"""Per-request and aggregate serving metrics.

The serving simulator's output mirrors what a production inference service
measures: per-request **TTFT** (time to first token), **TPOT** (time per
output token after the first) and end-to-end latency, aggregated into
percentile summaries, **goodput** under a latency SLO (the rate of requests
that met *both* the TTFT and TPOT targets), device utilisation and energy
per generated token.  Everything is a frozen dataclass encoded and decoded
by :mod:`repro.codec`, so reports and per-request rows export through the
generic encoders in :mod:`repro.sweep.export` exactly like sweep rows do.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.codec import encode


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Deterministic and dependency-free (no numpy): sorts the values and
    interpolates between the two straddling order statistics, matching
    numpy's default ("linear") definition.

    Raises
    ------
    ValueError
        If ``values`` is empty or ``q`` is outside [0, 100].
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _percentile_sorted(sorted(values), q)


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` on an already-sorted non-empty sequence."""
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * (q / 100.0)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass(frozen=True)
class SLO:
    """A latency service-level objective on serving requests.

    A completed request *meets* the SLO when its TTFT and its TPOT are both
    within the targets — the standard way LLM serving papers define goodput.
    """

    ttft_s: float = 1.0
    tpot_s: float = 0.1

    def __post_init__(self) -> None:
        if self.ttft_s <= 0 or self.tpot_s <= 0:
            raise ValueError("SLO targets must be positive")

    def summary(self) -> str:
        """Human-readable SLO summary used in tables and exports."""
        return f"ttft<={self.ttft_s * 1e3:.0f}ms tpot<={self.tpot_s * 1e3:.0f}ms"


@dataclass(frozen=True)
class RequestMetrics:
    """Measured timeline of one completed request."""

    request_id: int
    arrival_s: float
    input_tokens: int
    output_tokens: int
    first_token_s: float
    finish_s: float
    ttft_s: float
    tpot_s: float
    e2e_s: float
    #: Whether the request was drained off a crashed replica and re-routed
    #: mid-flight (its client stream broke); latencies are still measured
    #: from the original arrival, so the disruption shows up as real delay.
    disrupted: bool = False

    def __post_init__(self) -> None:
        if self.first_token_s < self.arrival_s or self.finish_s < self.first_token_s:
            raise ValueError("request timeline must be ordered "
                             "(arrival <= first token <= finish)")

    @classmethod
    def from_times(cls, request_id: int, arrival_s: float, input_tokens: int,
                   output_tokens: int, first_token_s: float,
                   finish_s: float, disrupted: bool = False) -> "RequestMetrics":
        """Derive TTFT/TPOT/e2e from the raw event times.

        TPOT averages the decode steps *after* the first token; a
        single-token request has no decode steps and reports a TPOT of zero.
        """
        decode_tokens = output_tokens - 1
        tpot = (finish_s - first_token_s) / decode_tokens if decode_tokens > 0 else 0.0
        return cls(request_id=request_id, arrival_s=arrival_s,
                   input_tokens=input_tokens, output_tokens=output_tokens,
                   first_token_s=first_token_s, finish_s=finish_s,
                   ttft_s=first_token_s - arrival_s, tpot_s=tpot,
                   e2e_s=finish_s - arrival_s, disrupted=disrupted)

    def meets(self, slo: SLO) -> bool:
        """Whether the request met both targets of the SLO."""
        return self.ttft_s <= slo.ttft_s and self.tpot_s <= slo.tpot_s


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of one latency distribution (seconds)."""

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarise a non-empty sequence of latencies.

        Sorts once and interpolates the three percentiles off the sorted
        copy (the exact arithmetic of :func:`percentile`), so summarising a
        250k-request run costs one sort instead of three.
        """
        ordered = sorted(values)
        return cls(mean_s=sum(values) / len(values),
                   p50_s=_percentile_sorted(ordered, 50.0),
                   p95_s=_percentile_sorted(ordered, 95.0),
                   p99_s=_percentile_sorted(ordered, 99.0),
                   max_s=ordered[-1])

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The all-zero summary used when no request completed."""
        return cls(mean_s=0.0, p50_s=0.0, p95_s=0.0, p99_s=0.0, max_s=0.0)


def slo_debt_s(request: RequestMetrics, slo: SLO) -> float:
    """Latency debt of one request beyond the SLO targets, in seconds.

    The TTFT overshoot plus the per-token TPOT overshoot summed over the
    decode steps — zero for a request that met the SLO, and a *graded*
    penalty (unlike the binary ``meets``) for one that missed it.
    """
    decode_tokens = max(0, request.output_tokens - 1)
    return (max(0.0, request.ttft_s - slo.ttft_s)
            + decode_tokens * max(0.0, request.tpot_s - slo.tpot_s))


_request_id = attrgetter("request_id")


@dataclass(frozen=True)
class RequestTally:
    """Every aggregate a fleet report takes from its completed rows.

    :meth:`of` sorts the rows by request id once and walks them once: one
    ``meets`` per row, and :func:`slo_debt_s` only for the rows that missed
    (a row that met the SLO owes exactly ``0.0``).  The fleet report and
    :meth:`ResilienceSummary.compute` both read the one tally.
    """

    #: The completed rows in request-id order, and the SLO they are judged by.
    rows: tuple[RequestMetrics, ...]
    slo: SLO
    ttft: LatencySummary
    tpot: LatencySummary
    e2e: LatencySummary
    #: Rows that met the SLO, and their output tokens.
    met: int
    met_tokens: int
    #: Rows that met the SLO and were not disrupted, and their output tokens.
    healthy: int
    healthy_tokens: int
    disrupted: int
    #: Summed latency debt beyond the SLO targets: the integer ``0`` when no
    #: row completed, as ``sum()`` over no rows gives.
    slo_debt_s: float

    @classmethod
    def of(cls, rows: Iterable[RequestMetrics], slo: SLO) -> "RequestTally":
        """Sort and tally the rows in one pass."""
        ordered = tuple(sorted(rows, key=_request_id))
        ttfts: list[float] = []
        tpots: list[float] = []
        e2es: list[float] = []
        debts: list[float] = []
        met = met_tokens = healthy = healthy_tokens = disrupted = 0
        for row in ordered:
            ttfts.append(row.ttft_s)
            tpots.append(row.tpot_s)
            e2es.append(row.e2e_s)
            if row.disrupted:
                disrupted += 1
            if row.meets(slo):
                met += 1
                met_tokens += row.output_tokens
                if not row.disrupted:
                    healthy += 1
                    healthy_tokens += row.output_tokens
            else:
                debts.append(slo_debt_s(row, slo))
        empty = LatencySummary.empty()
        return cls(
            rows=ordered, slo=slo,
            ttft=LatencySummary.from_values(ttfts) if ordered else empty,
            tpot=LatencySummary.from_values(tpots) if ordered else empty,
            e2e=LatencySummary.from_values(e2es) if ordered else empty,
            met=met, met_tokens=met_tokens, healthy=healthy,
            healthy_tokens=healthy_tokens, disrupted=disrupted,
            # sum() over a list in request-id order, never a running +=:
            # from Python 3.12 sum() is compensated and rounds differently.
            # The 0.0 terms of the rows that met move neither sum, so they
            # are left out; the start keeps 0.0 for rows that all met.
            slo_debt_s=sum(debts, 0.0 if ordered else 0))


@dataclass(frozen=True)
class ResilienceSummary:
    """Resilience outcomes of one fleet run under injected faults.

    All fields are exact functions of the run's per-request metrics and
    fault/outage bookkeeping, so a summary decoded from the result store is
    bit-for-bit the computed one.  ``recovery_s`` is ``0.0`` when no crash
    occurred and ``inf`` when attainment never re-reached the target after
    some crash — the value a ``recovery_s<=30`` constraint correctly fails.
    """

    #: Fault events injected into the run / the crashes among them that
    #: actually felled an active replica.
    fault_count: int
    crash_count: int
    #: Completed requests that were drained off a crashed replica, and
    #: admitted requests no replica could take at all (see the cluster's
    #: conservation contract: completed + rejected + shed == num_requests).
    disrupted_requests: int
    shed_requests: int
    #: Replica-seconds lost to outages, and the resulting uptime fraction
    #: of the provisioned (billed) replica-time: up / (up + down), 1.0 for
    #: a fault-free run, provably <= 1 since both terms are non-negative.
    downtime_replica_s: float
    availability: float
    #: Worst time from a crash to windowed SLO attainment re-reaching the
    #: recovery target (see :meth:`compute`).
    recovery_s: float
    #: Summed latency debt beyond the SLO targets over completed requests.
    slo_debt_s: float
    #: Goodput counting only undisrupted SLO-meeting requests — the work
    #: the fleet delivered *as if healthy* while faults were active.
    goodput_under_failure_requests_per_second: float
    goodput_under_failure_tokens_per_second: float

    @classmethod
    def clean(cls) -> "ResilienceSummary":
        """The no-faults summary (used before any chaos accounting runs)."""
        return cls(fault_count=0, crash_count=0, disrupted_requests=0,
                   shed_requests=0, downtime_replica_s=0.0, availability=1.0,
                   recovery_s=0.0, slo_debt_s=0.0,
                   goodput_under_failure_requests_per_second=0.0,
                   goodput_under_failure_tokens_per_second=0.0)

    @classmethod
    def compute(cls, tally: RequestTally, *,
                fault_count: int, crash_times: Sequence[float],
                downtime_replica_s: float, provisioned_replica_s: float,
                shed: int, start_s: float, end_s: float,
                window_s: float = 5.0,
                recovery_target: float = 0.95) -> "ResilienceSummary":
        """Derive the summary from the completed rows' tally and outage
        bookkeeping.

        Recovery time is measured against the run's windowed SLO
        attainment: completions are bucketed into ``window_s`` windows from
        ``start_s``, and each crash's recovery is the gap from the crash to
        the end of the first later (non-empty) window whose attainment
        reaches ``recovery_target`` — ``inf`` if none does before the run
        ends.  The reported ``recovery_s`` is the worst crash's.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0 < recovery_target <= 1:
            raise ValueError("recovery_target must be in (0, 1]")
        makespan = end_s - start_s
        per_second = (1.0 / makespan) if makespan > 0 else 0.0
        recovery = 0.0
        if crash_times:
            windows: dict[int, list[bool]] = {}
            for metric in tally.rows:
                index = int((metric.finish_s - start_s) // window_s)
                windows.setdefault(index, []).append(metric.meets(tally.slo))
            recovered_ends = sorted(
                start_s + (index + 1) * window_s
                for index, met in windows.items()
                if sum(met) / len(met) >= recovery_target)
            recovery = max(
                (next((end - crash for end in recovered_ends if end > crash),
                      float("inf"))
                 for crash in crash_times))
        return cls(
            fault_count=fault_count, crash_count=len(crash_times),
            disrupted_requests=tally.disrupted,
            shed_requests=shed,
            downtime_replica_s=downtime_replica_s,
            availability=(provisioned_replica_s
                          / (provisioned_replica_s + downtime_replica_s)
                          if provisioned_replica_s + downtime_replica_s > 0
                          else 1.0),
            recovery_s=recovery,
            slo_debt_s=tally.slo_debt_s,
            goodput_under_failure_requests_per_second=tally.healthy * per_second,
            goodput_under_failure_tokens_per_second=(
                tally.healthy_tokens * per_second))


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one simulated serving run."""

    model_name: str
    tpu_name: str
    scheduler: str
    devices: int
    #: Requests in the trace / completed / rejected at admission (a rejected
    #: request's KV cache would exceed the device memory even running alone).
    num_requests: int
    completed: int
    rejected: int
    #: Simulated wall-clock span (first arrival to last completion).
    makespan_s: float
    #: Simulated seconds the device spent executing prefill/decode steps.
    busy_s: float
    total_tokens: int
    tokens_per_second: float
    requests_per_second: float
    ttft: LatencySummary
    tpot: LatencySummary
    e2e: LatencySummary
    slo: SLO
    #: Fraction of completed requests meeting the SLO, and the goodput
    #: (SLO-meeting work per simulated second) it implies.
    slo_attainment: float
    goodput_requests_per_second: float
    goodput_tokens_per_second: float
    mxu_energy_joules: float
    total_energy_joules: float
    energy_per_token_joules: float
    #: Scheduler step counts: prefill batches and decode step events (each
    #: decode event advances every running request by a chunk of tokens).
    prefill_steps: int
    decode_steps: int
    #: KV admission accounting: the budget requests reserve against and the
    #: peak reservation ever committed (never exceeds the budget).
    kv_budget_bytes: int
    peak_kv_reserved_bytes: int
    #: Step-cost cache behaviour: distinct (phase, batch, context-bucket)
    #: states actually priced vs. step-cost lookups served from the memo.
    cost_cache_hits: int
    cost_cache_misses: int
    requests: tuple[RequestMetrics, ...] = ()

    @property
    def utilisation(self) -> float:
        """Fraction of the makespan the device was executing steps."""
        return self.busy_s / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def cost_cache_hit_rate(self) -> float:
        """Fraction of step-cost lookups served from the memo."""
        lookups = self.cost_cache_hits + self.cost_cache_misses
        return self.cost_cache_hits / lookups if lookups else 0.0

    def to_dict(self, include_requests: bool = True) -> dict[str, object]:
        """Plain-dict form (nested summaries inlined) for JSON export."""
        return report_payload(self, include_requests,
                              utilisation=self.utilisation,
                              cost_cache_hit_rate=self.cost_cache_hit_rate)


def report_payload(report, include_requests: bool,
                   **derived: object) -> dict[str, object]:
    """The :func:`~repro.codec.encode` form of a report, derived keys appended.

    ``derived`` keys follow the fields in the order given.  The per-request
    rows take the ``requests`` field's position, or are left out entirely
    when ``include_requests`` is false, so they are never encoded only to
    be dropped.
    """
    rows = ([encode(request) for request in report.requests]
            if include_requests else None)
    payload = encode(report, requests=rows, **derived)
    if rows is None:
        del payload["requests"]
    return payload
