"""Pricing one co-design candidate: fleet simulation behind the caches.

:class:`CandidateEvaluator` turns a :class:`~repro.optimize.space.Candidate`
into a flat, CSV-exportable :class:`CandidateResult` by replaying the
workload's seeded trace through :func:`~repro.serving.cluster.simulate_cluster`
— every candidate, single-replica ones included, runs the cluster path so
all of them report the same fleet economics (chip-hours, cost per million
tokens) under one price sheet.

Three cache layers make searches cheap, and the evaluator counts exactly
what crossed each:

* the process-wide step-price table
  (:data:`repro.serving.costs.STEP_PRICES`) — every candidate, replica and
  capacity probe on a (design, precision) shares its priced step states,
  so a repeated search prices no graph at all;
* the optional persistent :class:`~repro.sweep.store.ResultStore`, honoured
  inside ``simulate_cluster``: a warm store serves whole fleet reports, so
  ``simulations`` stays 0 on repeated/resumed searches;
* the capacity lower bound from
  :func:`repro.analysis.capacity.fleet_lower_bound` (memoised per design ×
  precision × scheduler × max_batch), which lets the optimizer mark
  hopelessly undersized fleets infeasible without simulating them.

Candidates whose deployment cannot hold the model at all (no KV budget
after weights) come back ``feasible=False`` with the engine's explanation
instead of raising — an infeasible corner of the space is a search fact,
not an error.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.capacity import fleet_lower_bound
from repro.common import Precision
from repro.core.config import TPUConfig
from repro.core.designs import PREDEFINED_DESIGNS
from repro.optimize.space import Candidate
from repro.serving.cluster import cluster_run_key, simulate_cluster
from repro.serving.spec import ServingSpec
from repro.serving.trace import request_classes_from_settings
from repro.sweep.store import StoreView
from repro.workloads.llm import LLMConfig
from repro.workloads.registry import get_scenario
from repro.workloads.scenario import ScenarioKnobs

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry
    from repro.sweep.store import ResultStore


@dataclass(frozen=True)
class CandidateResult:
    """Flat outcome row of one priced candidate (CSV-exportable)."""

    design: str
    model: str
    precision: str
    scheduler: str
    router: str
    autoscaler: str
    replicas: int
    max_batch: int
    arrival_rate: float
    #: Trace length the metrics were measured on; ``fidelity`` is "full"
    #: for the search's real trace and "short" for pruning-pass traces.
    num_requests: int
    fidelity: str
    feasible: bool
    #: Why the candidate cannot be served ("" when feasible).
    infeasibility: str
    total_devices: int
    completed: int
    rejected: int
    slo_attainment: float
    p99_ttft_s: float
    p99_tpot_s: float
    tokens_per_second: float
    energy_per_token_joules: float
    chip_hours: float
    cost_per_million_tokens_dollars: float
    utilisation: float
    cache_key: str
    #: Resilience outcomes under the evaluator's (possibly empty) chaos
    #: scenario — trivial for fault-free searches, load-bearing for the
    #: resilience objectives/constraints (recovery-s, availability, ...).
    availability: float = 1.0
    recovery_s: float = 0.0
    slo_debt_s: float = 0.0
    goodput_under_failure_tokens_per_second: float = 0.0
    disrupted_requests: int = 0

    @property
    def candidate(self) -> Candidate:
        """The candidate this row priced (for re-scoring at full fidelity)."""
        return Candidate(design=self.design, precision=self.precision,
                         scheduler=self.scheduler, router=self.router,
                         autoscaler=self.autoscaler, replicas=self.replicas,
                         max_batch=self.max_batch)


class CandidateEvaluator:
    """Prices candidates for the search strategies, counting every run."""

    def __init__(self, model: LLMConfig, workload: ServingSpec, *,
                 scenario: str = "chat-serving", input_tokens: int = 1024,
                 output_tokens: int = 512,
                 designs: Mapping[str, TPUConfig] | None = None,
                 store: "ResultStore | StoreView | None" = None,
                 telemetry: "Telemetry | None" = None) -> None:
        if not isinstance(model, LLMConfig):
            raise ValueError("co-design optimisation prices serving fleets; "
                             f"'{getattr(model, 'name', model)}' is not an LLM")
        spec = get_scenario(scenario)
        if not spec.supports(model):
            raise ValueError(f"scenario '{scenario}' does not support "
                             f"model '{model.name}'")
        self.model = model
        #: The serving workload every candidate deploys on, chaos included
        #: (:meth:`Candidate.serving_spec`).
        self.workload = workload
        self.scenario = spec
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens
        self.designs = dict(designs) if designs is not None else dict(PREDEFINED_DESIGNS)
        self.store = store
        #: Optional telemetry sink (wall-time domain): one span per
        #: candidate evaluation, labelled with fidelity and whether the
        #: persistent store answered it for free.
        self.telemetry = telemetry
        self._settings: dict[str, object] = {}
        self._capacity_bounds: dict[tuple[str, str, str, int], int] = {}
        #: Fleet simulations actually executed at each fidelity, and runs
        #: served whole from the persistent store.
        self.full_runs = 0
        self.short_runs = 0
        self.store_served = 0

    @property
    def simulations(self) -> int:
        """Fleet simulations actually executed (all fidelities)."""
        return self.full_runs + self.short_runs

    # ---------------------------------------------------------------- helpers
    def config_for(self, design: str) -> TPUConfig:
        """The chip configuration of a design name.

        Raises
        ------
        KeyError
            If the design is unknown; the error lists the known names.
        """
        try:
            return self.designs[design]
        except KeyError:
            known = ", ".join(sorted(self.designs))
            raise KeyError(f"unknown design '{design}'; known designs: {known}") from None

    def settings_for(self, precision: str) -> object:
        """The scenario settings at one precision (memoised)."""
        settings = self._settings.get(precision)
        if settings is None:
            settings = self.scenario.make_settings(ScenarioKnobs(
                batch=1, precision=Precision(precision),
                input_tokens=self.input_tokens, output_tokens=self.output_tokens))
            self._settings[precision] = settings
        return settings

    def capacity_lower_bound(self, candidate: Candidate) -> int:
        """Replica-count lower bound of the candidate's design/deployment.

        Memoised per (design, precision, scheduler, max_batch) — the axes
        the estimate depends on; its step prices come from the shared
        step-price table, so probing the bound prices at most a few step
        states per distinct deployment shape.
        """
        key = (candidate.design, candidate.precision, candidate.scheduler,
               candidate.max_batch)
        bound = self._capacity_bounds.get(key)
        if bound is None:
            settings = self.settings_for(candidate.precision)
            bound = fleet_lower_bound(
                self.model, self.config_for(candidate.design),
                arrival_rate=self.workload.arrival_rate,
                request_classes=request_classes_from_settings(settings),
                scheduler=candidate.scheduler, max_batch=candidate.max_batch,
                precision=Precision(candidate.precision))
            self._capacity_bounds[key] = bound
        return bound

    # --------------------------------------------------------------- evaluate
    def evaluate(self, candidate: Candidate,
                 num_requests: int | None = None, *,
                 fluid: bool = False) -> CandidateResult:
        """Price one candidate on the search trace (or a cheaper pass).

        ``num_requests`` overrides the trace length for cheap pruning
        passes; ``fluid`` screens with the closed-form estimator instead
        (full trace length — fluid cost is independent of it).  The
        fidelity label and the content fingerprint both carry the choice,
        so screening and full-trace runs never share store entries.
        """
        workload = self.workload
        n = num_requests if num_requests is not None else workload.num_requests
        fidelity = ("fluid" if fluid
                    else "full" if n == workload.num_requests else "short")
        tel = self.telemetry
        started = tel.wall_now() if tel is not None else 0.0
        config = self.config_for(candidate.design)
        settings = self.settings_for(candidate.precision)
        spec = dataclasses.replace(candidate.serving_spec(workload),
                                   num_requests=n,
                                   fidelity="fluid" if fluid else "exact")
        key = cluster_run_key(self.model, config, spec, settings)
        store = StoreView(self.store) if self.store is not None else None
        try:
            report = simulate_cluster(self.model, config, spec, settings,
                                      store=store)
        except ValueError as error:
            if tel is not None:
                tel.span("optimize", f"evaluate:{fidelity}", started,
                         tel.wall_now(), {"candidate": candidate.summary(),
                                          "feasible": False})
            return self.infeasible(candidate, str(error), fidelity=fidelity,
                                   num_requests=n, cache_key=key)
        store_hit = store is not None and store.stats.hits > 0
        if store_hit:
            self.store_served += 1
        elif fidelity == "full":
            self.full_runs += 1
        else:
            # Short traces and fluid estimates are both cheap screening
            # passes; they share the counter the zero-simulation gates read.
            self.short_runs += 1
        if tel is not None:
            # Wall-domain span with explicit stamps (not wall_span: the
            # args carry the outcome, known only after the run).
            tel.span("optimize", f"evaluate:{fidelity}", started,
                     tel.wall_now(), {"candidate": candidate.summary(),
                                      "store_hit": store_hit})
        return CandidateResult(
            design=candidate.design, model=self.model.name,
            precision=candidate.precision, scheduler=candidate.scheduler,
            router=candidate.router, autoscaler=candidate.autoscaler,
            replicas=candidate.replicas, max_batch=candidate.max_batch,
            arrival_rate=workload.arrival_rate, num_requests=n, fidelity=fidelity,
            feasible=True, infeasibility="",
            total_devices=report.total_devices, completed=report.completed,
            rejected=report.rejected, slo_attainment=report.slo_attainment,
            p99_ttft_s=report.ttft.p99_s, p99_tpot_s=report.tpot.p99_s,
            tokens_per_second=report.tokens_per_second,
            energy_per_token_joules=report.energy_per_token_joules,
            chip_hours=report.chip_hours,
            cost_per_million_tokens_dollars=report.cost_per_million_tokens_dollars,
            utilisation=report.utilisation,
            availability=report.resilience.availability,
            recovery_s=report.resilience.recovery_s,
            slo_debt_s=report.resilience.slo_debt_s,
            goodput_under_failure_tokens_per_second=(
                report.resilience.goodput_under_failure_tokens_per_second),
            disrupted_requests=report.resilience.disrupted_requests,
            cache_key=key)

    def infeasible(self, candidate: Candidate, reason: str, *,
                   fidelity: str = "full", num_requests: int | None = None,
                   cache_key: str = "") -> CandidateResult:
        """An unpriceable candidate's row (HBM misfit, capacity shortfall)."""
        return CandidateResult(
            design=candidate.design, model=self.model.name,
            precision=candidate.precision, scheduler=candidate.scheduler,
            router=candidate.router, autoscaler=candidate.autoscaler,
            replicas=candidate.replicas, max_batch=candidate.max_batch,
            arrival_rate=self.workload.arrival_rate,
            num_requests=num_requests if num_requests is not None else self.workload.num_requests,
            fidelity=fidelity, feasible=False, infeasibility=reason,
            total_devices=0, completed=0, rejected=0, slo_attainment=0.0,
            p99_ttft_s=0.0, p99_tpot_s=0.0, tokens_per_second=0.0,
            energy_per_token_joules=0.0, chip_hours=0.0,
            cost_per_million_tokens_dollars=0.0, utilisation=0.0,
            # An unserveable fleet recovers never and delivers nothing:
            # resilience constraints must fail it, not wave it through.
            availability=0.0, recovery_s=float("inf"), slo_debt_s=0.0,
            goodput_under_failure_tokens_per_second=0.0,
            disrupted_requests=0, cache_key=cache_key)
