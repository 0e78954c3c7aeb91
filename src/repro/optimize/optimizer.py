"""The co-design optimizer: search the joint space, report the frontier.

:class:`CodesignOptimizer` ties the package together — and the rest of the
repository to it:

1. expand the :class:`~repro.optimize.space.DesignSpace` into candidates;
2. when an SLO-attainment constraint is declared, prune fleets below the
   capacity lower bound (:func:`repro.analysis.capacity.fleet_lower_bound`,
   the same estimate ``plan_fleet`` searches from) without simulating them
   — an undersized fleet cannot meet an attainment floor it cannot even
   sustain throughput for;
3. hand the survivors to the registered search strategy, which prices them
   through :class:`~repro.optimize.evaluator.CandidateEvaluator` (the
   process-wide step-price table, optional persistent store);
4. filter full-fidelity results through the declared constraints and
   reduce them to a :class:`~repro.optimize.pareto.ParetoFrontier` with
   complete provenance.

With a warm :class:`~repro.sweep.store.ResultStore` the whole pipeline is
pure lookup: ``frontier.full_runs + frontier.short_runs == 0`` and the
frontier signature is bit-for-bit the cold run's — the property CI pins.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.optimize.evaluator import CandidateEvaluator, CandidateResult
from repro.optimize.objectives import Constraint, Objective, get_objective
from repro.optimize.pareto import ParetoFrontier, build_frontier
from repro.optimize.search import SearchContext, SearchStrategy, get_search
from repro.optimize.space import DesignSpace
from repro.serving.spec import ServingSpec
from repro.workloads.llm import LLMConfig

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry
    from repro.sweep.store import ResultStore


class CodesignOptimizer:
    """Searches hardware × deployment space for Pareto-optimal designs."""

    def __init__(self, model: LLMConfig, space: DesignSpace,
                 workload: ServingSpec, *,
                 objectives: Sequence[str | Objective] = (
                     "cost-per-million-tokens", "p99-ttft"),
                 constraints: Sequence[Constraint] = (),
                 strategy: str | SearchStrategy = "exhaustive",
                 scenario: str = "chat-serving", input_tokens: int = 1024,
                 output_tokens: int = 512, budget: int | None = None,
                 store: "ResultStore | None" = None,
                 use_capacity_bound: bool = True,
                 telemetry: "Telemetry | None" = None) -> None:
        if not objectives:
            raise ValueError("optimisation needs at least one objective")
        self.space = space
        self.objectives = tuple(
            objective if isinstance(objective, Objective) else get_objective(objective)
            for objective in objectives)
        self.constraints = tuple(constraints)
        self.strategy = (strategy if isinstance(strategy, SearchStrategy)
                         else get_search(strategy))
        self.budget = budget
        self.use_capacity_bound = use_capacity_bound
        #: Optional telemetry sink (wall-time domain): capacity-pruning
        #: events here, promote/prune provenance inside the strategy.
        self.telemetry = telemetry
        self.evaluator = CandidateEvaluator(
            model, workload, scenario=scenario, input_tokens=input_tokens,
            output_tokens=output_tokens,
            designs={name: space.config_for(name) for name in space.designs},
            store=store, telemetry=telemetry)

    # -------------------------------------------------------------------- run
    def run(self) -> ParetoFrontier:
        """Execute the search and return the frozen frontier."""
        candidates = self.space.candidates()
        evaluator = self.evaluator
        tel = self.telemetry
        pruned: list[CandidateResult] = []
        searchable = list(candidates)
        if self.use_capacity_bound and any(c.kind == "slo" for c in self.constraints):
            searchable = []
            for candidate in candidates:
                bound = evaluator.capacity_lower_bound(candidate)
                if candidate.replicas < bound:
                    pruned.append(evaluator.infeasible(
                        candidate,
                        f"below the capacity lower bound of {bound} replicas "
                        f"at {evaluator.workload.arrival_rate:g} req/s"))
                    if tel is not None:
                        tel.wall_event("optimize", "capacity-prune", {
                            "candidate": candidate.summary(), "bound": bound})
                else:
                    searchable.append(candidate)
        if tel is not None:
            tel.count("optimize.capacity_pruned", len(pruned))
        context = SearchContext(
            candidates=tuple(searchable), evaluator=evaluator,
            objectives=self.objectives, seed=evaluator.workload.seed,
            budget=self.budget, telemetry=tel)
        if tel is not None:
            with tel.wall_span("optimize", f"search:{self.strategy.name}",
                               {"candidates": len(searchable)}):
                outcome = self.strategy.run(context)
        else:
            outcome = self.strategy.run(context)
        full = [result for result in outcome
                if result.feasible and result.fidelity == "full"]
        infeasible = [result for result in outcome if not result.feasible]
        admitted = [result for result in full
                    if all(constraint.satisfied(result)
                           for constraint in self.constraints)]
        return build_frontier(
            admitted, self.objectives,
            model_name=evaluator.model.name, strategy=self.strategy.name,
            constraints=tuple(constraint.name for constraint in self.constraints),
            candidates=len(candidates), capacity_pruned=len(pruned),
            infeasible=len(infeasible) + len(pruned),
            constraint_filtered=len(full) - len(admitted),
            # Each searchable candidate yields at most one outcome row, so
            # the difference is exactly the candidates the strategy dropped
            # without a full-fidelity score (short-trace pruning, survivor
            # budget, unsampled).
            strategy_pruned=len(searchable) - len(outcome),
            short_runs=evaluator.short_runs, full_runs=evaluator.full_runs,
            store_served=evaluator.store_served)
