"""Multi-objective hardware/deployment co-design optimisation.

The paper's argument is a co-design argument: which CIM/digital-MXU
configuration wins depends on the workload and how it is deployed.  PRs 1-4
built the machinery to *price* any single point (cached sweeps, scenario
pipeline, serving simulator, cluster fleets); this package *searches* the
joint space — TPU design × precision × scheduler × router × autoscaler ×
replica count — for Pareto-optimal designs under declared objectives
(cost per million tokens, p99 TTFT/TPOT, energy per token, chip-hours)
and constraints (SLO attainment floors, HBM fit).

Typical usage::

    from repro.optimize import CodesignOptimizer, DesignSpace
    from repro.serving import ServingSpec
    from repro.sweep import ResultStore
    from repro.workloads.llm import LLAMA2_7B

    space = DesignSpace(designs=("baseline", "design-a"),
                        replica_counts=(2, 4, 8))
    workload = ServingSpec(arrival_rate=32.0, num_requests=200)
    optimizer = CodesignOptimizer(
        LLAMA2_7B, space, workload, strategy="successive-halving",
        store=ResultStore("codesign.jsonl"))
    frontier = optimizer.run()          # re-running is pure store lookup

Every surface is an open registry (``OBJECTIVE_REGISTRY``,
``SEARCH_REGISTRY``) and the whole pipeline is deterministic: same space,
same seed, same frontier — bit for bit, warm or cold.
"""

from repro.optimize.evaluator import CandidateEvaluator, CandidateResult
from repro.optimize.objectives import (
    OBJECTIVE_REGISTRY,
    Constraint,
    Objective,
    bound_constraint,
    fit_constraint,
    get_objective,
    parse_constraint,
    register_objective,
    slo_constraint,
)
from repro.optimize.optimizer import CodesignOptimizer
from repro.optimize.pareto import (
    ParetoFrontier,
    ParetoPoint,
    build_frontier,
    dominates,
    non_dominated,
)
from repro.optimize.search import (
    SEARCH_REGISTRY,
    SearchContext,
    SearchStrategy,
    get_search,
    register_search,
)
from repro.optimize.space import Candidate, DesignSpace

__all__ = [
    "OBJECTIVE_REGISTRY",
    "SEARCH_REGISTRY",
    "Candidate",
    "CandidateEvaluator",
    "CandidateResult",
    "CodesignOptimizer",
    "Constraint",
    "DesignSpace",
    "Objective",
    "ParetoFrontier",
    "ParetoPoint",
    "SearchContext",
    "SearchStrategy",
    "bound_constraint",
    "build_frontier",
    "dominates",
    "fit_constraint",
    "get_objective",
    "get_search",
    "non_dominated",
    "parse_constraint",
    "register_objective",
    "register_search",
    "slo_constraint",
]
