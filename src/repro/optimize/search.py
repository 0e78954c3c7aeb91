"""Search strategies over the co-design space, in an open registry.

Every strategy maps a :class:`SearchContext` — the candidate list, the
evaluator that prices them and the objectives that order them — to the set
of **full-fidelity** results the frontier is built from.  Three ship
built-in:

* ``exhaustive`` — price every candidate on the full trace via the shared
  caches; the ground truth the cheaper strategies are judged against.
* ``random`` — a seeded uniform sample of ``budget`` candidates at full
  fidelity; the classic cheap baseline for large spaces.
* ``successive-halving`` — price *everything* with the closed-form fluid
  estimator first (chaos searches fall back to short exact traces of
  ``num_requests // SHORT_FRACTION`` — flows cannot replay fault
  timelines), prune the candidates that are Pareto-dominated at that cheap
  fidelity under a tie-guarding margin (fluid error is a correlated model
  bias, so ranks are trustworthy even where absolute values drift), and
  re-score only the survivors on the full exact trace.
  Dominated fleets reveal themselves cheaply (an overloaded fleet is
  overloaded in the fluid limit too), so the strategy runs strictly fewer
  full-trace simulations than exhaustive search while recovering the same
  frontier on well-behaved spaces — the multi-fidelity idea behind
  successive halving / Hyperband, applied to Pareto dominance instead of a
  scalar loss.

Strategies are plain frozen dataclasses in ``SEARCH_REGISTRY`` (a
:class:`~repro.registry.Registry`); registering a new one (Bayesian,
evolutionary, ...) makes it addressable from ``repro-sim optimize
--strategy`` without touching the optimizer.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.optimize.evaluator import CandidateEvaluator, CandidateResult
from repro.optimize.objectives import Objective
from repro.optimize.pareto import non_dominated
from repro.optimize.space import Candidate
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry


#: Short-trace divisor of multi-fidelity strategies.
SHORT_FRACTION = 4
#: Floor on short-trace length (percentiles need a few requests).
MIN_SHORT_REQUESTS = 20
#: Relative dominance margin of the cheap pruning pass: a candidate is
#: only pruned when something beats it by this fraction on *every*
#: objective, so short-vs-full metric drift cannot evict a true
#: frontier point (see :func:`repro.optimize.pareto.dominates_with_margin`).
PRUNE_MARGIN = 0.15
#: Dominance margin of fluid-screened pruning.  Much *narrower* than
#: the short-trace margin: the estimator's absolute error (golden
#: bounds in tests/test_serving_fluid.py) is a correlated model bias —
#: every candidate is priced by the same closed form — so relative
#: ordering is far more reliable than absolute values, and the margin
#: only needs to guard near-ties against rank inversion.
FLUID_MARGIN = 0.01


@dataclass
class SearchContext:
    """Everything a strategy needs to run one search."""

    candidates: Sequence[Candidate]
    evaluator: CandidateEvaluator
    objectives: Sequence[Objective]
    #: Seed of any strategy-internal randomness (sampling); evaluation
    #: itself is deterministic regardless.
    seed: int = 0
    #: Full-fidelity evaluation budget (``None`` = unlimited).  Exhaustive
    #: search ignores it; random sampling treats it as the sample size;
    #: successive halving caps the survivors it re-scores.
    budget: int | None = None
    #: Optional telemetry sink.  Multi-fidelity strategies emit one
    #: ``promote``/``prune`` event per candidate on the ``optimize`` track
    #: (wall time), carrying the margin and cheap-pass fidelity that
    #: justified the decision — the provenance trail of every frontier.
    telemetry: "Telemetry | None" = None


@dataclass(frozen=True)
class SearchStrategy:
    """One registered search discipline."""

    name: str
    description: str
    run: Callable[[SearchContext], tuple[CandidateResult, ...]]


#: Registered search strategies, addressable by name.
SEARCH_REGISTRY: Registry[SearchStrategy] = Registry("search strategy", "strategies")

#: Look up a search strategy by name (``KeyError`` lists the registered ones).
get_search = SEARCH_REGISTRY.__getitem__


def register_search(strategy: SearchStrategy, overwrite: bool = False) -> None:
    """Add a search strategy under its name (see :meth:`Registry.add`)."""
    SEARCH_REGISTRY.add(strategy.name, strategy, overwrite)


def _exhaustive(context: SearchContext) -> tuple[CandidateResult, ...]:
    """Price every candidate at full fidelity."""
    return tuple(context.evaluator.evaluate(candidate)
                 for candidate in context.candidates)


def _random_sample(context: SearchContext) -> tuple[CandidateResult, ...]:
    """Price a seeded uniform sample of ``budget`` candidates.

    With no budget the sample is the whole space (random search degenerates
    to exhaustive) — "unlimited" must mean what the CLI says it means, not
    a silent arbitrary cap.
    """
    candidates = list(context.candidates)
    if not candidates:  # everything capacity-pruned: nothing to sample
        return ()
    budget = context.budget if context.budget is not None else len(candidates)
    if context.budget is not None and context.budget <= 0:
        raise ValueError("random search needs a positive budget")
    if budget < len(candidates):
        rng = random.Random(context.seed)
        candidates = rng.sample(candidates, budget)
    return tuple(context.evaluator.evaluate(candidate)
                 for candidate in candidates)


def _successive_halving(context: SearchContext) -> tuple[CandidateResult, ...]:
    """Prune dominated candidates cheaply, re-score the survivors exactly.

    The screening pass prices every candidate with the closed-form fluid
    estimator (full trace length — fluid cost does not depend on it) and
    prunes with the narrower ``FLUID_MARGIN``.  Chaos searches fall back to
    short exact traces: fault timelines and arrival-drift overlays act on
    the event loop, which a flow cannot replay.

    Infeasible candidates (HBM misfits) are discovered on the cheap pass
    and never re-scored — the deployment does not fit at any fidelity.
    """
    evaluator = context.evaluator
    workload = evaluator.workload
    use_fluid = not workload.faults and workload.overlay is None
    if use_fluid:
        cheap = [evaluator.evaluate(candidate, fluid=True)
                 for candidate in context.candidates]
        margin = FLUID_MARGIN
    else:
        short_n = max(MIN_SHORT_REQUESTS,
                      workload.num_requests // SHORT_FRACTION)
        if short_n >= workload.num_requests:
            # The real trace is already as cheap as the pruning pass.
            return _exhaustive(context)
        cheap = [evaluator.evaluate(candidate, num_requests=short_n)
                 for candidate in context.candidates]
        margin = PRUNE_MARGIN
    feasible = [result for result in cheap if result.feasible]
    infeasible = tuple(result for result in cheap if not result.feasible)
    survivors = non_dominated(feasible, context.objectives, margin=margin)
    if context.budget is not None and context.budget < len(survivors):
        ordered = sorted(
            survivors,
            key=lambda result: (context.objectives[0].score(result),
                                result.cache_key))
        survivors = ordered[:context.budget]
    tel = context.telemetry
    if tel is not None:
        fidelity = "fluid" if use_fluid else "short"
        promoted = {result.cache_key for result in survivors}
        for result in feasible:
            verdict = "promote" if result.cache_key in promoted else "prune"
            tel.wall_event("optimize", verdict, {
                "candidate": result.candidate.summary(),
                "fidelity": fidelity, "margin": margin})
        for result in infeasible:
            tel.wall_event("optimize", "infeasible", {
                "candidate": result.candidate.summary(),
                "fidelity": fidelity, "reason": result.infeasibility})
    full = tuple(evaluator.evaluate(result.candidate) for result in survivors)
    return full + infeasible


register_search(SearchStrategy(
    name="exhaustive",
    description="price every candidate on the full trace (via SweepEngine-"
                "grade caching); the ground-truth frontier",
    run=_exhaustive))
register_search(SearchStrategy(
    name="random",
    description="seeded uniform sample of `budget` candidates at full fidelity",
    run=_random_sample))
register_search(SearchStrategy(
    name="successive-halving",
    description="prune Pareto-dominated candidates on cheap short traces, "
                "re-score only the survivors on the full trace",
    run=_successive_halving))
