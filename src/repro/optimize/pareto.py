"""Pareto dominance and the frozen frontier report.

Dominance is the standard multi-objective definition over minimisation
scores (maximised objectives are negated by
:meth:`~repro.optimize.objectives.Objective.score`): ``a`` dominates ``b``
when ``a`` is no worse on every objective and strictly better on at least
one.  Ties — identical score vectors — do not dominate each other, so
equally priced candidates co-exist on the frontier rather than arbitrarily
evicting one another.

:class:`ParetoFrontier` is the search's frozen result: the dominant points
(each with its raw objective values and how many evaluated candidates it
dominates), the per-objective extremes, and full provenance — candidates
considered, pruned, infeasible, short/full simulations run and store hits —
so "where did this frontier come from and what did it cost" is part of the
artefact, not tribal knowledge.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

from repro.codec import decode, encode
from repro.optimize.evaluator import CandidateResult
from repro.optimize.objectives import Objective


def frontier_fieldnames() -> tuple[str, ...]:
    """CSV column order of exported frontier rows (result fields + reach)."""
    return tuple(field.name for field in dataclasses.fields(CandidateResult)
                 ) + ("dominated_count",)


def scores(result: CandidateResult,
           objectives: Sequence[Objective]) -> tuple[float, ...]:
    """The candidate's minimisation-score vector in objective order."""
    return tuple(objective.score(result) for objective in objectives)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether score vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def dominates_with_margin(a: Sequence[float], b: Sequence[float],
                          margin: float) -> bool:
    """Whether ``a`` dominates ``b`` by a relative ``margin`` on every axis.

    Used by multi-fidelity pruning: a candidate measured on a *short* trace
    is only discarded when something beats it comfortably — by at least
    ``margin`` of the value's own magnitude on every objective — so the
    short-vs-full metric drift cannot evict a true frontier point.
    ``margin=0`` reduces to plain :func:`dominates`.
    """
    if margin <= 0:
        return dominates(a, b)
    return all(x <= y - margin * abs(y) for x, y in zip(a, b))


def non_dominated(results: Sequence[CandidateResult],
                  objectives: Sequence[Objective],
                  margin: float = 0.0) -> list[CandidateResult]:
    """The results no other result dominates (input order preserved).

    A positive ``margin`` keeps additionally every result that is only
    *narrowly* dominated (see :func:`dominates_with_margin`) — the
    conservative filter the successive-halving pruning pass uses.
    """
    vectors = [scores(result, objectives) for result in results]
    return [result for result, vector in zip(results, vectors)
            if not any(dominates_with_margin(other, vector, margin)
                       for other in vectors if other is not vector)]


@dataclass(frozen=True)
class ParetoPoint:
    """One dominant design with its raw objective values and reach."""

    result: CandidateResult
    #: Raw objective values (not scores) in the frontier's objective order.
    values: tuple[float, ...]
    #: Evaluated feasible candidates this point dominates — the
    #: "how much of the space does this design beat" provenance figure.
    dominated_count: int

    def to_dict(self) -> dict[str, object]:
        """Flat wire and CSV row: the result's fields plus ``dominated_count``."""
        return encode(self.result, dominated_count=self.dominated_count)


@dataclass(frozen=True)
class ParetoFrontier:
    """Frozen outcome of one co-design search."""

    model_name: str
    strategy: str
    #: Objective names, in the order `values` tuples follow.
    objectives: tuple[str, ...]
    constraints: tuple[str, ...]
    points: tuple[ParetoPoint, ...]
    #: (objective name, cache_key of the point achieving its best value).
    extremes: tuple[tuple[str, str], ...]
    #: Provenance: the whole space, and what happened to it.  The buckets
    #: partition the space exactly: ``candidates == len(points) + dominated
    #: + constraint_filtered + infeasible + strategy_pruned``.
    candidates: int
    capacity_pruned: int
    infeasible: int
    constraint_filtered: int
    dominated: int
    #: Candidates the search strategy discarded without a full-fidelity
    #: score: pruned on the cheap short trace, cut by the survivor budget,
    #: or simply never sampled.
    strategy_pruned: int
    short_runs: int
    full_runs: int
    store_served: int

    def __len__(self) -> int:
        return len(self.points)

    def signature(self) -> tuple[tuple[str, tuple[float, ...]], ...]:
        """A comparable identity: (cache_key, raw values) per point, sorted.

        Two searches found *the same frontier* exactly when their
        signatures are equal — the form the golden equivalence tests and
        the warm-store bit-for-bit assertions compare.
        """
        return tuple(sorted((point.result.cache_key, point.values)
                            for point in self.points))

    def rows(self) -> list[ParetoPoint]:
        """The frontier as export rows (for the generic JSON/CSV encoders)."""
        return list(self.points)

    def to_dict(self) -> dict[str, object]:
        """The codec payload, points in their flat export shape."""
        return encode(self, points=[point.to_dict() for point in self.points])


def frontier_from_dict(payload: dict) -> ParetoFrontier:
    """Rebuild a :class:`ParetoFrontier` from its ``to_dict`` payload.

    :func:`repro.codec.decode`, except for the flat point rows: each one
    decodes to its :class:`CandidateResult` (``dominated_count`` aside),
    and its raw ``values`` are recomputed through the named objectives —
    the same ``Objective.value`` calls that produced them, hence exact.
    """
    from repro.optimize.objectives import get_objective

    objectives = [get_objective(name) for name in payload["objectives"]]
    points = []
    for row in payload["points"]:
        result = decode(CandidateResult, row)
        points.append(ParetoPoint(
            result=result,
            values=tuple(objective.value(result) for objective in objectives),
            dominated_count=row["dominated_count"]))
    frontier = decode(ParetoFrontier, {**payload, "points": []})
    return dataclasses.replace(frontier, points=tuple(points))


def build_frontier(results: Sequence[CandidateResult],
                   objectives: Sequence[Objective], *, model_name: str,
                   strategy: str, constraints: Sequence[str] = (),
                   candidates: int = 0, capacity_pruned: int = 0,
                   infeasible: int = 0, constraint_filtered: int = 0,
                   strategy_pruned: int = 0, short_runs: int = 0,
                   full_runs: int = 0, store_served: int = 0) -> ParetoFrontier:
    """Reduce full-fidelity feasible results to their Pareto frontier.

    Points are ordered by their first-objective score (ties by cache key),
    so frontier tables read best-first on the primary objective and the
    ordering is deterministic across runs and processes.
    """
    vectors = {result.cache_key: scores(result, objectives) for result in results}
    frontier = non_dominated(list(results), objectives)
    points = []
    for result in frontier:
        vector = vectors[result.cache_key]
        dominated_count = sum(
            1 for other in results
            if other is not result and dominates(vector, vectors[other.cache_key]))
        points.append(ParetoPoint(
            result=result,
            values=tuple(objective.value(result) for objective in objectives),
            dominated_count=dominated_count))
    points.sort(key=lambda point: (vectors[point.result.cache_key],
                                   point.result.cache_key))
    extremes = []
    if points:
        for objective in objectives:
            best = min(points,
                       key=lambda point, score=objective.score:
                       (score(point.result), point.result.cache_key))
            extremes.append((objective.name, best.result.cache_key))
    return ParetoFrontier(
        model_name=model_name, strategy=strategy,
        objectives=tuple(objective.name for objective in objectives),
        constraints=tuple(constraints), points=tuple(points),
        extremes=tuple(extremes), candidates=candidates,
        capacity_pruned=capacity_pruned, infeasible=infeasible,
        constraint_filtered=constraint_filtered,
        dominated=max(0, len(results) - len(points)),
        strategy_pruned=strategy_pruned, short_runs=short_runs,
        full_runs=full_runs, store_served=store_served)
