"""Declarative objectives and constraints of the co-design search.

An :class:`Objective` names one scalar a fleet run produces (an attribute
of :class:`~repro.optimize.evaluator.CandidateResult`) and the direction
that improves it; the optimizer minimises the induced *score* (maximised
objectives contribute their negation), so Pareto dominance is uniformly
"every score <= , some score <".  Objectives live in
``OBJECTIVE_REGISTRY``, a :class:`~repro.registry.Registry` like every other
registry in the repository — registering a new one makes it addressable
from ``repro-sim optimize --objectives`` with no optimizer changes.

A :class:`Constraint` is a feasibility predicate applied *after* full-trace
scoring: SLO attainment at least a target, a bound on any registered
objective, or plain HBM fit.  Constraints never reorder the frontier; they
only exclude candidates from it.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.optimize.evaluator import CandidateResult


@dataclass(frozen=True)
class Objective:
    """One optimisation axis: a result attribute and its direction."""

    name: str
    #: Attribute of ``CandidateResult`` carrying the raw value.
    attr: str
    #: "min" or "max" — the direction that improves the objective.
    direction: str
    unit: str
    description: str

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(f"objective direction must be 'min' or 'max', "
                             f"got '{self.direction}'")

    def value(self, result: "CandidateResult") -> float:
        """The raw objective value of one evaluated candidate."""
        return float(getattr(result, self.attr))

    def score(self, result: "CandidateResult") -> float:
        """The minimisation score (negated for maximised objectives)."""
        raw = self.value(result)
        return raw if self.direction == "min" else -raw


#: Registered objectives, addressable by name from the CLI and strategies.
OBJECTIVE_REGISTRY: Registry[Objective] = Registry("objective", "objectives")

#: Look up an objective by name (``KeyError`` lists the registered ones).
get_objective = OBJECTIVE_REGISTRY.__getitem__


def register_objective(objective: Objective, overwrite: bool = False) -> None:
    """Add an objective under its name (see :meth:`Registry.add`)."""
    OBJECTIVE_REGISTRY.add(objective.name, objective, overwrite)


register_objective(Objective(
    name="cost-per-million-tokens", attr="cost_per_million_tokens_dollars",
    direction="min", unit="$/Mtok",
    description="fleet dollars (chip-hours + energy) per million generated tokens"))
register_objective(Objective(
    name="p99-ttft", attr="p99_ttft_s", direction="min", unit="s",
    description="99th-percentile time to first token"))
register_objective(Objective(
    name="p99-tpot", attr="p99_tpot_s", direction="min", unit="s",
    description="99th-percentile time per output token"))
register_objective(Objective(
    name="energy-per-token", attr="energy_per_token_joules",
    direction="min", unit="J/tok",
    description="MXU energy per generated token"))
register_objective(Objective(
    name="chip-hours", attr="chip_hours", direction="min", unit="h",
    description="provisioned accelerator-hours of the run"))
register_objective(Objective(
    name="tokens-per-second", attr="tokens_per_second", direction="max",
    unit="tok/s", description="sustained fleet decode throughput"))
register_objective(Objective(
    name="availability", attr="availability", direction="max", unit="",
    description="uptime fraction of provisioned replica-time under faults"))
register_objective(Objective(
    name="recovery-s", attr="recovery_s", direction="min", unit="s",
    description="worst crash-to-SLO-reattainment time (inf = never)"))
register_objective(Objective(
    name="slo-debt", attr="slo_debt_s", direction="min", unit="s",
    description="summed latency debt beyond the SLO targets"))
register_objective(Objective(
    name="goodput-under-failure",
    attr="goodput_under_failure_tokens_per_second", direction="max",
    unit="tok/s",
    description="undisrupted SLO-meeting tokens per second under faults"))


@dataclass(frozen=True)
class Constraint:
    """A feasibility predicate over one evaluated candidate."""

    name: str
    description: str
    #: "slo" for attainment targets, "bound" for objective bounds,
    #: "fit" for HBM feasibility — the optimizer prunes fleets below the
    #: capacity lower bound only when an "slo" constraint is declared.
    kind: str
    satisfied: Callable[["CandidateResult"], bool]


def slo_constraint(target: float) -> Constraint:
    """SLO attainment must reach ``target`` (a fraction in (0, 1])."""
    if not 0 < target <= 1:
        raise ValueError("SLO attainment target must be in (0, 1]")
    return Constraint(
        name=f"slo>={target:g}",
        description=f"SLO attainment >= {target:g}", kind="slo",
        satisfied=lambda result: result.slo_attainment >= target)


def fit_constraint() -> Constraint:
    """The deployment must hold the model (HBM fit)."""
    return Constraint(name="fit", description="model fits the deployment's HBM",
                      kind="fit", satisfied=lambda result: result.feasible)


def bound_constraint(objective_name: str, op: str, limit: float) -> Constraint:
    """A ``<=`` / ``>=`` bound on any registered objective's raw value."""
    objective = get_objective(objective_name)
    if op == "<=":
        satisfied = lambda result: objective.value(result) <= limit  # noqa: E731
    elif op == ">=":
        satisfied = lambda result: objective.value(result) >= limit  # noqa: E731
    else:
        raise ValueError(f"constraint operator must be '<=' or '>=', got '{op}'")
    return Constraint(
        name=f"{objective_name}{op}{limit:g}",
        description=f"{objective.description} {op} {limit:g} {objective.unit}",
        kind="bound", satisfied=satisfied)


_CONSTRAINT_PATTERN = re.compile(r"^\s*([a-z0-9_-]+)\s*(<=|>=)\s*([0-9.eE+-]+)\s*$")


def parse_constraint(text: str) -> Constraint:
    """Parse a CLI-style constraint string.

    Accepted forms: ``fit`` (HBM feasibility), ``slo>=0.95`` (attainment
    target) and ``<objective><=value`` / ``<objective>>=value`` for any
    registered objective, e.g. ``p99-ttft<=0.5``.  Underscores in the
    objective name are treated as dashes, so ``recovery_s<=30`` (the
    result-attribute spelling) means ``recovery-s<=30``.

    Raises
    ------
    ValueError
        On an unparseable string (the error lists the accepted forms).
    KeyError
        On a bound over an unknown objective.
    """
    if text.strip() == "fit":
        return fit_constraint()
    match = _CONSTRAINT_PATTERN.match(text)
    if match:
        name, op, raw_limit = match.groups()
        name = name.replace("_", "-")
        try:
            limit = float(raw_limit)
        except ValueError:
            match = None
        else:
            if name == "slo":
                if op != ">=":
                    raise ValueError("SLO constraints are attainment floors; "
                                     "write 'slo>=<target>'")
                return slo_constraint(limit)
            return bound_constraint(name, op, limit)
    raise ValueError(
        f"cannot parse constraint '{text}'; accepted forms: 'fit', "
        "'slo>=<target>', '<objective><=value', '<objective>>=value'")
