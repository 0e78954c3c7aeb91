"""The joint hardware × deployment design space the optimizer searches.

A :class:`Candidate` is one fully specified co-design: a TPU design point,
a numeric precision, and the deployment that serves the workload on it —
batching policy, routing policy, autoscaling policy, replica count and the
continuous-batching slot limit.  A :class:`DesignSpace` is the cartesian
product of per-axis choices, expanded in a deterministic order so searches
are reproducible run to run.

The axes deliberately mirror the existing registries (designs, schedulers,
routers, autoscalers): anything registered becomes searchable without
touching the optimizer, the same openness contract as everywhere else in
the repository.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

from repro.common import Precision
from repro.core.config import TPUConfig
from repro.core.designs import PREDEFINED_DESIGNS
from repro.serving.autoscaler import get_autoscaler
from repro.serving.router import get_router
from repro.serving.scheduler import get_scheduler
from repro.serving.spec import ServingSpec


@dataclass(frozen=True)
class Candidate:
    """One (hardware × precision × deployment) co-design point."""

    design: str
    precision: str = "int8"
    scheduler: str = "fcfs"
    router: str = "round-robin"
    autoscaler: str = "fixed"
    replicas: int = 1
    max_batch: int = 32

    def __post_init__(self) -> None:
        if not self.design:
            raise ValueError("candidate needs a design name")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        Precision(self.precision)  # raises ValueError on unknown precisions

    def summary(self) -> str:
        """Human-readable candidate label used in tables and logs."""
        base = f"{self.design}/{self.precision} x{self.replicas}"
        if self.replicas > 1:
            base += f" {self.router}/{self.autoscaler}"
        return f"{base} {self.scheduler} mb{self.max_batch}"

    def serving_spec(self, workload: ServingSpec) -> ServingSpec:
        """The fleet-shaped serving spec this candidate deploys on ``workload``.

        The candidate supplies the deployment — scheduler, batch limit,
        replica count, router and autoscaler — and the search's workload
        everything else.  Its ``faults`` and ``overlay`` describe the
        evaluation *scenario*, not the candidate: a chaos-aware search
        injects the same fault sources and arrival drift into every
        candidate, so resilience objectives and constraints compare
        designs under identical adversity.
        """
        return replace(workload, scheduler=self.scheduler,
                       max_batch=self.max_batch, replicas=self.replicas,
                       router=self.router, autoscaler=self.autoscaler)


@dataclass(frozen=True)
class DesignSpace:
    """A cartesian co-design grid expanded into an ordered candidate list.

    Single-replica candidates are physically identical under every router
    and autoscaler (there is nothing to route or scale), so they are
    normalised to the default policies and de-duplicated — exactly the rule
    :class:`~repro.sweep.grid.SweepGrid` applies to its fleet axes.

    Raises
    ------
    ValueError
        On an empty axis, an unknown precision or replica count <= 0.
    KeyError
        On an unknown design, scheduler, router or autoscaler name (the
        error lists the registered choices).
    """

    designs: tuple[str, ...]
    precisions: tuple[str, ...] = ("int8",)
    schedulers: tuple[str, ...] = ("fcfs",)
    routers: tuple[str, ...] = ("round-robin",)
    autoscalers: tuple[str, ...] = ("fixed",)
    replica_counts: tuple[int, ...] = (1, 2, 4)
    max_batches: tuple[int, ...] = (32,)

    def __post_init__(self) -> None:
        for axis in ("designs", "precisions", "schedulers", "routers",
                     "autoscalers", "replica_counts", "max_batches"):
            values = tuple(getattr(self, axis))
            if not values:
                raise ValueError(f"design space needs at least one entry in '{axis}'")
            object.__setattr__(self, axis, values)
        for name in self.designs:
            if name not in PREDEFINED_DESIGNS:
                known = ", ".join(sorted(PREDEFINED_DESIGNS))
                raise KeyError(f"unknown design '{name}'; "
                               f"predefined designs: {known}")
        for precision in self.precisions:
            Precision(precision)
        for name in self.schedulers:
            get_scheduler(name)
        for name in self.routers:
            get_router(name)
        for name in self.autoscalers:
            get_autoscaler(name)
        if any(count <= 0 for count in self.replica_counts):
            raise ValueError("replica_counts must be positive")
        if any(batch <= 0 for batch in self.max_batches):
            raise ValueError("max_batches must be positive")

    def config_for(self, design: str) -> TPUConfig:
        """The chip configuration of one design axis entry."""
        return PREDEFINED_DESIGNS[design]

    def __iter__(self) -> Iterator[Candidate]:
        seen: set[Candidate] = set()
        for design in self.designs:
            for precision in self.precisions:
                for scheduler in self.schedulers:
                    for max_batch in self.max_batches:
                        for replicas in self.replica_counts:
                            for router in self.routers:
                                for autoscaler in self.autoscalers:
                                    candidate = Candidate(
                                        design=design, precision=precision,
                                        scheduler=scheduler, router=router,
                                        autoscaler=autoscaler,
                                        replicas=replicas, max_batch=max_batch)
                                    if replicas == 1:
                                        candidate = replace(
                                            candidate, router="round-robin",
                                            autoscaler="fixed")
                                    if candidate not in seen:
                                        seen.add(candidate)
                                        yield candidate

    def candidates(self) -> tuple[Candidate, ...]:
        """Expand the space into its ordered, de-duplicated candidates."""
        return tuple(iter(self))

    def __len__(self) -> int:
        return len(self.candidates())
