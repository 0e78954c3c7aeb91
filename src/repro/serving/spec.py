"""Compact serving-run description used by sweep grids and the CLI.

:class:`ServingSpec` is deliberately a small frozen dataclass of primitives
(plus the :class:`~repro.serving.metrics.SLO`): it fingerprints cleanly for
the sweep engine's content-addressed caches and travels to worker processes
unchanged.  The model, chip and request mix are *not* part of the spec —
they come from the sweep point (or CLI flags) it is attached to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.faults import FaultSpec
from repro.serving.metrics import SLO
from repro.serving.trace import OverlaySpec


@dataclass(frozen=True)
class ServingSpec:
    """Everything needed to replay one serving run, minus model and chip."""

    scheduler: str = "fcfs"
    trace: str = "poisson"
    arrival_rate: float = 8.0
    num_requests: int = 200
    seed: int = 0
    max_batch: int = 32
    bucket_tokens: int = 256
    #: Pipeline-parallel device count; ``None`` auto-plans the smallest
    #: deployment whose KV budget admits the largest trace request.
    devices: int | None = None
    memory_utilisation: float = 0.9
    slo: SLO = SLO()
    #: Fleet shape: ``replicas == 1`` runs the plain single-deployment
    #: simulator; ``> 1`` routes the trace across a cluster of identical
    #: replicas with the named router/autoscaler policies.
    replicas: int = 1
    router: str = "round-robin"
    autoscaler: str = "fixed"
    min_replicas: int = 1
    #: Chaos axes: injectable fault sources (expanded into a deterministic
    #: event timeline by the cluster — any faulted spec runs the cluster
    #: path, replicas == 1 included) and an arrival-drift overlay applied
    #: to the generated trace.  Both fingerprint into sweep/store keys, so
    #: chaos runs are content-addressed like healthy ones.
    faults: tuple[FaultSpec, ...] = ()
    overlay: OverlaySpec | None = None
    #: Evaluation fidelity: ``"exact"`` replays the discrete-event engine;
    #: ``"fluid"`` prices the spec with the closed-form flow estimator
    #: (:mod:`repro.serving.fluid`) — orders of magnitude faster, with
    #: golden-bounded error, for screening passes and day-scale what-ifs.
    fidelity: str = "exact"

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.max_batch <= 0 or self.bucket_tokens <= 0:
            raise ValueError("max_batch and bucket_tokens must be positive")
        if self.devices is not None and self.devices <= 0:
            raise ValueError("devices must be positive (or None to auto-plan)")
        if not 0 < self.memory_utilisation <= 1:
            raise ValueError("memory_utilisation must be in (0, 1]")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if not 1 <= self.min_replicas <= self.replicas:
            raise ValueError("min_replicas must be in [1, replicas]")
        # Coerce to a tuple so specs stay hashable (grids dedup in sets)
        # and a list-vs-tuple spelling never splits fingerprints.
        object.__setattr__(self, "faults", tuple(self.faults))
        if not all(isinstance(fault, FaultSpec) for fault in self.faults):
            raise ValueError("faults must be FaultSpec instances")
        if self.overlay is not None and not isinstance(self.overlay, OverlaySpec):
            raise ValueError("overlay must be an OverlaySpec (or None)")
        if self.fidelity not in ("exact", "fluid"):
            raise ValueError("fidelity must be 'exact' or 'fluid'")
        if self.fidelity == "fluid" and self.faults:
            raise ValueError("fault injection needs the exact event loop; "
                             "fluid fidelity cannot replay fault timelines")
        if self.fidelity == "fluid" and self.overlay is not None:
            raise ValueError("arrival-drift overlays warp individual "
                             "arrivals; fluid fidelity sees only the mean "
                             "rate, so overlaid specs must run exact")

    @property
    def fleet(self) -> bool:
        """Whether the spec runs on the cluster path: more than one replica,
        or injected faults, which act at the routing layer."""
        return self.replicas > 1 or bool(self.faults)

    def summary(self) -> str:
        """Human-readable spec summary used in tables and exports."""
        base = (f"{self.trace}@{self.arrival_rate:g}/s {self.scheduler} "
                f"n={self.num_requests} seed={self.seed}")
        if self.fidelity != "exact":
            base += f" [{self.fidelity}]"
        if self.replicas > 1:
            base += f" x{self.replicas} {self.router}/{self.autoscaler}"
        if self.overlay is not None:
            base += f" +{self.overlay.summary()}"
        if self.faults:
            base += " !" + ",".join(fault.summary() for fault in self.faults)
        return base
