"""Frozen response envelopes of the unified API.

Every facade call returns one envelope per request kind, all sharing the
same provenance header:

``fingerprint``
    Content fingerprint of the *request* (``fingerprint("repro-api/v1",
    request)``) — the multi-tenant cache identity a gateway client can use
    to correlate submissions.
``served_from_store`` / ``new_simulations`` / ``store_hits`` /
``store_misses``
    One rule for every kind: the call's own store lookups, and the
    results it needed (runs, fleet evaluations, new sweep points) less
    those hits; served means it computed none and hit some.  A warm
    repeat of any request reports ``new_simulations == 0``, which the
    gateway tests and the CI gates assert.

Result payloads are carried as the :func:`repro.codec.encode` forms the
store persists (reports, sweep rows, frontiers, fleet plans), so an
envelope serialises exactly over HTTP, and the ``*_object`` helpers
decode them back into the engines' dataclasses for rich consumers like
the CLI printers.  Envelopes share the requests' codec
(:func:`~repro.api.requests.envelope_payload` and the strict
:func:`~repro.api.requests.decode_envelope`): ``to_dict`` / ``from_dict``
round-trip byte-exactly, so a response decoded from the wire re-encodes
to the same JSON.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.api.requests import decode_by_kind, decode_envelope, envelope_payload
from repro.codec import decode, encode

#: :class:`~repro.analysis.capacity.FleetPlan` fields that travel under
#: other keys (the ``repro-sim fleet --json`` shape).
_PLAN_WIRE_KEYS = {"model_name": "model", "tpu_name": "tpu"}
_PLAN_FIELDS = {wire: name for name, wire in _PLAN_WIRE_KEYS.items()}


@dataclass(frozen=True)
class _Response:
    """Provenance header every response kind shares."""

    kind: ClassVar[str] = ""
    family: ClassVar[str] = "response"

    fingerprint: str
    served_from_store: bool
    new_simulations: int
    store_hits: int
    store_misses: int

    from_dict = classmethod(decode_envelope)

    def to_dict(self) -> dict[str, Any]:
        """:func:`~repro.api.requests.envelope_payload` of the response."""
        return envelope_payload(self)


@dataclass(frozen=True)
class SimulateResponse(_Response):
    """A serving run's report (single-deployment or fleet-shaped)."""

    kind: ClassVar[str] = "simulate"

    #: Whether the run took the cluster path (``replicas > 1`` or faults);
    #: selects the decoder for :meth:`report_object`.
    fleet: bool = False
    #: ``ServingReport.to_dict()`` (with per-request rows) for single
    #: deployments; ``ClusterReport.to_dict(include_requests=False)`` for
    #: fleets — matching what the shared store persists, so cold and warm
    #: responses are byte-identical.
    report: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def report_object(self):
        """The decoded report dataclass (ServingReport / ClusterReport)."""
        from repro.serving.cluster import cluster_report_from_dict
        from repro.serving.simulator import serving_report_from_dict

        from_dict = cluster_report_from_dict if self.fleet else serving_report_from_dict
        return from_dict(self.report)


@dataclass(frozen=True)
class FleetResponse(_Response):
    """A fleet-sizing plan (the ``repro-sim fleet --json`` payload shape)."""

    kind: ClassVar[str] = "fleet"

    plan: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    @staticmethod
    def plan_payload(plan) -> dict[str, Any]:
        """A :class:`~repro.analysis.capacity.FleetPlan` in its wire shape."""
        return {_PLAN_WIRE_KEYS.get(key, key): value
                for key, value in encode(plan).items()}

    def plan_object(self):
        """The decoded :class:`~repro.analysis.capacity.FleetPlan`."""
        from repro.analysis.capacity import FleetPlan

        return decode(FleetPlan, {_PLAN_FIELDS.get(key, key): value
                                  for key, value in self.plan.items()})


@dataclass(frozen=True)
class SweepResponse(_Response):
    """A sweep's result rows plus the engine's cache accounting."""

    kind: ClassVar[str] = "sweep"

    rows: tuple[Mapping[str, Any], ...] = ()
    #: Engine counters (simulations, point and graph hits and misses), then
    #: the call's store hits and misses — the provenance the CLI prints.
    stats: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))

    def row_objects(self):
        """The decoded :class:`~repro.sweep.engine.SweepResult` rows."""
        from repro.sweep.engine import SweepResult

        return [decode(SweepResult, row) for row in self.rows]


@dataclass(frozen=True)
class OptimizeResponse(_Response):
    """A co-design search's Pareto frontier (``ParetoFrontier.to_dict``)."""

    kind: ClassVar[str] = "optimize"

    frontier: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def frontier_object(self):
        """The decoded :class:`~repro.optimize.pareto.ParetoFrontier`."""
        from repro.optimize.pareto import frontier_from_dict

        return frontier_from_dict(dict(self.frontier))


@dataclass(frozen=True)
class AutoconfigPreviewResponse(_Response):
    """Deterministic sizing analytics (always ``new_simulations == 0``)."""

    kind: ClassVar[str] = "autoconfig-preview"

    preview: Mapping[str, Any] = dataclasses.field(default_factory=dict)


#: kind -> response class (the inverse of each facade call).
RESPONSE_TYPES: dict[str, type] = {
    cls.kind: cls for cls in (SimulateResponse, FleetResponse, SweepResponse,
                              OptimizeResponse, AutoconfigPreviewResponse)
}


def response_from_dict(payload: Mapping[str, Any]):
    """Decode any response payload by its ``kind`` field."""
    return decode_by_kind(payload, RESPONSE_TYPES, "response")
