"""Request-routing policies and the router registry.

A cluster front-end sees every arriving request once and must pick a replica
for it before the replica's own scheduler ever runs.  The
:class:`~repro.serving.cluster.ClusterSimulator` is policy-agnostic: at each
arrival it hands the active :class:`RouterPolicy` the request, a snapshot of
every routable replica (:class:`ReplicaView`) and a :class:`RouterContext`,
and routes wherever the policy points.  Policies are plain frozen dataclasses
registered in ``ROUTER_REGISTRY``, a :class:`~repro.registry.Registry`
like every other policy surface, so new disciplines plug in without
touching the cluster loop.

Built-in policies:

* ``round-robin`` — cycle through the routable replicas in index order
  (the classic L4 load balancer; blind to replica state);
* ``least-outstanding-requests`` — send to the replica with the fewest
  requests estimated still in flight (the standard ALB/gRPC pick);
* ``least-kv-pressure`` — send to the replica whose committed KV-cache
  fraction is lowest, which is what actually gates admission on an LLM
  serving engine (outstanding *tokens*, not outstanding requests);
* ``session-affinity`` — rendezvous-hash the request's session onto the
  routable replicas, so a session's requests keep hitting the same replica
  (prefix/KV reuse) while scaling events move as few sessions as possible.

Every policy is a pure function of its inputs, so routing — like everything
else in the serving stack — is bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.registry import Registry
from repro.serving.trace import Request


@dataclass(frozen=True)
class ReplicaView:
    """Immutable snapshot of one routable replica at a routing instant.

    The load figures are the cluster front-end's *estimates* (a fluid queue
    drained at the replica's estimated service rate), not the replica
    engine's internal state — exactly the imperfect information a production
    router acts on.  The front end hands the same view out again while the
    replica's load is unchanged; views are immutable, so a policy must
    compare them by value and never rely on their identity.
    """

    index: int
    tpu_name: str
    devices: int
    max_batch: int
    #: Requests routed to the replica and estimated still in flight.
    outstanding_requests: int
    #: KV-cache tokens those requests commit once admitted.
    outstanding_tokens: int
    #: Estimated steady-state decode throughput of the replica.
    service_tokens_per_s: float
    kv_budget_bytes: int
    kv_bytes_per_token: int

    @property
    def kv_pressure(self) -> float:
        """Estimated committed fraction of the replica's KV budget."""
        if self.kv_budget_bytes <= 0:
            return float("inf")
        return self.outstanding_tokens * self.kv_bytes_per_token / self.kv_budget_bytes

    def fits(self, request: Request) -> bool:
        """Whether the request's full-context KV cache fits the budget."""
        return request.total_tokens * self.kv_bytes_per_token <= self.kv_budget_bytes


@dataclass(frozen=True)
class RouterContext:
    """Routing-instant facts that are fleet-wide rather than per-replica."""

    now_s: float
    #: Requests routed so far across the whole fleet (drives round-robin).
    routed_count: int
    fleet_size: int


#: The least-outstanding order: fewest requests in flight, then lowest index.
_outstanding_then_index = attrgetter("outstanding_requests", "index")


def _session_key(request: Request) -> int:
    """The affinity key: the request's session, or the request itself."""
    return request.session_id if request.session_id is not None else request.request_id


def _rendezvous_weight(session: int, replica_index: int) -> str:
    """Deterministic highest-random-weight score of (session, replica)."""
    return hashlib.sha256(f"{session}/{replica_index}".encode("utf-8")).hexdigest()


def _round_robin(request: Request, candidates: Sequence[ReplicaView],
                 context: RouterContext) -> ReplicaView:
    return candidates[context.routed_count % len(candidates)]


def _least_outstanding(request: Request, candidates: Sequence[ReplicaView],
                       context: RouterContext) -> ReplicaView:
    return min(candidates, key=_outstanding_then_index)


def _least_kv_pressure(request: Request, candidates: Sequence[ReplicaView],
                       context: RouterContext) -> ReplicaView:
    return min(candidates, key=lambda view: (view.kv_pressure, view.index))


def _session_affinity(request: Request, candidates: Sequence[ReplicaView],
                      context: RouterContext) -> ReplicaView:
    session = _session_key(request)
    return max(candidates,
               key=lambda view: (_rendezvous_weight(session, view.index), -view.index))


@dataclass(frozen=True)
class RouterPolicy:
    """One request-routing discipline of the cluster front-end.

    ``choose`` picks a replica from a non-empty candidate tuple; candidates
    are the *routable* replicas (active, past any cold start, preferring
    those whose KV budget fits the request) in index order.  The policy must
    be deterministic — cluster runs are bit-for-bit reproducible.
    """

    name: str
    description: str
    choose: Callable[[Request, Sequence[ReplicaView], RouterContext], ReplicaView]


#: Registered routing policies, addressable by name.
ROUTER_REGISTRY: Registry[RouterPolicy] = Registry("router", "routers")

#: Look up a routing policy by name (``KeyError`` lists the registered ones).
get_router = ROUTER_REGISTRY.__getitem__


def register_router(policy: RouterPolicy, overwrite: bool = False) -> None:
    """Add a routing policy under its name (see :meth:`Registry.add`)."""
    ROUTER_REGISTRY.add(policy.name, policy, overwrite)


register_router(RouterPolicy(
    name="round-robin",
    description="cycle through routable replicas in index order",
    choose=_round_robin))
register_router(RouterPolicy(
    name="least-outstanding-requests",
    description="route to the replica with the fewest requests in flight",
    choose=_least_outstanding))
register_router(RouterPolicy(
    name="least-kv-pressure",
    description="route to the replica with the lowest committed KV fraction",
    choose=_least_kv_pressure))
register_router(RouterPolicy(
    name="session-affinity",
    description="rendezvous-hash sessions onto replicas for KV reuse",
    choose=_session_affinity))
