"""Fleet autoscaling policies and the autoscaler registry.

The cluster front-end re-evaluates the fleet size at every request arrival
for a policy that scales: the :class:`AutoscalerPolicy`'s ``decide`` sees a
:class:`FleetView` (queue depth, estimated utilisation, KV pressure) and
returns the replica count it wants; the cluster clamps it to
``[min_replicas, fleet_size]`` and applies it.  A policy whose ``decide`` is
``None`` never scales: the whole fleet is active from the first arrival and
no view is built.
Scaling is not free, and the two costs production autoscalers fight are both
modelled:

* **cold start** — a newly activated replica only becomes routable
  ``cold_start_s`` simulated seconds after the decision (weights loading,
  container boot), so reactive scale-out always lags a burst;
* **scale-in hysteresis** — scale-in decisions must hold for ``hold_s``
  continuous seconds below the threshold before a replica is released, so
  a noisy load curve does not flap the fleet (policies keep their timer in
  the per-run ``state`` dict the cluster passes back on every call).

Policies are frozen dataclasses in ``AUTOSCALER_REGISTRY``, a
:class:`~repro.registry.Registry` like every other policy surface.
Built-ins:

* ``fixed`` — the whole configured fleet, always (``decide=None``: no
  autoscaling, so no decision);
* ``queue-depth`` — scale out when the estimated queue per active replica
  exceeds a threshold, scale in (with hysteresis) when it falls below a
  lower one;
* ``utilisation-target`` — track a target batch-slot utilisation, scaling
  out above ``target + headroom`` and in below ``target * scale_in_factor``
  after the hold period;
* ``forecasting`` — scale on the *predicted* arrival rate (windowed rate
  plus trend, extrapolated one cold start ahead) instead of the observed
  queue, paying the same cold-start and hysteresis costs.

Deactivation releases the highest-indexed active replica first and
activation claims the lowest-indexed inactive one, so replicas below
``min_replicas`` are never drained and scaling order is deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

from repro.registry import Registry


@dataclass(frozen=True)
class FleetView:
    """Fleet-wide state snapshot an autoscaling decision is based on."""

    now_s: float
    fleet_size: int
    min_replicas: int
    #: Active replicas (including ones still cold-starting) and the subset
    #: that is already routable.
    active_count: int
    ready_count: int
    #: Requests estimated still in flight across the active replicas.
    outstanding_requests: int
    #: Mean estimated committed KV fraction over the active replicas.
    kv_pressure: float

    @property
    def queue_per_active(self) -> float:
        """Estimated outstanding requests per active replica."""
        return self.outstanding_requests / self.active_count if self.active_count else 0.0

    #: Estimated batch-slot utilisation of the fleet, set by the cluster
    #: (mean of min(1, outstanding / max_batch) over active replicas).
    utilisation: float = 0.0


@dataclass(frozen=True)
class AutoscalerPolicy:
    """One fleet-sizing discipline of the cluster front-end.

    ``decide`` maps a :class:`FleetView` (plus a mutable per-run ``state``
    dict for hysteresis timers) to the desired active replica count; the
    cluster clamps the answer to ``[min_replicas, fleet_size]``.  The policy
    must be deterministic in its inputs.  ``decide=None`` is a policy that
    never scales: the cluster provisions the whole fleet up front and then
    builds no view and makes no decision at any arrival.
    """

    name: str
    description: str
    decide: Callable[[FleetView, dict], int] | None
    #: Simulated seconds between activating a replica and it becoming
    #: routable (weights loading / container boot).
    cold_start_s: float = 5.0

    def __post_init__(self) -> None:
        if self.cold_start_s < 0:
            raise ValueError("cold_start_s must be non-negative")


#: Registered autoscaling policies, addressable by name.
AUTOSCALER_REGISTRY: Registry[AutoscalerPolicy] = Registry("autoscaler", "autoscalers")

#: Look up an autoscaling policy by name (``KeyError`` lists the registered ones).
get_autoscaler = AUTOSCALER_REGISTRY.__getitem__


def register_autoscaler(policy: AutoscalerPolicy, overwrite: bool = False) -> None:
    """Add an autoscaling policy under its name (see :meth:`Registry.add`)."""
    AUTOSCALER_REGISTRY.add(policy.name, policy, overwrite)


def _scale_in_with_hold(view: FleetView, state: dict, hold_s: float) -> int:
    """Shared hysteresis: one replica in only after ``hold_s`` below threshold."""
    since = state.setdefault("below_since", view.now_s)
    if view.now_s - since >= hold_s:
        state["below_since"] = view.now_s  # re-arm: at most one step per hold
        return view.active_count - 1
    return view.active_count


def fixed_autoscaler(name: str = "fixed") -> AutoscalerPolicy:
    """The null policy: the whole configured fleet is always active."""
    return AutoscalerPolicy(
        name=name,
        description="keep every configured replica active (no autoscaling)",
        decide=None, cold_start_s=0.0)


def queue_depth_autoscaler(scale_up_queue: float = 4.0,
                           scale_down_queue: float = 1.0,
                           hold_s: float = 10.0,
                           cold_start_s: float = 5.0,
                           name: str = "queue-depth") -> AutoscalerPolicy:
    """Threshold policy on the estimated queue depth per active replica."""
    if scale_down_queue >= scale_up_queue:
        raise ValueError("scale_down_queue must be below scale_up_queue")
    if hold_s < 0:
        raise ValueError("hold_s must be non-negative")

    def decide(view: FleetView, state: dict) -> int:
        if view.queue_per_active > scale_up_queue:
            state.pop("below_since", None)
            return view.active_count + 1
        if view.queue_per_active < scale_down_queue and view.active_count > view.min_replicas:
            return _scale_in_with_hold(view, state, hold_s)
        state.pop("below_since", None)
        return view.active_count

    return AutoscalerPolicy(
        name=name,
        description=f"scale out above {scale_up_queue:g} queued/replica, "
                    f"in below {scale_down_queue:g} after {hold_s:g}s",
        decide=decide, cold_start_s=cold_start_s)


def utilisation_target_autoscaler(target: float = 0.75,
                                  headroom: float = 0.10,
                                  scale_in_factor: float = 0.5,
                                  hold_s: float = 15.0,
                                  cold_start_s: float = 5.0,
                                  name: str = "utilisation-target",
                                  ) -> AutoscalerPolicy:
    """Track a target batch-slot utilisation with cold start and hysteresis."""
    if not 0 < target <= 1:
        raise ValueError("target must be in (0, 1]")
    if headroom < 0 or not 0 < scale_in_factor < 1 or hold_s < 0:
        raise ValueError("headroom must be >= 0, scale_in_factor in (0, 1), "
                         "hold_s >= 0")

    def decide(view: FleetView, state: dict) -> int:
        if view.utilisation > target + headroom:
            state.pop("below_since", None)
            return view.active_count + 1
        if view.utilisation < target * scale_in_factor and view.active_count > view.min_replicas:
            return _scale_in_with_hold(view, state, hold_s)
        state.pop("below_since", None)
        return view.active_count

    return AutoscalerPolicy(
        name=name,
        description=f"track {target:.0%} slot utilisation "
                    f"(+{headroom:.0%} headroom, {hold_s:g}s scale-in hold)",
        decide=decide, cold_start_s=cold_start_s)


def forecasting_autoscaler(window_s: float = 10.0,
                           requests_per_replica_s: float = 4.0,
                           lead_s: float | None = None,
                           hold_s: float = 15.0,
                           cold_start_s: float = 5.0,
                           name: str = "forecasting") -> AutoscalerPolicy:
    """Predictive policy: scale on the *forecast* arrival rate, not the queue.

    Reactive policies only add capacity after a burst has already queued —
    and then pay the cold start on top.  This policy records every arrival
    instant it is consulted at (the cluster calls ``decide`` exactly once
    per arrival, so the decision times *are* the arrival process), measures
    the rate over the trailing ``window_s`` and the rate trend across the
    two half-windows, and linearly extrapolates ``lead_s`` seconds ahead —
    by default exactly the cold start it must mask.  The target replica
    count is the forecast rate over ``requests_per_replica_s`` (the rate
    one replica is provisioned to sustain).

    Prediction buys lead time, not free capacity: scale-out still pays the
    full cold start before a replica is routable, and scale-in goes through
    the same ``hold_s`` hysteresis as the reactive policies.  The cluster's
    clamp keeps the answer within ``[min_replicas, fleet_size]`` whatever
    the forecast says.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if requests_per_replica_s <= 0:
        raise ValueError("requests_per_replica_s must be positive")
    if lead_s is not None and lead_s < 0:
        raise ValueError("lead_s must be non-negative (or None)")
    if hold_s < 0:
        raise ValueError("hold_s must be non-negative")

    def decide(view: FleetView, state: dict) -> int:
        # Decision times only grow, so the list stays sorted: trim and count
        # the two half-windows by bisection.
        arrivals: list[float] = state.setdefault("arrivals", [])
        arrivals.append(view.now_s)
        del arrivals[:bisect_left(arrivals, view.now_s - 2.0 * window_s)]
        half = window_s / 2.0
        middle = bisect_right(arrivals, view.now_s - half)
        recent = len(arrivals) - middle
        previous = middle - bisect_right(arrivals, view.now_s - window_s)
        rate = (recent + previous) / window_s
        slope = (recent - previous) / (half * half)
        lead = cold_start_s if lead_s is None else lead_s
        forecast = max(0.0, rate + slope * lead)
        target = max(view.min_replicas,
                     math.ceil(forecast / requests_per_replica_s))
        if target > view.active_count:
            state.pop("below_since", None)
            return target
        if target < view.active_count and view.active_count > view.min_replicas:
            return _scale_in_with_hold(view, state, hold_s)
        state.pop("below_since", None)
        return view.active_count

    return AutoscalerPolicy(
        name=name,
        description=f"scale on the arrival rate forecast {window_s:g}s window "
                    f"extrapolated {('cold-start' if lead_s is None else f'{lead_s:g}s')} "
                    f"ahead, {requests_per_replica_s:g} req/s per replica",
        decide=decide, cold_start_s=cold_start_s)


register_autoscaler(fixed_autoscaler())
register_autoscaler(queue_depth_autoscaler())
register_autoscaler(utilisation_target_autoscaler())
register_autoscaler(forecasting_autoscaler())
