"""Deterministic fault injection for cluster serving runs.

Production fleets do not stay healthy: replicas crash and restart, nodes
degrade (thermal throttling, noisy neighbours), admission paths stall.
This module describes such incidents as data — a :class:`FaultSpec` names a
registered fault *model* plus its parameters, and the model expands into a
concrete, seed-deterministic timeline of :class:`FaultEvent` effects that
:class:`~repro.serving.cluster.ClusterSimulator` applies during the routing
pre-pass.

Design points, stated explicitly:

* **Specs are data, events are derived.**  A :class:`FaultSpec` is a small
  frozen dataclass of primitives, so it travels on
  :class:`~repro.serving.spec.ServingSpec`, fingerprints into the sweep and
  store keys, and crosses sweep axes like every other knob.  The event
  timeline is a pure function of ``(spec, fleet_size, span)`` — cached and
  fresh chaos runs therefore agree bit for bit.
* **Seeded, not sampled.**  Stochastic onsets draw from per-replica
  ``random.Random`` streams seeded from the spec's own seed (string seeds
  hash via SHA-512 inside CPython's ``Random.seed``, independent of
  ``PYTHONHASHSEED``), so a fault schedule is reproducible across
  processes, platforms and store round trips.
* **Three effects.**  Every model reduces to the effects the cluster
  understands: ``crash`` (the replica dies, drains its in-flight work back
  to the router and restarts after ``duration_s`` plus the autoscaler's
  cold start), ``slow`` (step *durations* on the replica are multiplied by
  ``magnitude`` for ``duration_s`` — a throttling model, energy per step
  unchanged), and ``stall`` (the replica refuses new admissions for
  ``duration_s`` while in-flight work continues).
* **Open registry.**  Models live in ``FAULT_REGISTRY``, a
  :class:`~repro.registry.Registry` like every other policy surface;
  registering a new model makes it addressable from specs, grids and
  ``--faults`` with no simulator changes.

Built-in models: ``replica-crash``, ``slow-node``, ``admission-stall``.
Each draws Poisson onsets at rate ``1 / mttf_s`` per targeted replica, or —
when ``at_s`` is set — fires exactly once at that offset, which is what the
hand-built timelines in the resilience tests (and reproducible demo runs)
use.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.registry import Registry

#: Effects a fault event can have on a replica (see module docstring).
FAULT_EFFECTS = ("crash", "slow", "stall")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault source: a registered model plus its parameters.

    ``mttf_s`` is the mean time between onsets *per targeted replica*;
    ``at_s`` (offset from the first arrival) replaces the stochastic onsets
    with a single deterministic one.  ``replica`` targets one replica index
    (``None`` targets every replica).  ``magnitude`` is the step-duration
    multiplier of slow-node degradation and is ignored by the other models.
    """

    kind: str
    mttf_s: float = 600.0
    #: Outage / degradation window length (the MTTR of a crash).
    duration_s: float = 20.0
    magnitude: float = 2.0
    at_s: float | None = None
    replica: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("fault spec needs a model kind")
        if self.mttf_s <= 0:
            raise ValueError("mttf_s must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.magnitude < 1.0:
            raise ValueError("magnitude must be >= 1 (a slowdown factor)")
        if self.at_s is not None and self.at_s < 0:
            raise ValueError("at_s must be non-negative (or None)")
        if self.replica is not None and self.replica < 0:
            raise ValueError("replica must be non-negative (or None)")

    def summary(self) -> str:
        """Human-readable spec summary used in tables and exports."""
        onset = (f"@{self.at_s:g}s" if self.at_s is not None
                 else f"mttf={self.mttf_s:g}s")
        target = "*" if self.replica is None else str(self.replica)
        return f"{self.kind}[{onset} d={self.duration_s:g}s r={target}]"


@dataclass(frozen=True)
class FaultEvent:
    """One concrete effect of a fault model on one replica.

    ``time_s`` is the offset from the first trace arrival (the cluster
    shifts it to absolute time), so the same spec produces the same
    timeline whether the trace starts at 0 or mid-day.
    """

    time_s: float
    replica: int
    effect: str
    duration_s: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.effect not in FAULT_EFFECTS:
            raise ValueError(f"unknown fault effect '{self.effect}' "
                             f"(expected one of {', '.join(FAULT_EFFECTS)})")
        if self.time_s < 0 or self.duration_s <= 0:
            raise ValueError("fault events need time_s >= 0 and duration_s > 0")


@dataclass(frozen=True)
class FaultModel:
    """One registered fault discipline: expands a spec into events.

    ``events`` maps ``(spec, fleet_size, span_s)`` to the event timeline on
    ``[0, span_s]`` and must be deterministic in its arguments — the
    content-addressing of chaos runs depends on it.
    """

    name: str
    description: str
    events: Callable[[FaultSpec, int, float], tuple[FaultEvent, ...]]


#: Registered fault models, addressable by name from specs, grids and CLI.
FAULT_REGISTRY: Registry[FaultModel] = Registry("fault model", "models")

#: Look up a fault model by name (``KeyError`` lists the registered ones).
get_fault = FAULT_REGISTRY.__getitem__


def register_fault(model: FaultModel, overwrite: bool = False) -> None:
    """Add a fault model under its name (see :meth:`Registry.add`)."""
    FAULT_REGISTRY.add(model.name, model, overwrite)


def _onsets(spec: FaultSpec, replica: int, span_s: float) -> list[float]:
    """Onset offsets of one spec on one replica over ``[0, span_s]``.

    A pinned ``at_s`` fires once (if within the span); otherwise onsets are
    a Poisson process at rate ``1 / mttf_s`` from a per-replica stream, so
    timelines on different replicas are independent yet reproducible.
    """
    if spec.at_s is not None:
        return [spec.at_s] if spec.at_s <= span_s else []
    rng = random.Random(f"fault/{spec.kind}/{spec.seed}/{replica}")
    onsets: list[float] = []
    clock = rng.expovariate(1.0 / spec.mttf_s)
    while clock <= span_s:
        onsets.append(clock)
        clock += spec.duration_s + rng.expovariate(1.0 / spec.mttf_s)
    return onsets


def _targets(spec: FaultSpec, fleet_size: int) -> range:
    if spec.replica is None:
        return range(fleet_size)
    if spec.replica >= fleet_size:
        raise ValueError(f"fault spec targets replica {spec.replica} but the "
                         f"fleet has only {fleet_size} replicas")
    return range(spec.replica, spec.replica + 1)


def _effect_model(name: str, effect: str, description: str) -> FaultModel:
    """A model whose every onset produces one event of a fixed effect."""

    def events(spec: FaultSpec, fleet_size: int, span_s: float,
               ) -> tuple[FaultEvent, ...]:
        magnitude = spec.magnitude if effect == "slow" else 1.0
        return tuple(FaultEvent(time_s=onset, replica=replica, effect=effect,
                                duration_s=spec.duration_s, magnitude=magnitude)
                     for replica in _targets(spec, fleet_size)
                     for onset in _onsets(spec, replica, span_s))

    return FaultModel(name=name, description=description, events=events)


register_fault(_effect_model(
    "replica-crash", "crash",
    "replica dies (in-flight work re-routed), restarts after duration_s "
    "plus the autoscaler's cold start"))
register_fault(_effect_model(
    "slow-node", "slow",
    "step durations on the replica are multiplied by magnitude for "
    "duration_s (throttling / noisy neighbour)"))
register_fault(_effect_model(
    "admission-stall", "stall",
    "the replica refuses new admissions for duration_s while in-flight "
    "work continues"))


def fault_timeline(faults: Sequence[FaultSpec], fleet_size: int,
                   span_s: float) -> tuple[FaultEvent, ...]:
    """Expand fault specs into one time-ordered event timeline.

    Pure in its arguments: the same specs over the same fleet and arrival
    span always produce the identical tuple, which is what lets the sweep
    and store fingerprints content-address chaos runs by their specs alone.

    Raises
    ------
    KeyError
        On a spec naming an unregistered fault model.
    ValueError
        On a spec pinned to a replica index outside the fleet.
    """
    if fleet_size <= 0:
        raise ValueError("fault timelines need a positive fleet size")
    events: list[FaultEvent] = []
    for spec in faults:
        events.extend(get_fault(spec.kind).events(spec, fleet_size, max(0.0, span_s)))
    return tuple(sorted(events, key=lambda e: (e.time_s, e.replica, e.effect,
                                               e.duration_s, e.magnitude)))


# --------------------------------------------------------------- CLI parsing
_FIELD_TYPES: dict[str, Callable[[str], object]] = {
    "mttf_s": float, "duration_s": float, "magnitude": float,
    "at_s": float, "replica": int, "seed": int,
}


def parse_fault(text: str) -> FaultSpec:
    """Parse a compact CLI fault description into a :class:`FaultSpec`.

    Format: ``<kind>[:field=value,field=value,...]`` — e.g.
    ``replica-crash:mttf_s=3600,duration_s=30`` or
    ``slow-node:at_s=10,duration_s=60,magnitude=2.5,replica=1``.

    Raises
    ------
    ValueError
        On malformed text, unknown fields or invalid field values.
    KeyError
        On an unregistered fault model kind.
    """
    kind, _, rest = text.strip().partition(":")
    if not kind:
        raise ValueError(f"cannot parse fault '{text}': expected "
                         "'<kind>[:field=value,...]'")
    get_fault(kind)  # validate the model early, with the registry's message
    fields: dict[str, object] = {}
    for item in filter(None, (part.strip() for part in rest.split(","))):
        name, sep, raw = item.partition("=")
        name = name.strip()
        if not sep or name not in _FIELD_TYPES:
            known = ", ".join(sorted(_FIELD_TYPES))
            raise ValueError(f"cannot parse fault field '{item}' in '{text}'; "
                             f"known fields: {known}")
        try:
            fields[name] = _FIELD_TYPES[name](raw.strip())
        except ValueError:
            raise ValueError(f"invalid value '{raw.strip()}' for fault field "
                             f"'{name}' in '{text}'") from None
    return FaultSpec(kind=kind, **fields)
