"""Batching policies and the scheduler registry.

The continuous-batching engine (:mod:`repro.serving.simulator`) is policy-
agnostic: at every scheduling point it asks the active
:class:`SchedulerPolicy` how to order the waiting queue for admission and
whether admission may interrupt in-flight decodes.  Policies are plain
frozen dataclasses registered in ``SCHEDULER_REGISTRY``, a
:class:`~repro.registry.Registry` like every other policy surface, so new
disciplines plug in without touching the event loop.

Built-in policies:

* ``fcfs`` — admit in arrival order, interleaving prefills with decodes
  (classic continuous batching);
* ``shortest-prompt-first`` — admit the cheapest prompts first (SJF on the
  prefill cost proxy), trading long-prompt TTFT for mean TTFT;
* ``decode-priority`` — never interrupt a running batch: new requests are
  admitted only once every in-flight request has finished (static batching
  waves; the best-TPOT / worst-TTFT extreme).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.serving.simulator import LiveRequest


def _by_arrival(live: "LiveRequest") -> tuple:
    return (live.request.arrival_s, live.request.request_id)


def _by_prompt_length(live: "LiveRequest") -> tuple:
    return (live.request.input_tokens, live.request.arrival_s,
            live.request.request_id)


@dataclass(frozen=True)
class SchedulerPolicy:
    """One batching discipline of the continuous-batching engine."""

    name: str
    description: str
    #: Admission priority of a waiting request — *lower sorts first*, and the
    #: key must end in the unique ``request_id`` so ordering is total.  The
    #: engine keeps the waiting queue as a heap on this key and admits from
    #: the head, stopping at the first request that does not fit (no
    #: hole-filling, so the key fully determines head-of-line behaviour).
    priority: Callable[["LiveRequest"], tuple] = field(default=_by_arrival)
    #: Whether new requests may be admitted (prefilled) while other requests
    #: are still decoding.  ``False`` turns the engine into wave-style static
    #: batching.
    admit_during_decode: bool = True


#: Registered batching policies, addressable by name.
SCHEDULER_REGISTRY: Registry[SchedulerPolicy] = Registry("scheduler", "schedulers")

#: Look up a batching policy by name (``KeyError`` lists the registered ones).
get_scheduler = SCHEDULER_REGISTRY.__getitem__


def register_scheduler(policy: SchedulerPolicy, overwrite: bool = False) -> None:
    """Add a batching policy under its name (see :meth:`Registry.add`)."""
    SCHEDULER_REGISTRY.add(policy.name, policy, overwrite)


register_scheduler(SchedulerPolicy(
    name="fcfs",
    description="admit in arrival order, interleave prefills with decodes"))
register_scheduler(SchedulerPolicy(
    name="shortest-prompt-first",
    description="admit the shortest waiting prompts first",
    priority=_by_prompt_length))
register_scheduler(SchedulerPolicy(
    name="decode-priority",
    description="never interrupt decodes; admit only between batch waves",
    admit_during_decode=False))
