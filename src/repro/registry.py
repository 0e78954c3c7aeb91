"""The name registry every open policy and workload surface is built on.

Routers, schedulers, autoscalers, fault models, arrival processes,
overlays, objectives, search strategies, models, scenarios and lint rules
are each one :class:`Registry`: a plain ``dict`` from name to entry that
knows what it holds, so every registry rejects a duplicate name and
reports an unknown one with the same two messages.
"""

from __future__ import annotations

from typing import Generic, TypeVar

V = TypeVar("V")


class Registry(dict[str, V], Generic[V]):
    """A name -> entry dict whose errors name what it holds.

    ``noun`` and ``plural`` word the errors: ``registry["x"]`` on a missing
    name raises ``KeyError("unknown <noun> 'x'; registered <plural>: ...")``
    listing the sorted names.  ``get``, ``in`` and iteration behave as on
    any dict.
    """

    def __init__(self, noun: str, plural: str) -> None:
        super().__init__()
        self.noun = noun
        self.plural = plural

    def add(self, name: str, entry: V, overwrite: bool = False) -> None:
        """Register ``entry`` under ``name``.

        Raises
        ------
        ValueError
            If the name is taken and ``overwrite`` is not set.
        """
        if name in self and not overwrite:
            raise ValueError(f"{self.noun} '{name}' is already registered")
        self[name] = entry

    def __missing__(self, name: str) -> V:
        known = ", ".join(sorted(self))
        raise KeyError(f"unknown {self.noun} '{name}'; registered {self.plural}: {known}")
