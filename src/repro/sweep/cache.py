"""The caching inference simulator and its hit/miss-counting graph cache.

:class:`CachingInferenceSimulator` memoises graph evaluations in a
:class:`ResultCache` keyed by ``fingerprint(TPUConfig, OperatorGraph)`` —
the unit of actual simulation work.  The sweep engine builds one per chip
configuration per sweep, so e.g. the TPUv4i baseline prefill layer is
simulated once no matter how many of the sweep's points, device counts or
report tables reference it.  Finished sweep rows are cached by the engine
itself (:class:`~repro.sweep.engine.SweepEngine`), keyed on the whole
point, so re-running a sweep does no simulation at all.

:class:`ResultCache` counts hits and misses so tests and benchmarks can
assert "the cached re-run simulated nothing".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.config import TPUConfig
from repro.core.results import GraphResult
from repro.core.simulator import InferenceSimulator
from repro.sweep.fingerprint import fingerprint
from repro.workloads.graph import OperatorGraph


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    hits: int = 0
    misses: int = 0


class ResultCache:
    """A content-addressed store with hit/miss accounting.

    Keys are fingerprint strings (see :mod:`repro.sweep.fingerprint`); values
    are whatever the caller computes.  ``misses`` therefore counts exactly the
    number of times the compute function actually ran.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Any] = {}
        self.stats = CacheStats()

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        if key in self._entries:
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        value = compute()
        self._entries[key] = value
        return value


class CachingInferenceSimulator(InferenceSimulator):
    """An :class:`InferenceSimulator` that memoises graph evaluations.

    Every ``simulate_*`` helper of the base class funnels graph execution
    through :meth:`run_graph`, so overriding it here is sufficient to memoise
    end-to-end LLM inference, DiT sampling and the multi-device models alike.
    The cache may be shared between simulators of *different* chips: the key
    covers the full :class:`TPUConfig`, so entries never collide.
    """

    def __init__(self, tpu_config: TPUConfig, cache: ResultCache | None = None) -> None:
        super().__init__(tpu_config)
        self.cache = cache if cache is not None else ResultCache()
        self._config_key = fingerprint(tpu_config)

    def graph_key(self, graph: OperatorGraph) -> str:
        """The content key of running ``graph`` on this simulator's chip."""
        return fingerprint(self._config_key, graph)

    def run_graph(self, graph: OperatorGraph) -> GraphResult:
        """Evaluate a graph, serving repeats from the shared cache."""
        return self.cache.get_or_compute(self.graph_key(graph),
                                         lambda: self.model.run_graph(graph))
