"""The sweep engine: memoised, optionally parallel scenario-grid evaluation.

:class:`SweepEngine` evaluates arbitrary collections of
:class:`~repro.sweep.grid.SweepPoint` objects and returns one structured
:class:`SweepResult` row per point, in input order.  Three properties make it
the substrate for every sweep-shaped study in the repository (Table IV /
Fig. 7 exploration, Fig. 8 multi-TPU scaling, the widened ``repro-sim sweep``
scenario space):

* **content-addressed caching** — graph simulations are memoised on a
  deterministic hash of the chip configuration plus the operator graph, and
  whole points on a hash of the full point description, so repeated points
  (e.g. the shared TPUv4i baseline) simulate once and a re-sweep simulates
  nothing;
* **parallel fan-out** — ``workers > 1`` distributes uncached points over a
  ``multiprocessing`` pool, grouped by chip configuration so graph sharing
  survives the process boundary; results are re-assembled in input order and
  are identical (bit-for-bit) to a serial sweep;
* **structured results** — rows are plain frozen dataclasses exportable to
  JSON/CSV via :mod:`repro.sweep.export`.
"""

from __future__ import annotations

import logging
import multiprocessing
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.codec import decode, encode
from repro.core.config import TPUConfig
from repro.obs.telemetry import Telemetry
from repro.parallel.multi_device import MultiTPUSystem
from repro.sweep.cache import CachingInferenceSimulator, ResultCache
from repro.sweep.fingerprint import fingerprint
from repro.sweep.grid import SweepGrid, SweepPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses cache)
    from repro.sweep.store import ResultStore

#: Store namespace of persisted sweep-point rows (see repro.sweep.store).
STORE_KIND = "sweep-result"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepResult:
    """Structured outcome of one sweep point."""

    design: str
    workload: str
    #: Workload family tag from the model registry — one of the families in
    #: :data:`repro.workloads.registry.MODEL_KINDS` ("llm", "moe", "dit").
    kind: str
    precision: str                 # "int8" or "bf16"
    batch: int
    devices: int
    parallelism: str
    scenario: str                  # registered scenario name (e.g. "llm-serving")
    settings_summary: str          # human-readable settings (e.g. "in=1024 out=512")
    peak_tops: float               # per-chip peak INT8 throughput
    #: Seconds of one request group on the chip.  For ``devices > 1`` this is
    #: the *bottleneck pipeline stage's* occupancy plus its ICI hop (the
    #: steady-state throughput reciprocal, as in Fig. 8) — not the end-to-end
    #: latency of a single group through all stages, so it shrinks with the
    #: device count.  Compare across the device axis via ``throughput``.
    latency_seconds: float
    throughput: float              # items per second at steady state
    items: float                   # items produced per request group
    item_unit: str                 # "token" or "image"
    mxu_energy_joules: float       # summed over all devices
    total_energy_joules: float     # summed over all devices
    communication_seconds: float   # ICI time per request group (0 on one chip)
    cache_key: str                 # content fingerprint of the point

    @property
    def energy_per_item(self) -> float:
        """MXU energy per produced item (J/token or J/image)."""
        return self.mxu_energy_joules / self.items if self.items else 0.0


_decode_row = partial(decode, SweepResult)


@dataclass
class SweepStats:
    """Aggregate cache statistics of a sweep engine."""

    point_hits: int = 0
    point_misses: int = 0
    graph_hits: int = 0
    graph_misses: int = 0
    #: Point rows served from / written to the persistent store (when one
    #: is attached): a store hit does zero simulation work.
    store_hits: int = 0
    store_misses: int = 0

    @property
    def simulations(self) -> int:
        """Graph simulations actually performed on behalf of the engine."""
        return self.graph_misses


def point_key(point: SweepPoint) -> str:
    """Deterministic content fingerprint of a sweep point.

    The version string is bumped whenever the point or spec schema gains an
    axis (v5: fault/overlay chaos axes on the serving spec; v6: the
    ``fidelity`` axis and the fluid estimator), so rows stored by an older
    binary miss — a pre-chaos store must never satisfy a faulted request,
    or chaos sweeps would silently serve healthy numbers.
    """
    return fingerprint("sweep-point/v6", point.design, point.config, point.model,
                       point.scenario, point.settings, point.devices, point.parallelism,
                       point.serving)


def _compute_result(point: SweepPoint, simulator: CachingInferenceSimulator,
                    key: str, store: "ResultStore | None" = None) -> SweepResult:
    """Simulate one point with the given (caching) simulator.

    The point's registered scenario drives the whole evaluation, so any
    workload family — LLM serving, DiT sampling, MoE, chat mixes, anything
    registered later — flows through this one path.  Points carrying a
    :class:`~repro.serving.spec.ServingSpec` run the discrete-event serving
    simulator instead, and map the serving report onto the common row shape
    (latency = mean end-to-end request latency, throughput = sustained
    generated tokens per second).  Their step prices come from the
    process-wide :data:`~repro.serving.costs.STEP_PRICES` table; only the
    states it misses reach ``simulator`` and count as graph simulations.
    """
    spec = point.spec
    if point.serving is not None:
        # Imported lazily: repro.serving layers on top of repro.sweep, so a
        # top-level import here would be circular.  Fleet-shaped specs run
        # the cluster simulator — faulted specs too, whatever their replica
        # count, because fault injection lives at the routing layer; both
        # report types share the row mapping (latency = mean e2e,
        # throughput = sustained tokens/s).
        if point.serving.replicas > 1 or point.serving.faults:
            from repro.serving.cluster import simulate_cluster

            report = simulate_cluster(point.model, point.config, point.serving,
                                      point.settings, simulator=simulator,
                                      store=store)
            devices = report.total_devices
        else:
            from repro.serving.simulator import simulate_serving

            report = simulate_serving(point.model, point.config, point.serving,
                                      point.settings, simulator=simulator)
            devices = report.devices
        return SweepResult(
            design=point.design, workload=point.workload, kind=point.kind,
            precision=point.precision.value, batch=point.batch,
            devices=devices, parallelism=point.parallelism,
            scenario=point.scenario, settings_summary=point.settings_summary,
            peak_tops=point.config.peak_tops,
            latency_seconds=report.e2e.mean_s,
            throughput=report.tokens_per_second,
            items=float(report.total_tokens), item_unit="token",
            mxu_energy_joules=report.mxu_energy_joules,
            total_energy_joules=report.total_energy_joules,
            communication_seconds=0.0, cache_key=key)
    if point.devices == 1:
        inference = simulator.run_scenario(spec.build(point.model, point.settings))
        latency = inference.total_seconds
        throughput = inference.throughput
        items = inference.items
        item_unit = inference.item_unit
        mxu_energy = inference.mxu_energy
        total_energy = inference.total_energy
        communication = 0.0
    else:
        system = MultiTPUSystem(point.config, point.devices,
                                parallelism=point.parallelism, simulator=simulator)
        deployed = system.simulate_scenario(spec, point.model, point.settings)
        latency = deployed.stage_occupancy_seconds + deployed.communication_seconds
        throughput = deployed.throughput
        items = deployed.items_per_group
        item_unit = deployed.item_unit
        mxu_energy = deployed.mxu_energy_joules
        total_energy = deployed.total_energy_joules
        communication = deployed.communication_seconds

    return SweepResult(
        design=point.design, workload=point.workload, kind=point.kind,
        precision=point.precision.value, batch=point.batch,
        devices=point.devices, parallelism=point.parallelism,
        scenario=point.scenario, settings_summary=point.settings_summary,
        peak_tops=point.config.peak_tops,
        latency_seconds=latency, throughput=throughput,
        items=items, item_unit=item_unit,
        mxu_energy_joules=mxu_energy, total_energy_joules=total_energy,
        communication_seconds=communication, cache_key=key)


#: Per-worker-process snapshot of the parent's graph cache, installed once
#: by :func:`_seed_worker_cache` when the pool spins the process up (not
#: re-pickled per task, which would cost O(groups × cache size)).
_WORKER_SEED_ENTRIES: dict[str, object] = {}


def _seed_worker_cache(entries: Mapping[str, object]) -> None:
    """Pool initializer: install the parent's graph-cache snapshot."""
    _WORKER_SEED_ENTRIES.clear()
    _WORKER_SEED_ENTRIES.update(entries)


def _worker_evaluate_group(tasks: Sequence[tuple[str, SweepPoint]],
                           seed_entries: Mapping[str, object] | None = None,
                           ) -> tuple[list[tuple[str, SweepResult]],
                                      list[tuple[str, object]], int, int]:
    """Pool worker: simulate a group of points sharing one local graph cache.

    The engine groups points by chip configuration before dispatch, so the
    graphs that points share (per-layer graphs across a device axis, repeated
    settings on one design) are simulated once per worker task rather than
    once per point.  The parent engine's existing graph-cache entries seed
    the worker's cache (via the pool initializer, or the explicit
    ``seed_entries`` override for direct calls): without them a warm parent
    cache is invisible across the process boundary, so workers would
    re-simulate graphs the parent already holds *and* count them as misses
    — the classic "cache stats lost under multiprocessing fan-out" bug,
    which made parallel runs under-report the hit rate (and over-simulate)
    relative to an identical serial sweep.

    Returns the result rows, the *new* graph-cache entries produced (so the
    parent engine can absorb them without re-shipping what it sent) and the
    worker's graph hit/miss deltas (so the parent's statistics reflect work
    done remotely and parallel stats equal serial stats exactly).
    """
    cache = ResultCache()
    seed_entries = (dict(seed_entries) if seed_entries is not None
                    else dict(_WORKER_SEED_ENTRIES))
    cache.merge(seed_entries.items())
    simulators: dict[str, CachingInferenceSimulator] = {}
    rows: list[tuple[str, SweepResult]] = []
    for key, point in tasks:
        config_key = fingerprint(point.config)
        simulator = simulators.get(config_key)
        if simulator is None:
            simulator = CachingInferenceSimulator(point.config, cache)
            simulators[config_key] = simulator
        rows.append((key, _compute_result(point, simulator, key)))
    produced = [(graph_key, result) for graph_key, result in cache.entries().items()
                if graph_key not in seed_entries]
    return rows, produced, cache.stats.hits, cache.stats.misses


class SweepEngine:
    """Evaluates sweep grids with content-addressed caching and fan-out.

    An optional persistent :class:`~repro.sweep.store.ResultStore` extends
    the in-memory point cache across processes and runs: rows computed here
    are written through to the store, rows another run already computed are
    decoded from it without simulating anything.  Fleet-shaped points
    additionally pass the store down to the cluster simulator, so warm
    searches skip the event loop too.
    """

    def __init__(self, workers: int | None = None, *,
                 store: "ResultStore | None" = None,
                 telemetry: Telemetry | None = None) -> None:
        #: Default worker count for :meth:`sweep` (``None``/``0``/``1`` = serial).
        self.workers = workers
        #: Persistent cross-run result store (``None`` = in-memory only).
        self.store = store
        #: Telemetry sink (wall-clock domain): per-point compute spans plus
        #: live cache/store hit-miss counters.  Observation only — rows are
        #: identical with telemetry on or off.
        self.telemetry = (telemetry
                          if telemetry is not None and telemetry.enabled
                          else None)
        self.graph_cache = ResultCache()
        self.point_cache = ResultCache()
        self._simulators: dict[str, CachingInferenceSimulator] = {}
        self._remote_graph_hits = 0
        self._remote_graph_misses = 0
        self._store_hits = 0
        self._store_misses = 0

    # -------------------------------------------------------------- evaluate
    def evaluate(self, point: SweepPoint) -> SweepResult:
        """Evaluate one sweep point (served from the caches on repeats)."""
        key = point_key(point)
        return self.point_cache.get_or_compute(
            key, lambda: self._restore_or_compute(point, key))

    def sweep(self, points: SweepGrid | Iterable[SweepPoint],
              workers: int | None = None) -> list[SweepResult]:
        """Evaluate every point; rows come back in input order.

        With ``workers > 1`` the uncached points are distributed over a
        process pool (one task per distinct chip configuration); the result
        rows are nevertheless identical to a serial sweep, point for point.
        """
        resolved = list(points)
        keys = [point_key(point) for point in resolved]
        workers = workers if workers is not None else self.workers
        prefetched: dict[str, SweepResult] = {}
        if workers is not None and workers > 1:
            prefetched = self._parallel_prefetch(resolved, keys, workers)

        rows: list[SweepResult] = []
        for point, key in zip(resolved, keys):
            if key in prefetched:
                rows.append(self.point_cache.get_or_compute(
                    key, lambda key=key: prefetched[key]))
            else:
                rows.append(self.point_cache.get_or_compute(
                    key, lambda point=point, key=key: self._restore_or_compute(
                        point, key)))
        return rows

    # --------------------------------------------------------------- helpers
    def _restore_or_compute(self, point: SweepPoint, key: str) -> SweepResult:
        """Serve a point from the persistent store, or simulate and persist."""
        restored = self._from_store(key)
        if restored is not None:
            return restored
        tel = self.telemetry
        if tel is not None:
            tel.count("sweep.computed")
            with tel.wall_span("sweep", f"point:{point.design}/{point.workload}",
                               {"scenario": point.scenario,
                                "devices": point.devices,
                                "key": key[:12]}):
                row = _compute_result(point, self._simulator_for(point.config),
                                      key, store=self.store)
        else:
            row = _compute_result(point, self._simulator_for(point.config), key,
                                  store=self.store)
        if self.store is not None:
            self.store.put(STORE_KIND, key, encode(row))
        return row

    def _from_store(self, key: str) -> SweepResult | None:
        """Decode a stored row (``None`` without a store or on a miss)."""
        if self.store is None:
            return None
        row = self.store.load(STORE_KIND, key, _decode_row)
        if row is not None:
            self._store_hits += 1
            if self.telemetry is not None:
                self.telemetry.count("sweep.store_hits")
            return row
        self._store_misses += 1
        if self.telemetry is not None:
            self.telemetry.count("sweep.store_misses")
        return None

    def _parallel_prefetch(self, points: Sequence[SweepPoint], keys: Sequence[str],
                           workers: int) -> dict[str, SweepResult]:
        """Simulate the unique uncached points in a process pool.

        Points are grouped by chip configuration and each group is one pool
        task: every group ships with a snapshot of the parent's graph cache
        (workers cannot see it otherwise) so graphs the parent — or an
        earlier sweep — already simulated are cache hits in the worker too,
        and the merged statistics equal a serial sweep's exactly.  Points
        the persistent store already holds are decoded here and never
        dispatched.  The fan-out is across distinct designs — the axis the
        exploration grids are widest in.
        """
        pending: dict[str, SweepPoint] = {}
        prefetched: dict[str, SweepResult] = {}
        for key, point in zip(keys, points):
            if key in self.point_cache or key in pending or key in prefetched:
                continue
            restored = self._from_store(key)
            if restored is not None:
                prefetched[key] = restored
            else:
                pending[key] = point
        if not pending:
            return prefetched
        groups: dict[str, list[tuple[str, SweepPoint]]] = {}
        for key, point in pending.items():
            groups.setdefault(fingerprint(point.config), []).append((key, point))
        seed_entries = self.graph_cache.entries()
        logger.debug("parallel prefetch: %d point(s) in %d group(s) over "
                     "up to %d worker(s)", len(pending), len(groups), workers)
        tel = self.telemetry
        span = (tel.wall_span("sweep", "parallel-fanout",
                              {"points": len(pending), "groups": len(groups)})
                if tel is not None else None)
        with multiprocessing.Pool(processes=min(workers, len(groups)),
                                  initializer=_seed_worker_cache,
                                  initargs=(seed_entries,)) as pool:
            if span is not None:
                with span:
                    outcomes = pool.map(_worker_evaluate_group,
                                        list(groups.values()))
            else:
                outcomes = pool.map(_worker_evaluate_group,
                                    list(groups.values()))
            if tel is not None:
                tel.count("sweep.computed", len(pending))
        for rows, graph_entries, graph_hits, graph_misses in outcomes:
            self.graph_cache.merge(graph_entries)
            self._remote_graph_hits += graph_hits
            self._remote_graph_misses += graph_misses
            for key, row in rows:
                prefetched[key] = row
                if self.store is not None:
                    self.store.put(STORE_KIND, key, encode(row))
        return prefetched

    def _simulator_for(self, config: TPUConfig) -> CachingInferenceSimulator:
        """A caching simulator for the chip, shared across points."""
        key = fingerprint(config)
        simulator = self._simulators.get(key)
        if simulator is None:
            simulator = CachingInferenceSimulator(config, self.graph_cache)
            self._simulators[key] = simulator
        return simulator

    # ------------------------------------------------------------ statistics
    @property
    def stats(self) -> SweepStats:
        """Combined local + worker cache statistics of the engine."""
        return SweepStats(
            point_hits=self.point_cache.stats.hits,
            point_misses=self.point_cache.stats.misses,
            graph_hits=self.graph_cache.stats.hits + self._remote_graph_hits,
            graph_misses=self.graph_cache.stats.misses + self._remote_graph_misses,
            store_hits=self._store_hits,
            store_misses=self._store_misses)

    def clear_caches(self) -> None:
        """Drop every cached simulation and reset the statistics.

        The persistent store (if any) is left untouched: it is the
        cross-run memory this method must not erase.
        """
        self.graph_cache.clear()
        self.point_cache.clear()
        self._simulators.clear()
        self._remote_graph_hits = 0
        self._remote_graph_misses = 0
        self._store_hits = 0
        self._store_misses = 0
