"""The sweep engine: memoised, optionally parallel scenario-grid evaluation.

:class:`SweepEngine` evaluates arbitrary collections of
:class:`~repro.sweep.grid.SweepPoint` objects and returns one structured
:class:`SweepResult` row per point, in input order.  Three properties make it
the substrate for every sweep-shaped study in the repository (Table IV /
Fig. 7 exploration, Fig. 8 multi-TPU scaling, the widened ``repro-sim sweep``
scenario space):

* **content-addressed caching** — whole points are memoised on a hash of
  the full point description, in the engine and (with a persistent store)
  across runs, so repeated points (e.g. the shared TPUv4i baseline)
  simulate once and a re-sweep simulates nothing; within one sweep, the
  analytical points of one chip configuration share a graph cache keyed on
  the chip plus the operator graph (serving points price steps elsewhere);
* **one evaluation path** — uncached points are grouped by chip
  configuration and each group is evaluated by one function, in this
  process or, with ``workers > 1`` and more than one group, in a
  ``multiprocessing`` pool; either way the groups run in the same order, so
  rows, statistics and store files are identical (bit-for-bit) for every
  worker count;
* **structured results** — rows are plain frozen dataclasses exportable to
  JSON/CSV via :mod:`repro.sweep.export`.
"""

from __future__ import annotations

import logging
import multiprocessing
from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.codec import decode, encode
from repro.obs.telemetry import Telemetry
from repro.parallel.multi_device import MultiTPUSystem
from repro.sweep.cache import CachingInferenceSimulator
from repro.sweep.fingerprint import fingerprint
from repro.sweep.grid import SweepGrid, SweepPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses cache)
    from repro.sweep.store import ResultStore, StoreView

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

    @property
    def simulations(self) -> int:
        """Graph simulations the engine's analytical points performed."""
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
                    key: str) -> SweepResult:
    """Simulate one point with the given (caching) simulator.

    The point's registered scenario drives the whole evaluation, so any
    workload family — LLM serving, DiT sampling, MoE, chat mixes, anything
    registered later — flows through this one path.  Points carrying a
    :class:`~repro.serving.spec.ServingSpec` run the discrete-event serving
    simulator instead, and map the serving report onto the common row shape
    (latency = mean end-to-end request latency, throughput = sustained
    generated tokens per second).  Their step prices come from the
    process-wide :data:`~repro.serving.costs.STEP_PRICES` table alone, so
    they never reach ``simulator`` and add no graph simulations.
    """
    spec = point.spec
    if point.serving is not None:
        # Imported lazily: repro.serving layers on top of repro.sweep, so a
        # top-level import here would be circular.  Fleet-shaped specs run
        # the cluster simulator — faulted specs too, whatever their replica
        # count, because fault injection lives at the routing layer; both
        # report types share the row mapping (latency = mean e2e,
        # throughput = sustained tokens/s).
        if point.serving.fleet:
            from repro.serving.cluster import simulate_cluster

            report = simulate_cluster(point.model, point.config, point.serving,
                                      point.settings)
            devices = report.total_devices
        else:
            from repro.serving.simulator import simulate_serving

            report = simulate_serving(point.model, point.config, point.serving,
                                      point.settings)
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


def _evaluate_group(tasks: Sequence[tuple[str, SweepPoint]],
                    telemetry: Telemetry | None = None,
                    ) -> tuple[list[SweepResult], int, int]:
    """Simulate the points of one chip configuration on one caching simulator.

    The engine groups points by chip configuration, so the graphs that
    points share (per-layer graphs across a device axis, repeated settings
    on one design) are simulated once per group.  Graph keys include the
    chip, so one cache per group gives the hits and misses one cache per
    sweep would.  The engine calls this in its own process, where
    ``telemetry`` records one ``point:`` span per point, or in a pool
    worker.

    Returns the rows in task order and the group's graph hit/miss counts.
    """
    simulator = CachingInferenceSimulator(tasks[0][1].config)
    rows: list[SweepResult] = []
    for key, point in tasks:
        span = (telemetry.wall_span("sweep", f"point:{point.design}/{point.workload}",
                                    {"scenario": point.scenario,
                                     "devices": point.devices, "key": key[:12]})
                if telemetry is not None else nullcontext())
        with span:
            rows.append(_compute_result(point, simulator, key))
    stats = simulator.cache.stats
    return rows, stats.hits, stats.misses


class SweepEngine:
    """Evaluates sweep grids with content-addressed caching and fan-out.

    An optional persistent :class:`~repro.sweep.store.ResultStore` extends
    the in-memory row cache across processes and runs: rows computed here
    are written through to the store, rows another run already computed are
    decoded from it without simulating anything.  A sweep stores rows only,
    never the cluster reports behind its fleet points.
    """

    def __init__(self, *, store: "ResultStore | StoreView | None" = None,
                 telemetry: Telemetry | None = None) -> None:
        #: Persistent cross-run store or a call's view (``None`` = in-memory).
        self.store = store
        #: Telemetry sink (wall-clock domain): per-point compute spans plus
        #: a computed-row counter.  Observation only — rows are identical
        #: with telemetry on or off.
        self.telemetry = telemetry
        #: Finished rows by point key, so a repeated point simulates once.
        self._rows: dict[str, SweepResult] = {}
        self._stats = SweepStats()

    # -------------------------------------------------------------- evaluate
    def evaluate(self, point: SweepPoint) -> SweepResult:
        """Evaluate one sweep point (served from the caches on repeats)."""
        return self.sweep([point])[0]

    def sweep(self, points: SweepGrid | Iterable[SweepPoint],
              workers: int | None = None) -> list[SweepResult]:
        """Evaluate every point; rows come back in input order.

        Each new point is looked up in the store, in input order.  The rest
        are grouped by chip configuration and the groups evaluated in order
        of first appearance: in this process when ``workers`` is at most 1
        or there is only one group, over a process pool (one task per group)
        otherwise.  A group's rows enter the row cache and the store as soon
        as the group finishes, so rows, statistics and store file are the
        same for any worker count.
        """
        resolved = list(points)
        keys = [point_key(point) for point in resolved]
        new: dict[str, SweepPoint] = {}
        for key, point in zip(keys, resolved):
            if key not in self._rows:
                new.setdefault(key, point)
        self._stats.point_hits += len(keys) - len(new)
        self._stats.point_misses += len(new)
        groups: dict[str, list[tuple[str, SweepPoint]]] = {}
        for key, point in new.items():
            restored = self._from_store(key)
            if restored is not None:
                self._rows[key] = restored
            else:
                groups.setdefault(fingerprint(point.config), []).append((key, point))
        if groups:
            self._compute(list(groups.values()), workers)
        return [self._rows[key] for key in keys]

    # --------------------------------------------------------------- helpers
    def _from_store(self, key: str) -> SweepResult | None:
        """Decode a stored row (``None`` without a store or on a miss)."""
        if self.store is None:
            return None
        return self.store.load(STORE_KIND, key, _decode_row)

    def _compute(self, groups: list[list[tuple[str, SweepPoint]]],
                 workers: int | None) -> None:
        """Evaluate the groups in order, keeping each group's rows as it ends."""
        tel = self.telemetry
        if workers is None or workers <= 1 or len(groups) == 1:
            self._keep(_evaluate_group(group, tel) for group in groups)
            return
        points = sum(len(group) for group in groups)
        logger.debug("sweep fan-out: %d point(s) in %d group(s) over up to "
                     "%d worker(s)", points, len(groups), workers)
        span = (tel.wall_span("sweep", "parallel-fanout",
                              {"points": points, "groups": len(groups)})
                if tel is not None else nullcontext())
        with multiprocessing.Pool(processes=min(workers, len(groups))) as pool, span:
            self._keep(pool.imap(_evaluate_group, groups))

    def _keep(self, outcomes: Iterable[tuple[list[SweepResult], int, int]]) -> None:
        """Add each finished group's rows and graph counts to the engine."""
        for rows, graph_hits, graph_misses in outcomes:
            self._stats.graph_hits += graph_hits
            self._stats.graph_misses += graph_misses
            if self.telemetry is not None:
                self.telemetry.count("sweep.computed", len(rows))
            for row in rows:
                self._rows[row.cache_key] = row
                if self.store is not None:
                    self.store.put(STORE_KIND, row.cache_key, encode(row))

    # ------------------------------------------------------------ statistics
    @property
    def stats(self) -> SweepStats:
        """Cache and store statistics of every sweep so far (a copy)."""
        return replace(self._stats)
