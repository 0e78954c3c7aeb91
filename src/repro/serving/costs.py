"""Per-step serving costs: one process-wide price table under per-run memos.

The discrete-event scheduler needs two primitive costs: one **prefill step**
(a batch of admitted prompts pushed through every layer of the model) and
one **decode step** (one token generated for every running request).  Both
come from the same layer graphs the analytical scenarios price — built via
the model's ``build_layer`` hook and executed through an
:class:`~repro.core.simulator.InferenceSimulator`.

Context lengths are **bucketed** (rounded up to a configurable granularity)
before they reach the graph builder, so a run only ever prices *step
states*: ``(phase, batch, context bucket)`` triples.  A step's
:class:`StepCost` is a pure function of the state plus the ``(model, chip
config, precision)`` it runs on and the chip's execution units, and two
levels hold it:

* :data:`STEP_PRICES`, one table per process, maps ``(model, chip config,
  precision, unit-registry signature)`` and then the step state to its
  cost.  Every run, replica, optimizer candidate, capacity probe and API
  call in the process reads it, so only a table miss builds and prices a
  layer graph, and a warm process prices nothing.  It holds at most
  :data:`MAX_STEP_PRICES` entries and drops the oldest first when full.
* Each :class:`StepCostModel` keeps a per-run memo in front of the table.
  The event loop reads it inline, and its hit/miss counters are the
  ``cost_cache_*`` fields of a report, so a report never depends on what
  the process priced before it.

Anything else that could change a step price must join the table's key,
as the execution units of a lent simulator do (:func:`units_signature`).
A change that applies to the whole process at once, such as a calibration
constant set at runtime, may instead call ``STEP_PRICES.clear()``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.common import Precision, ceil_div
from repro.core.config import TPUConfig
from repro.core.simulator import InferenceSimulator
from repro.sweep.cache import CacheStats
from repro.workloads.llm import LLMConfig

#: Most step prices :data:`STEP_PRICES` holds at once.  The benchmark
#: workloads fill a few hundred; a request with a one-token bucket can add
#: thousands, which the cap keeps from living as long as the process.
MAX_STEP_PRICES = 16_384


@dataclass(frozen=True)
class StepCost:
    """Latency and energy of one scheduler step on the whole model."""

    seconds: float
    mxu_energy_joules: float
    total_energy_joules: float


class StepPriceTable:
    """``(model, chip, precision, units)`` and step state to ``StepCost``.

    Each ``(model, chip config, precision, unit-registry signature)`` is
    interned to a small int scope once per cost model; prices live in one
    insertion-ordered map keyed ``(scope, phase, batch, bucket)``, so the
    oldest price is the first evicted.  Reads need no lock.  Inserts,
    evictions and clears take it, so threads sharing the table never push
    it past :data:`MAX_STEP_PRICES`.  Two threads pricing the same cold
    state both compute it and store the same value.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._scopes: dict[tuple, int] = {}
        self._prices: OrderedDict[tuple[int, str, int, int], StepCost] = \
            OrderedDict()

    def __len__(self) -> int:
        return len(self._prices)

    def get(self, key: tuple[int, str, int, int]) -> StepCost | None:
        """One held price, or ``None``."""
        return self._prices.get(key)

    def scope(self, model: LLMConfig, tpu_config: TPUConfig,
              precision: Precision, units: tuple) -> int:
        """The interned id of one pricing scope."""
        with self._lock:
            return self._scopes.setdefault(
                (model, tpu_config, precision, units), len(self._scopes))

    def hold(self, key: tuple[int, str, int, int], cost: StepCost) -> None:
        """Store one priced state, evicting the oldest price when full."""
        with self._lock:
            if key in self._prices:
                return
            self._prices[key] = cost
            if len(self._prices) > MAX_STEP_PRICES:
                self._prices.popitem(last=False)

    def clear(self) -> None:
        """Forget every price, for cost models made before the clear too.

        Their per-run memos keep the prices they already looked up.
        """
        with self._lock:
            self._prices.clear()

    def _after_fork(self) -> None:
        # A fork while another thread held the lock would leave the child's
        # copy locked forever; the child is single-threaded, so start over.
        self._lock = threading.Lock()


def units_signature(simulator: InferenceSimulator) -> tuple:
    """What the simulator's execution-unit registry adds to a step price.

    A unit registered on a lent simulator's ``TPUModel``, or an operator
    pinned to another unit, changes prices under the same chip config, so
    the registered units (name and type) and the operator pins join the
    table's key.
    """
    registry = simulator.model.units
    return (tuple((unit.name, type(unit)) for unit in registry.units),
            tuple(registry._dispatch.items()))


#: The process-wide step-price table every :class:`StepCostModel` reads.
STEP_PRICES = StepPriceTable()
# The sweep engine's worker pool forks, and another thread (a gateway
# worker, say) may hold the table's lock at that instant.
if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=STEP_PRICES._after_fork)


class StepCostModel:
    """Memoised ``(phase, batch, context-bucket) -> StepCost`` pricing.

    One instance serves one run (or one replica, probe or estimate) of one
    ``(model, chip, precision)`` triple.  A miss in its per-run memo reads
    :data:`STEP_PRICES`; only a table miss builds the layer graph and
    prices it on ``simulator``, whose chip and execution units are the ones
    the table keys on.
    """

    def __init__(self, model: LLMConfig, simulator: InferenceSimulator,
                 precision: Precision = Precision.INT8,
                 bucket_tokens: int = 256) -> None:
        if bucket_tokens <= 0:
            raise ValueError("bucket_tokens must be positive")
        self.model = model
        self.simulator = simulator
        self.precision = precision
        self.bucket_tokens = bucket_tokens
        self.stats = CacheStats()
        self._memo: dict[tuple[str, int, int], StepCost] = {}
        self._scope = STEP_PRICES.scope(model, simulator.tpu_config,
                                        precision, units_signature(simulator))

    def bucket(self, tokens: int) -> int:
        """Round a token count up to its pricing bucket."""
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        return ceil_div(tokens, self.bucket_tokens) * self.bucket_tokens

    @property
    def distinct_states(self) -> int:
        """Number of distinct (phase, batch, bucket) states looked up so far."""
        return len(self._memo)

    def prefill_cost(self, batch: int, input_tokens: int) -> StepCost:
        """Cost of prefilling ``batch`` prompts of (bucketed) length."""
        return self._step("prefill", batch, self.bucket(input_tokens))

    def decode_cost(self, batch: int, context_tokens: int) -> StepCost:
        """Cost of one decode token for ``batch`` requests at a (bucketed)
        KV-cache length."""
        return self._step("decode", batch, self.bucket(context_tokens))

    # --------------------------------------------------------------- internal
    def _step(self, phase: str, batch: int, bucket: int) -> StepCost:
        if batch <= 0:
            raise ValueError("batch must be positive")
        key = (phase, batch, bucket)
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        price_key = (self._scope, phase, batch, bucket)
        cost = STEP_PRICES.get(price_key)
        if cost is None:
            graph = self.model.build_layer(phase, batch, bucket, kv_len=bucket,
                                           precision=self.precision)
            result = self.simulator.run_graph(graph)
            layers = self.model.num_layers
            cost = StepCost(seconds=result.total_seconds * layers,
                            mxu_energy_joules=result.mxu_energy * layers,
                            total_energy_joules=result.total_energy.total * layers)
            STEP_PRICES.hold(price_key, cost)
        self._memo[key] = cost
        return cost
