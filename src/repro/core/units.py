"""Pluggable execution units and the operator-dispatch registry.

The chip model used to route operators with ``isinstance`` chains — MatMul to
the matrix units, everything else through a hard-coded vector-cost ladder.
This module replaces that with two open abstractions:

* :class:`ExecutionUnit` — the protocol a compute unit implements: a
  capability declaration (:meth:`ExecutionUnit.supports`), a cost model
  (:meth:`ExecutionUnit.cost` returning a :class:`UnitCost`), and an idle
  leakage model (:meth:`ExecutionUnit.idle_energy`).
* :class:`ExecutionUnitRegistry` — maps operator types to units and applies
  the paper's energy convention generically: the dispatched unit contributes
  its busy cost, and **every other registered unit** contributes idle leakage
  over the operator's runtime (the MXUs leak while the VPU computes a Softmax
  and vice versa), so per-category energy bars still add up to chip totals.

New operators and units register from anywhere — a workload module, a test —
without modifying ``repro.core``: implement the protocol, then call
:meth:`ExecutionUnitRegistry.register_unit` (and, for an operator type no
unit claims via its capability declaration,
:meth:`ExecutionUnitRegistry.register_operator`).
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.results import OperatorResult
from repro.hw.energy import EnergyBudget
from repro.mapping.engine import MappingEngine
from repro.memory.hierarchy import MemoryHierarchy
from repro.vector.costs import vector_cost
from repro.vector.vpu import VectorUnit
from repro.workloads.operators import Operator


class UnsupportedOperatorError(TypeError):
    """No registered execution unit can run the operator.

    Carries the registered operator types so callers (and error messages) can
    say exactly what the chip *does* support.
    """

    def __init__(self, operator: Operator, registered: tuple[type, ...]) -> None:
        self.operator = operator
        self.registered_types = registered
        known = ", ".join(sorted(t.__name__ for t in registered)) or "none"
        super().__init__(
            f"no execution unit supports operator '{operator.name}' of type "
            f"{type(operator).__name__}; registered operator types: {known}")


@dataclass(frozen=True)
class UnitCost:
    """Busy cost of one operator on its execution unit.

    This is the *intermediate* result the dispatch registry turns into an
    :class:`~repro.core.results.OperatorResult`: it covers the dispatched
    unit's own work (dynamic energy, busy leakage and unit-internal idle, e.g.
    MXUs a mapping leaves unused) but not the cross-unit idle leakage, which
    the registry adds uniformly.
    """

    cycles: float
    energy: EnergyBudget
    bound: str                    # "compute" or "memory"
    utilization: float
    busy_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.busy_cycles < 0:
            raise ValueError("cycle counts must be non-negative")


class ExecutionUnit(abc.ABC):
    """Protocol of a compute unit the dispatch registry can route to."""

    #: Short identifier used in :class:`OperatorResult.unit` and registries.
    name: str

    @abc.abstractmethod
    def supports(self, op: Operator) -> bool:
        """Capability declaration: whether this unit can execute ``op``."""

    def declared_operator_types(self) -> tuple[type, ...]:
        """Operator types this unit claims, for diagnostics.

        Optional: units whose capability is not enumerable may return an
        empty tuple; ``supports`` remains the authoritative check.
        """
        return ()

    @abc.abstractmethod
    def cost(self, op: Operator) -> UnitCost:
        """Cycles and busy energy of executing ``op`` on this unit."""

    @abc.abstractmethod
    def idle_energy(self, cycles: float) -> EnergyBudget:
        """Leakage burned while this unit waits ``cycles`` for another unit."""


class ExecutionUnitRegistry:
    """Routes operators to execution units with uniform energy accounting."""

    def __init__(self) -> None:
        self._units: dict[str, ExecutionUnit] = {}
        self._dispatch: dict[type, str] = {}

    # ---------------------------------------------------------- registration
    def register_unit(self, unit: ExecutionUnit, overwrite: bool = False) -> None:
        """Add a unit; it becomes a dispatch target and an idle-leakage payer.

        Raises
        ------
        ValueError
            If a unit of the same name exists and ``overwrite`` is not set.
        """
        if unit.name in self._units and not overwrite:
            raise ValueError(f"execution unit '{unit.name}' is already registered")
        self._units[unit.name] = unit

    def register_operator(self, operator_type: type, unit_name: str,
                          overwrite: bool = False) -> None:
        """Pin an operator type to a unit, overriding capability scans.

        Raises
        ------
        KeyError
            If no unit of that name is registered.
        ValueError
            If the type is already pinned and ``overwrite`` is not set.
        """
        if unit_name not in self._units:
            known = ", ".join(sorted(self._units)) or "none"
            raise KeyError(f"unknown execution unit '{unit_name}' (registered: {known})")
        if operator_type in self._dispatch and not overwrite:
            raise ValueError(
                f"operator type '{operator_type.__name__}' is already mapped to "
                f"'{self._dispatch[operator_type]}'")
        self._dispatch[operator_type] = unit_name

    # ------------------------------------------------------------ inspection
    @property
    def units(self) -> tuple[ExecutionUnit, ...]:
        """Registered units in registration order."""
        return tuple(self._units.values())

    def unit(self, name: str) -> ExecutionUnit:
        """Look up a unit by name (KeyError if absent)."""
        return self._units[name]

    def known_operator_types(self) -> tuple[type, ...]:
        """Every operator type reachable: pins plus unit capability declarations."""
        types = dict.fromkeys(self._dispatch)
        for unit in self._units.values():
            types.update(dict.fromkeys(unit.declared_operator_types()))
        return tuple(types)

    def unit_for(self, op: Operator) -> ExecutionUnit:
        """Resolve the unit that will execute ``op``.

        Resolution order: explicit pins (walking the operator's MRO, so
        subclasses follow their base type), then each unit's capability
        declaration in registration order.

        Raises
        ------
        UnsupportedOperatorError
            If neither a pin nor a capability declaration covers the type.
        """
        for base in type(op).__mro__:
            unit_name = self._dispatch.get(base)
            if unit_name is not None:
                return self._units[unit_name]
        for unit in self._units.values():
            if unit.supports(op):
                return unit
        raise UnsupportedOperatorError(op, self.known_operator_types())

    # -------------------------------------------------------------- dispatch
    def run(self, op: Operator,
            cycles_to_seconds: Callable[[float], float]) -> OperatorResult:
        """Execute ``op`` on its unit with uniform busy+idle accounting."""
        unit = self.unit_for(op)
        cost = unit.cost(op)
        energy = cost.energy
        for other in self._units.values():
            if other is not unit:
                energy.merge(other.idle_energy(cost.cycles))
        return OperatorResult(
            operator=op,
            cycles=cost.cycles,
            seconds=cycles_to_seconds(cost.cycles),
            energy=energy,
            unit=unit.name,
            bound=cost.bound,
            utilization=cost.utilization,
            mxu_busy_cycles=cost.busy_cycles,
        )


# ------------------------------------------------------------- built-in units
class MatrixExecutionUnit(ExecutionUnit):
    """The chip's matrix units behind the mapping engine.

    Wraps whichever MXU flavour the chip installs (digital systolic or CIM);
    both declare their operator capability via ``supported_operator_types``
    and expose the same compute/idle interfaces, so this adapter is agnostic
    to the flavour.
    """

    name = "mxu"

    def __init__(self, engine: MappingEngine, template, count: int) -> None:
        self.engine = engine
        self.template = template
        self.count = count

    def supports(self, op: Operator) -> bool:
        return isinstance(op, self.template.supported_operator_types())

    def declared_operator_types(self) -> tuple[type, ...]:
        return self.template.supported_operator_types()

    def cost(self, op: Operator) -> UnitCost:
        mapping = self.engine.map_matmul(op)
        energy = mapping.energy

        # Unit-internal idle: MXUs the mapping does not use, plus the stall
        # time of the used MXUs when the operator is memory-bound.
        used = mapping.candidate.mxu_count
        idle_mxu_cycles = (self.count * mapping.total_cycles
                           - used * mapping.mxu_busy_cycles)
        if idle_mxu_cycles > 0:
            energy.merge(self.template.idle_energy(idle_mxu_cycles))

        return UnitCost(
            cycles=mapping.total_cycles,
            energy=energy,
            bound=mapping.bound,
            utilization=mapping.utilization,
            busy_cycles=mapping.mxu_busy_cycles,
        )

    def idle_energy(self, cycles: float) -> EnergyBudget:
        """All matrix units leak while another unit runs an operator."""
        return self.template.idle_energy(self.count * cycles)


class VectorExecutionUnit(ExecutionUnit):
    """The chip's vector unit plus its CMEM↔VMEM operand staging."""

    name = "vpu"

    def __init__(self, vpu: VectorUnit, hierarchy: MemoryHierarchy,
                 double_buffering: bool) -> None:
        self.vpu = vpu
        self.hierarchy = hierarchy
        self.double_buffering = double_buffering

    def supports(self, op: Operator) -> bool:
        """Capability: any operator with a registered vector cost model."""
        return isinstance(op, self.vpu.supported_operator_types())

    def declared_operator_types(self) -> tuple[type, ...]:
        return self.vpu.supported_operator_types()

    def cost(self, op: Operator) -> UnitCost:
        op_cost = vector_cost(op)
        vpu_result = self.vpu.execute(op_cost.total_ops, op_cost.input_bytes,
                                      op_cost.output_bytes)
        transfer = self.hierarchy.cmem_to_vmem(op_cost.input_bytes + op_cost.output_bytes)
        if self.double_buffering:
            cycles = max(vpu_result.cycles, transfer.cycles)
        else:
            cycles = vpu_result.cycles + transfer.cycles

        energy = vpu_result.energy
        energy.merge(transfer.energy)
        bound = "compute" if vpu_result.cycles >= transfer.cycles else "memory"
        return UnitCost(cycles=cycles, energy=energy, bound=bound, utilization=0.0)

    def idle_energy(self, cycles: float) -> EnergyBudget:
        return self.vpu.idle_energy(cycles)
