"""Operator graph: the unit of work handed to the simulator.

A graph is an ordered sequence of operators with optional explicit
dependencies.  Generative-model layers are almost perfectly sequential at the
operator granularity the paper models (each operator consumes the previous
operator's output), so the default dependency structure is a chain; explicit
edges are supported so model builders can express the few genuinely parallel
branches (e.g. the DiT conditioning MLP, which is independent of the token
path until the shift-and-scale).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.workloads.operators import LayerCategory, MatMulOp, Operator


@dataclass
class OperatorGraph:
    """An ordered collection of operators with dependency edges."""

    name: str
    operators: list[Operator] = field(default_factory=list)
    #: Mapping from operator index to the indices it depends on.  An absent
    #: entry means "depends on the previous operator" (sequential chain).
    dependencies: dict[int, list[int]] = field(default_factory=dict)

    def add(self, operator: Operator, depends_on: list[int] | None = None) -> int:
        """Append an operator; returns its index in the graph."""
        index = len(self.operators)
        self.operators.append(operator)
        if depends_on is not None:
            for dep in depends_on:
                if not 0 <= dep < index:
                    raise ValueError(
                        f"operator '{operator.name}' depends on invalid index {dep}")
            self.dependencies[index] = list(depends_on)
        return index

    def extend(self, other: "OperatorGraph") -> None:
        """Append every operator of another graph, preserving its edges."""
        offset = len(self.operators)
        for index, operator in enumerate(other.operators):
            deps = other.dependencies.get(index)
            shifted = [d + offset for d in deps] if deps is not None else None
            self.add(operator, shifted)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def predecessors(self, index: int) -> list[int]:
        """Indices the operator at ``index`` depends on."""
        if not 0 <= index < len(self.operators):
            raise IndexError(f"operator index {index} out of range")
        if index in self.dependencies:
            return list(self.dependencies[index])
        return [index - 1] if index > 0 else []

    # ------------------------------------------------------------ summaries
    @property
    def matmul_operators(self) -> list[MatMulOp]:
        """All matrix-unit operators in the graph."""
        return [op for op in self.operators if isinstance(op, MatMulOp)]

    @property
    def vector_operators(self) -> list[Operator]:
        """All vector-unit operators in the graph."""
        return [op for op in self.operators if not isinstance(op, MatMulOp)]

    @property
    def total_macs(self) -> int:
        """Total MACs across all matmul operators."""
        return sum(op.macs for op in self.matmul_operators)

    def categories(self) -> list[LayerCategory]:
        """Distinct layer categories present, in first-appearance order."""
        seen: list[LayerCategory] = []
        for operator in self.operators:
            if operator.category not in seen:
                seen.append(operator.category)
        return seen

    def by_category(self) -> dict[LayerCategory, list[Operator]]:
        """Group operators by their layer category."""
        grouped: dict[LayerCategory, list[Operator]] = {}
        for operator in self.operators:
            grouped.setdefault(operator.category, []).append(operator)
        return grouped

    def scaled(self, repeat: int) -> "OperatorGraph":
        """A graph representing ``repeat`` sequential executions of this graph.

        Used to expand a single Transformer layer into the full layer stack
        without duplicating operator objects ``repeat`` times: the simulator
        multiplies per-layer results instead, but some analyses (e.g. the
        Fig. 2d whole-model breakdown) want an explicit expanded graph.
        """
        if repeat <= 0:
            raise ValueError("repeat must be positive")
        expanded = OperatorGraph(name=f"{self.name}_x{repeat}")
        for _ in range(repeat):
            expanded.extend(self)
        return expanded
