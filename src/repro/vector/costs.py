"""Open registry of vector-operator cost models.

The chip model used to hard-code an ``isinstance`` chain mapping each vector
operator type to its scalar-op/traffic cost function.  This module replaces
that chain with a registry keyed by :class:`~repro.workloads.operators.Operator`
subclass, so new vector operators (e.g. the MoE gating operator in
:mod:`repro.workloads.moe`) plug in without touching ``repro.core``.

A cost model reduces one operator instance to the triple the
:class:`~repro.vector.vpu.VectorUnit` consumes: total scalar operations,
input bytes and output bytes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.vector.activations import elementwise_op_counts, gelu_tanh_op_counts
from repro.vector.layernorm import layernorm_op_counts
from repro.vector.softmax import softmax_op_counts
from repro.workloads.operators import (
    ElementwiseOp,
    GeLUOp,
    LayerNormOp,
    Operator,
    SoftmaxOp,
)


@dataclass(frozen=True)
class VectorOpCost:
    """Scalar-op count and operand traffic of one vector operator."""

    total_ops: int
    input_bytes: int
    output_bytes: int

    def __post_init__(self) -> None:
        if self.total_ops < 0 or self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("vector cost components must be non-negative")


#: A cost model maps one operator instance to its :class:`VectorOpCost`.
VectorCostModel = Callable[[Operator], VectorOpCost]

_COST_MODELS: dict[type, VectorCostModel] = {}


def register_vector_cost(operator_type: type, model: VectorCostModel,
                         overwrite: bool = False) -> None:
    """Register the cost model of a vector operator type.

    Raises
    ------
    ValueError
        If the type already has a cost model and ``overwrite`` is not set.
    """
    if operator_type in _COST_MODELS and not overwrite:
        raise ValueError(
            f"operator type '{operator_type.__name__}' already has a vector cost model")
    _COST_MODELS[operator_type] = model


def registered_vector_operator_types() -> tuple[type, ...]:
    """Operator types with a registered vector cost model."""
    return tuple(_COST_MODELS)


def vector_cost(op: Operator) -> VectorOpCost:
    """Evaluate the registered cost model of ``op``.

    Resolution walks the operator's MRO so subclasses inherit the cost model
    of their base type unless they register a more specific one.

    Raises
    ------
    TypeError
        If no registered cost model covers the operator's type.
    """
    for base in type(op).__mro__:
        model = _COST_MODELS.get(base)
        if model is not None:
            return model(op)
    known = ", ".join(sorted(t.__name__ for t in _COST_MODELS))
    raise TypeError(
        f"no vector cost model for operator type '{type(op).__name__}' "
        f"(registered: {known})")


# ------------------------------------------------------- built-in cost models
def _softmax_cost(op: SoftmaxOp) -> VectorOpCost:
    cost = softmax_op_counts(op.rows, op.row_length, op.precision.bytes)
    return VectorOpCost(cost.total_ops, cost.input_bytes, cost.output_bytes)


def _layernorm_cost(op: LayerNormOp) -> VectorOpCost:
    cost = layernorm_op_counts(op.rows, op.hidden_dim, op.precision.bytes)
    return VectorOpCost(cost.total_ops, cost.input_bytes, cost.output_bytes)


def _gelu_cost(op: GeLUOp) -> VectorOpCost:
    cost = gelu_tanh_op_counts(op.elements, op.precision.bytes)
    return VectorOpCost(cost.total_ops, cost.input_bytes, cost.output_bytes)


def _elementwise_cost(op: ElementwiseOp) -> VectorOpCost:
    cost = elementwise_op_counts(op.name, op.elements, op.ops_per_element,
                                 op.operands, op.precision.bytes)
    return VectorOpCost(cost.total_ops, cost.input_bytes, cost.output_bytes)


register_vector_cost(SoftmaxOp, _softmax_cost)
register_vector_cost(LayerNormOp, _layernorm_cost)
register_vector_cost(GeLUOp, _gelu_cost)
register_vector_cost(ElementwiseOp, _elementwise_cost)
