"""Scheduling model: double buffering and memory coalescing.

The paper's mapping engine overlaps computation with memory access through
double buffering and memory coalescing "at each level of the memory
hierarchy".  At the analytical granularity of this simulator that reduces to
one question per operator: is its latency ``max(compute, transfer)`` or
``compute + transfer``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScheduleOptions:
    """Scheduling knobs exposed to the architecture exploration."""

    double_buffering: bool = True
    memory_coalescing: bool = True

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        parts = []
        parts.append("double-buffered" if self.double_buffering else "serialised")
        parts.append("coalesced" if self.memory_coalescing else "strided")
        return ", ".join(parts)


def overlapped_operator_latency(compute_cycles: float, weight_transfer_cycles: float,
                                activation_transfer_cycles: float,
                                double_buffered: bool = True) -> float:
    """Operator-level latency combining compute with its two transfer streams.

    Weight traffic (HBM) and activation traffic (on-chip interconnect) use
    different physical resources, so they proceed in parallel with each other;
    whether they overlap *compute* is governed by double buffering.
    """
    for value in (compute_cycles, weight_transfer_cycles, activation_transfer_cycles):
        if value < 0:
            raise ValueError("cycle counts must be non-negative")
    transfers = max(weight_transfer_cycles, activation_transfer_cycles)
    if double_buffered:
        return max(compute_cycles, transfers)
    return compute_cycles + transfers
