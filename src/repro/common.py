"""Shared primitives used across the CIM-TPU model packages.

This module intentionally stays tiny: the numeric precision enum shared by
workloads and hardware models, and a couple of arithmetic helpers that appear
in every cycle-count derivation.
"""

from __future__ import annotations

import enum
import math


class Precision(enum.Enum):
    """Numeric formats supported by the MXUs (the paper evaluates both).

    Each member's widths are plain attributes, set once when the enum is
    built, because the cost model reads them in its innermost loops:

    * ``bits`` -- bit width of one operand;
    * ``bytes`` -- byte width of one operand;
    * ``mantissa_bits`` -- bits that enter the integer MAC datapath (CIM FP
      mode loads mantissas);
    * ``accumulator_bytes`` -- byte width of an accumulated partial sum /
      output element.
    """

    INT8 = "int8"
    BF16 = "bf16"

    def __init__(self, value: str) -> None:
        self.bits: int = {"int8": 8, "bf16": 16}[value]
        self.bytes: int = self.bits // 8
        self.mantissa_bits: int = 8
        self.accumulator_bytes: int = 4


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division; denominator must be positive."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range [low, high]."""
    if low > high:
        raise ValueError(f"invalid clamp range [{low}, {high}]")
    return max(low, min(high, value))


def cycles_to_seconds(cycles: float, frequency_ghz: float) -> float:
    """Convert a cycle count to seconds at the given clock frequency."""
    if frequency_ghz <= 0:
        raise ValueError("frequency must be positive")
    return cycles / (frequency_ghz * 1e9)


def seconds_to_cycles(seconds: float, frequency_ghz: float) -> float:
    """Convert a duration in seconds to clock cycles."""
    if frequency_ghz <= 0:
        raise ValueError("frequency must be positive")
    return seconds * frequency_ghz * 1e9


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (used for speedup aggregation)."""
    if not values:
        raise ValueError("cannot take the geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
