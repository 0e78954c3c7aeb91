"""Digital systolic-array MXU substrate (the TPUv4i baseline matrix unit).

The paper evaluates its baseline with SCALE-Sim [26] over a Gemmini-generated
128×128 systolic array.  This package re-implements the SCALE-Sim analytical
cycle model (:mod:`repro.systolic.dataflows`) and wraps it, together with the
energy/area calibration, into a
:class:`repro.systolic.systolic_array.DigitalMXU` component model that the
chip-level simulator instantiates.
"""

from repro.systolic.dataflows import Dataflow, systolic_gemm_cycles, SystolicCycleBreakdown
from repro.systolic.systolic_array import SystolicArrayConfig, DigitalMXU, MXUComputeResult

__all__ = [
    "Dataflow",
    "systolic_gemm_cycles",
    "SystolicCycleBreakdown",
    "SystolicArrayConfig",
    "DigitalMXU",
    "MXUComputeResult",
]
