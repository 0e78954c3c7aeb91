"""Digital compute-in-memory (CIM) macro, core and CIM-MXU models.

This package implements the paper's primary hardware contribution: a matrix
multiply unit built from a two-dimensional systolic grid of digital SRAM CIM
cores (Fig. 4 of the paper).  The hierarchy is:

* :class:`repro.cim.macro.CIMMacro` — one digital SRAM CIM macro: banks of
  bitcell sub-arrays with local readout/compute circuits, an adder tree per
  bank, bit-serial input broadcast and a dedicated weight I/O port that allows
  weight updates to proceed concurrently with computation.
* :class:`repro.cim.core.CIMCore` — a macro plus shift-accumulator, partial-sum
  buffer and input drivers; the unit replicated across the CIM-MXU grid.
* :class:`repro.cim.mxu.CIMMXU` — the grid of CIM cores with systolic input
  propagation (row dimension) and weight propagation (column dimension),
  exposing the same GEMM interface as the baseline digital MXU.
"""

from repro.cim.macro import CIMMacroConfig, CIMMacro
from repro.cim.core import CIMCore
from repro.cim.mxu import CIMMXUConfig, CIMMXU, CIMCycleBreakdown
from repro.cim.energy import CIMEnergyReport, macro_energy_report

__all__ = [
    "CIMMacroConfig",
    "CIMMacro",
    "CIMCore",
    "CIMMXUConfig",
    "CIMMXU",
    "CIMCycleBreakdown",
    "CIMEnergyReport",
    "macro_energy_report",
]
