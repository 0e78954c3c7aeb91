"""Multi-device parallelism: pipeline and tensor parallelism over ICI rings.

The paper scales its evaluation to up to four TPUs interconnected in a ring
through the two per-chip ICI links, using pipeline parallelism (and tensor
parallelism within a layer where beneficial) to accommodate large batch sizes
and model footprints.  :class:`MultiTPUSystem` models both schemes on top of
the single-chip simulator.
"""

from repro.parallel.multi_device import MultiTPUSystem, MultiDeviceResult

__all__ = [
    "MultiTPUSystem",
    "MultiDeviceResult",
]
