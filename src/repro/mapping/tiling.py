"""Tile shapes and buffer-fitting utilities used by the mapping engine.

A GEMM is staged through the memory hierarchy in tiles: CMEM holds a
``[L_tileM, D_tileK] × [D_tileK, D_tileN]`` working set, and VMEM holds the
sub-tiles currently being fed to the MXUs (Fig. 5 of the paper).  The helpers
in this module compute tile footprints and pick the largest VMEM tile that
still allows double buffering, which is how the paper's scheduler hides
memory transfers behind computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import Precision, ceil_div


@dataclass(frozen=True)
class TileShape:
    """Dimensions of one GEMM tile."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError(f"tile dimensions must be positive, got {self}")

    @property
    def macs(self) -> int:
        """MAC operations in the tile."""
        return self.m * self.k * self.n


@dataclass(frozen=True)
class Tiling:
    """A full tiling of a GEMM: the tile shape plus the tile grid."""

    problem: TileShape
    tile: TileShape

    def __post_init__(self) -> None:
        if self.tile.m > self.problem.m or self.tile.k > self.problem.k or self.tile.n > self.problem.n:
            raise ValueError("tile must not exceed the problem in any dimension")

    @property
    def m_tiles(self) -> int:
        """Number of tiles along M."""
        return ceil_div(self.problem.m, self.tile.m)

    @property
    def k_tiles(self) -> int:
        """Number of tiles along K."""
        return ceil_div(self.problem.k, self.tile.k)

    @property
    def n_tiles(self) -> int:
        """Number of tiles along N."""
        return ceil_div(self.problem.n, self.tile.n)

    @property
    def num_tiles(self) -> int:
        """Total tiles covering the problem."""
        return self.m_tiles * self.k_tiles * self.n_tiles

    def covers_problem(self) -> bool:
        """Whether the tile grid covers every element of the problem."""
        return (self.m_tiles * self.tile.m >= self.problem.m
                and self.k_tiles * self.tile.k >= self.problem.k
                and self.n_tiles * self.tile.n >= self.problem.n)


def matmul_tile_bytes(tile: TileShape, precision: Precision,
                      include_output: bool = True) -> int:
    """Operand footprint of one GEMM tile (input + weight [+ output])."""
    return _tile_bytes(tile.m, tile.k, tile.n, precision, include_output)


def _tile_bytes(m: int, k: int, n: int, precision: Precision,
                include_output: bool = True) -> int:
    input_bytes = m * k * precision.bytes
    weight_bytes = k * n * precision.bytes
    output_bytes = m * n * precision.accumulator_bytes if include_output else 0
    return input_bytes + weight_bytes + output_bytes


def choose_vmem_tiling(m: int, k: int, n: int, precision: Precision,
                       vmem_capacity_bytes: int, double_buffered: bool = True,
                       mxu_k_extent: int = 128, mxu_n_extent: int = 128) -> Tiling:
    """Pick a VMEM tiling for an ``[m, k] × [k, n]`` GEMM.

    The heuristic follows the paper's mapspace pruning: keep the reduction
    dimension (K) as large as the buffer allows (minimising partial-sum
    traffic), keep N at least one MXU extent wide, and shrink M last because
    M governs input-operand reuse of the stationary weights.

    The returned tile is guaranteed to fit ``vmem_capacity_bytes`` (halved if
    double buffering is requested) unless even a minimal one-extent tile does
    not fit, in which case a ``MemoryError`` is raised.
    """
    problem = TileShape(m, k, n)
    budget = vmem_capacity_bytes // (2 if double_buffered else 1)

    tile_m, tile_k, tile_n = m, k, n
    # Shrink in priority order (M, then N, then K) until the tile fits.
    while _tile_bytes(tile_m, tile_k, tile_n, precision) > budget:
        if tile_m > mxu_k_extent and tile_m >= tile_n:
            tile_m = max(mxu_k_extent, tile_m // 2)
        elif tile_n > mxu_n_extent:
            tile_n = max(mxu_n_extent, tile_n // 2)
        elif tile_k > mxu_k_extent:
            tile_k = max(mxu_k_extent, tile_k // 2)
        elif tile_m > 1:
            tile_m = max(1, tile_m // 2)
        else:
            raise MemoryError(
                f"cannot fit a minimal tile of GEMM [{m},{k}]x[{k},{n}] "
                f"({precision.value}) into {vmem_capacity_bytes} bytes of VMEM")
    return Tiling(problem=problem, tile=TileShape(tile_m, tile_k, tile_n))
