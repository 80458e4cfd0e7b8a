"""Configuration for the analytical global placer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist


@dataclass
class GPConfig:
    """Knobs of the electrostatic global placement engine.

    The engine's schedule constants (WA gamma, the density-force cap,
    the first-step size, the stop overflow) are module constants of
    :mod:`repro.place.global_placer` and :mod:`repro.wirelength.wa`.

    Attributes
    ----------
    target_density:
        Maximum allowed bin occupancy ``D_b``.
    max_iters:
        Iteration cap for one placement run.
    seed:
        RNG seed for initial placement jitter and filler scatter.
    """

    target_density: float = 0.9
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_density <= 1.0 + 1e-9:
            raise ValueError("target_density must be in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def auto_grid_dim(n_cells: int) -> int:
    """Power-of-two grid dimension adapted to the design size."""
    import math

    approx = int(math.sqrt(max(n_cells, 1)))
    dim = 16
    while dim < approx and dim < 256:
        dim *= 2
    return dim


def placement_grid(netlist: Netlist) -> Grid2D:
    """The bin grid of ``netlist``: :func:`auto_grid_dim` bins a side.

    That is a power of two near ``sqrt(n_cells)``, clamped to
    [16, 256].  The paper maps G-cells and bins one-to-one
    (Sec. II-B), so the routing grid of the placement flow is this
    grid too.
    """
    dim = auto_grid_dim(netlist.n_cells)
    return Grid2D(netlist.die, dim, dim)
