"""Electrostatic system: density penalty D(x, y), energy and forces.

Ties the rasterizer and the Poisson solver together, exactly as ePlace
does for the density term of Eq. (2) and as the paper re-uses for the
congestion term C(x, y) of Eq. (5):

* scatter charges (cell areas, or congestion demand) into the grid;
* solve Poisson's equation for potential ``psi`` and field ``E``;
* energy = ``1/2 * sum_i q_i psi_i``  (Eq. 2 / Sec. II-B);
* force on cell i = ``q_i * E`` averaged over the footprint, which is
  the negative gradient of the energy with respect to the position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.density.poisson import PoissonSolver
from repro.density.rasterize import CellRasterizer
from repro.geometry.grid import Grid2D
from repro.utils.contracts import CONTRACTS


@dataclass
class FieldSolution:
    """Everything one electrostatic solve produces."""

    density: np.ndarray
    potential: np.ndarray
    field_x: np.ndarray
    field_y: np.ndarray
    energy: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    overflow: float


class ElectrostaticSystem:
    """Density engine bound to a grid, with optional static obstacles.

    Parameters
    ----------
    grid:
        Placement bin grid.
    target_density:
        Allowed occupancy ratio per bin (``D_b`` of the constraint in
        the wirelength-driven formulation); used for the overflow
        metric.
    static_charge:
        Optional precomputed charge map of fixed cells/macros added to
        every solve (they repel movable cells but feel no force).
    """

    def __init__(
        self,
        grid: Grid2D,
        target_density: float = 1.0,
        static_charge: np.ndarray | None = None,
    ) -> None:
        if not 0.0 < target_density <= 1.0 + 1e-9:
            raise ValueError("target_density must be in (0, 1]")
        self.grid = grid
        self.target_density = target_density
        self.solver = PoissonSolver(grid)
        if static_charge is not None and static_charge.shape != grid.shape:
            raise ValueError("static_charge shape mismatch")
        self.static_charge = static_charge

    @staticmethod
    def static_charge_from(
        grid: Grid2D,
        x: np.ndarray,
        y: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
    ) -> np.ndarray:
        """Rasterize fixed geometry once (no smoothing: exact areas)."""
        return CellRasterizer(grid, x, y, width, height, smooth=False).charge_map()

    def solve(
        self,
        x: np.ndarray,
        y: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
    ) -> FieldSolution:
        """Solve the electrostatic system for movable rectangles.

        ``width``/``height`` may already include inflation.  Returns
        density map (occupancy ratio incl. static charge), potential,
        field, total energy and per-rectangle forces (gradients of the
        energy w.r.t. centers are ``-force``; we return the *descent*
        gradient, i.e. ``grad = -q E`` so that ``pos -= step * grad``
        moves cells downhill).
        """
        raster = CellRasterizer(self.grid, x, y, width, height, smooth=True)
        charge = raster.charge_map()
        if self.static_charge is not None:
            charge = charge + self.static_charge
        density = charge / self.grid.bin_area

        psi, ex, ey = self.solver.solve(density)
        energy = 0.5 * float(raster.gather(psi).sum())
        # Descent gradient of the energy: dD/dx_i = -q_i * E_x(i)
        grad_x = -raster.gather(ex)
        grad_y = -raster.gather(ey)

        overflow = self.overflow(density, movable_area=float(raster.total_charge()))
        if CONTRACTS.enabled:
            site = "electrostatic.solve"
            CONTRACTS.check_array(site, "density", density, finite=True)
            CONTRACTS.check_array(site, "potential", psi, finite=True)
            CONTRACTS.check_array(site, "grad_x", grad_x, finite=True)
            CONTRACTS.check_array(site, "grad_y", grad_y, finite=True)
            CONTRACTS.check_charge_neutrality(site, psi)
            CONTRACTS.check_field_energy(site, density, psi)
        return FieldSolution(
            density=density,
            potential=psi,
            field_x=ex,
            field_y=ey,
            energy=energy,
            grad_x=grad_x,
            grad_y=grad_y,
            overflow=overflow,
        )

    def overflow(self, density: np.ndarray, movable_area: float) -> float:
        """Density overflow ratio: spilled area / total movable area."""
        if movable_area <= 0:
            return 0.0
        spill = np.maximum(density - self.target_density, 0.0).sum() * self.grid.bin_area
        return float(spill / movable_area)
