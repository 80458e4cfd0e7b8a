"""Electrostatic system: density penalty D(x, y), energy and forces.

Ties the rasterizer and the Poisson solver together, exactly as ePlace
does for the density term of Eq. (2) and as the paper re-uses for the
congestion term C(x, y) of Eq. (5):

* scatter charges (cell areas, or congestion demand) into the grid;
* solve Poisson's equation for potential ``psi`` and field ``E``;
* energy = ``1/2 * sum_i q_i psi_i``  (Eq. 2 / Sec. II-B);
* force on cell i = ``q_i * E`` averaged over the footprint, which is
  the negative gradient of the energy with respect to the position.

A placer solves at fixed sizes for many positions, so the system keeps
one :class:`CellRasterizer` and only moves it while the sizes stay the
same.  The forces need the field alone; ``psi`` and the energy are
computed when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.density.poisson import SpectralWorkspace
from repro.density.rasterize import CellRasterizer
from repro.geometry.grid import Grid2D
from repro.utils.contracts import CONTRACTS


@dataclass
class FieldSolution:
    """Everything one electrostatic solve produces.

    ``potential`` and ``energy`` are computed on first access, from the
    solve's cosine coefficients and the solved rectangles.
    """

    density: np.ndarray
    field_x: np.ndarray
    field_y: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    overflow: float
    #: cosine coefficients of the potential (:meth:`SpectralWorkspace.solve`)
    coef: np.ndarray = field(repr=False)
    #: ``(grid, x, y, width, height)`` of the solved rectangles
    rects: tuple = field(repr=False)

    @cached_property
    def potential(self) -> np.ndarray:
        """The potential ``psi`` (zero mean)."""
        return SpectralWorkspace.potential(self.coef)

    @cached_property
    def energy(self) -> float:
        """``1/2 * sum_i q_i psi_i`` over the solved rectangles."""
        raster = CellRasterizer(*self.rects)
        return 0.5 * float(raster.gather(self.potential).sum())


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
        self.workspace = SpectralWorkspace.for_grid(grid)
        if static_charge is not None and static_charge.shape != grid.shape:
            raise ValueError("static_charge shape mismatch")
        self.static_charge = static_charge
        # the rasterizer of the last solve and copies of its sizes
        self._raster: CellRasterizer | None = None
        self._sizes: tuple | None = None

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

    def _rasterizer(self, x, y, width, height) -> CellRasterizer:
        """The smoothed rasterizer at ``x``, ``y``; rebuilt when the sizes change."""
        sizes = self._sizes
        if (
            sizes is None
            or not np.array_equal(width, sizes[0])
            or not np.array_equal(height, sizes[1])
        ):
            self._raster = CellRasterizer(self.grid, x, y, width, height, smooth=True)
            self._sizes = (np.array(width, dtype=np.float64),
                           np.array(height, dtype=np.float64))
        else:
            self._raster.move_to(x, y)
        return self._raster

    def solve(
        self,
        x: np.ndarray,
        y: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
    ) -> FieldSolution:
        """Solve the electrostatic system for movable rectangles.

        ``width``/``height`` may already include inflation.  Returns
        density map (occupancy ratio incl. static charge), field,
        per-rectangle forces (gradients of the energy w.r.t. centers
        are ``-force``; we return the *descent* gradient, i.e.
        ``grad = -q E`` so that ``pos -= step * grad`` moves cells
        downhill) and, on access, the potential and total energy.
        """
        raster = self._rasterizer(x, y, width, height)
        charge = raster.charge_map()
        if self.static_charge is not None:
            charge = charge + self.static_charge
        density = charge / self.grid.bin_area

        coef, ex, ey = self.workspace.solve(density)
        # Descent gradient of the energy: dD/dx_i = -q_i * E_x(i)
        grad = raster.gather_xy(ex, ey)
        np.negative(grad, out=grad)

        overflow = self.overflow(density, movable_area=float(raster.total_charge()))
        sol = FieldSolution(
            density=density,
            field_x=ex,
            field_y=ey,
            grad_x=grad[0],
            grad_y=grad[1],
            overflow=overflow,
            coef=coef,
            rects=(self.grid, x, y, width, height),
        )
        if CONTRACTS.enabled:
            site = "electrostatic.solve"
            CONTRACTS.check_array(site, "density", density, finite=True)
            CONTRACTS.check_array(site, "potential", sol.potential, finite=True)
            CONTRACTS.check_array(site, "grad_x", sol.grad_x, finite=True)
            CONTRACTS.check_array(site, "grad_y", sol.grad_y, finite=True)
            CONTRACTS.check_charge_neutrality(site, sol.potential)
            CONTRACTS.check_field_energy(site, density, sol.potential)
        return sol

    def overflow(self, density: np.ndarray, movable_area: float) -> float:
        """Density overflow ratio: spilled area / total movable area."""
        if movable_area <= 0:
            return 0.0
        spill = np.maximum(density - self.target_density, 0.0).sum() * self.grid.bin_area
        return float(spill / movable_area)
