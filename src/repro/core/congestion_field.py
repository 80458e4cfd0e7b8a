"""Differentiable congestion function C(x, y) from Poisson's equation.

Following Sec. II-B of the paper, the congestion charge density is the
G-cell utilization ``rho_{m,n} = Dmd_{m,n} / Cap_{m,n}`` produced by the
global router.  Solving Eq. (1) with this charge gives a *congestion
potential* ``psi`` and field ``E = -grad(psi)``; the penalty term is::

    C(x, y) = 1/2 * sum_{i in V'} A_i psi_i

where V' contains the selected multi-pin cells and the virtual cells of
two-pin nets.  The field is smooth, so sampling it (bilinearly between
G-cell centers) at any point yields a usable gradient — this is what
makes the construction differentiable, in contrast to bounding-box
penalties that treat all covered G-cells alike.
"""

from __future__ import annotations

import numpy as np

from repro.density.poisson import SpectralWorkspace
from repro.geometry.grid import Grid2D
from repro.utils.contracts import CONTRACTS


class CongestionField:
    """Congestion potential/field for one routing snapshot.

    Build once per routability round (the router's utilization map is
    fixed within a round); query as often as the solver iterates.  The
    Poisson solve goes through the process-wide cached
    :class:`~repro.density.poisson.SpectralWorkspace`, so consecutive
    rounds on the same grid reuse the memoized eigenvalue denominators
    and scratch buffers instead of rebuilding a solver each time.
    """

    def __init__(self, grid: Grid2D, utilization: np.ndarray) -> None:
        if utilization.shape != grid.shape:
            raise ValueError(
                f"utilization shape {utilization.shape} != grid {grid.shape}"
            )
        self.grid = grid
        self.utilization = utilization
        ws = SpectralWorkspace.for_grid(grid)
        coef, field_x, field_y = ws.solve(utilization)
        self.potential = ws.potential(coef)
        # both field components as channels of one map, so a gradient
        # query interpolates them with shared bilinear weights
        self._field_xy = np.stack((field_x, field_y), axis=-1)
        if CONTRACTS.enabled:
            site = "congestion_field"
            CONTRACTS.check_array(site, "potential", self.potential, finite=True)
            CONTRACTS.check_array(site, "field_x", self.field_x, finite=True)
            CONTRACTS.check_array(site, "field_y", self.field_y, finite=True)
            # Neumann-BC spectral solve: Eq. (1) is only solvable after
            # the mean shift, and the solved psi must be mean-free
            CONTRACTS.check_charge_neutrality(site, self.potential)
            # Parseval: the balanced charge's self-energy is a sum of
            # non-negative modal terms
            CONTRACTS.check_field_energy(site, utilization, self.potential)

    @property
    def field_x(self) -> np.ndarray:
        """``E_x = -d(psi)/dx`` at the bin centers (a view of the channel map)."""
        return self._field_xy[..., 0]

    @field_x.setter
    def field_x(self, value) -> None:
        self._field_xy[..., 0] = value

    @property
    def field_y(self) -> np.ndarray:
        """``E_y = -d(psi)/dy`` at the bin centers (a view of the channel map)."""
        return self._field_xy[..., 1]

    @field_y.setter
    def field_y(self, value) -> None:
        self._field_xy[..., 1] = value

    # ------------------------------------------------------------------
    def potential_at(self, x, y) -> np.ndarray:
        """Bilinear potential sample psi(x, y)."""
        return self.grid.bilinear_at(self.potential, x, y)

    def gradient_at(self, x, y, area) -> tuple[np.ndarray, np.ndarray]:
        """Congestion energy gradient of charge(s) ``area`` at points.

        Returns the *minimization* gradient ``A * grad(psi) = -A * E``:
        subtracting it moves the charge away from congestion.
        """
        e = self.grid.bilinear_at(self._field_xy, x, y)
        neg_area = -np.asarray(area)
        return neg_area * e[..., 0], neg_area * e[..., 1]

    def penalty(self, x, y, area) -> float:
        """``C(x, y) = 1/2 sum_i A_i psi_i`` over the given charges."""
        return 0.5 * float(np.sum(np.asarray(area) * self.potential_at(x, y)))
