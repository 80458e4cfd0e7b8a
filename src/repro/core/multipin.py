"""Algorithm 2 (lines 7-15): congestion gradients for multi-pin cells.

Cells with more pins than the design average attract many nets and
aggravate global congestion where routing resources are scarce.  Those
of them sitting in a G-cell whose congestion exceeds a threshold (0.7
in the paper) receive the raw congestion-field gradient of Eq. (1), so
they are pushed out of the congested region directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.congestion_field import CongestionField
from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.utils.contracts import CONTRACTS


def multi_pin_cell_gradients(
    netlist: Netlist,
    grid: Grid2D,
    congestion: np.ndarray,
    field: CongestionField,
    threshold: float = 0.7,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell gradients for the selected multi-pin cells.

    Selection (lines 9-11 of Alg. 2): pin count strictly above the
    average pin count over all cells, *and* congestion of the G-cell
    under the cell center strictly above ``threshold``.

    Returns ``(grad_x, grad_y, selected_mask)``; non-selected cells get
    zeros.
    """
    n_cells = netlist.n_cells
    grad_x = np.zeros(n_cells)
    grad_y = np.zeros(n_cells)
    if n_cells == 0:
        return grad_x, grad_y, np.zeros(0, dtype=bool)

    pin_counts = netlist.cell_pin_counts()
    n_bar = float(pin_counts.mean())
    cell_cong = grid.value_at(congestion, netlist.x, netlist.y)
    selected = (pin_counts > n_bar) & (cell_cong > threshold) & netlist.movable
    if selected.any():
        ids = np.flatnonzero(selected)
        gx, gy = field.gradient_at(
            netlist.x[ids], netlist.y[ids], netlist.cell_area[ids]
        )
        grad_x[ids] = gx
        grad_y[ids] = gy
    if CONTRACTS.enabled:
        site = "multipin.multi_pin_cell_gradients"
        CONTRACTS.check_array(site, "grad_x", grad_x, shape=(n_cells,), finite=True)
        CONTRACTS.check_array(site, "grad_y", grad_y, shape=(n_cells,), finite=True)
    return grad_x, grad_y, selected
