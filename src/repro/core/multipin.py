"""Algorithm 2 (lines 7-15): congestion gradients for multi-pin cells.

Cells with more pins than the design average attract many nets and
aggravate global congestion where routing resources are scarce.  Those
of them sitting in a G-cell whose congestion exceeds a threshold (0.7
in the paper) receive the raw congestion-field gradient of Eq. (1), so
they are pushed out of the congested region directly.

Only movable cells can be selected, so the congestion lookup runs over
the movable cells above the pin-count average alone
(:func:`multi_pin_candidates`); the average itself is over all cells.
"""

from __future__ import annotations

import numpy as np

from repro.core.congestion_field import CongestionField
from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.utils.contracts import CONTRACTS


def multi_pin_candidates(netlist: Netlist) -> np.ndarray:
    """Ascending ids of the movable cells with more pins than average.

    Lines 9-10 of Alg. 2: the average ``n_bar`` is over all cells, fixed
    ones included.  Built once per routability round.
    """
    pin_counts = netlist.cell_pin_counts()
    if len(pin_counts) == 0:
        return np.zeros(0, dtype=np.int64)
    n_bar = float(pin_counts.mean())
    return np.flatnonzero((pin_counts > n_bar) & netlist.movable)


def multi_pin_cell_gradients(
    netlist: Netlist,
    grid: Grid2D,
    congestion: np.ndarray,
    field: CongestionField,
    threshold: float = 0.7,
    candidates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell gradients for the selected multi-pin cells.

    Selection (lines 9-11 of Alg. 2): pin count strictly above the
    average pin count over all cells, *and* congestion of the G-cell
    under the cell center strictly above ``threshold``; fixed cells are
    never selected.  ``candidates`` is :func:`multi_pin_candidates` of
    the netlist when the caller keeps it across calls.

    Returns ``(grad_x, grad_y, selected_mask)``; non-selected cells get
    zeros.
    """
    n_cells = netlist.n_cells
    grad_x = np.zeros(n_cells)
    grad_y = np.zeros(n_cells)
    selected = np.zeros(n_cells, dtype=bool)
    if candidates is None:
        candidates = multi_pin_candidates(netlist)
    if len(candidates):
        cell_cong = grid.value_at(
            congestion, netlist.x[candidates], netlist.y[candidates]
        )
        ids = candidates[cell_cong > threshold]
        if len(ids):
            selected[ids] = True
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
