"""Top-level legalization entry point and legality checking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.legalize.abacus import abacus_refine
from repro.legalize.rows import build_row_map
from repro.legalize.tetris import tetris_legalize
from repro.netlist.netlist import Netlist
from repro.utils.logging import get_logger

logger = get_logger("legalize.api")


@dataclass
class LegalizeStats:
    """Displacement summary of one legalization run."""

    total_displacement: float
    max_displacement: float
    mean_displacement: float
    n_cells: int


def legalize(netlist: Netlist) -> LegalizeStats:
    """Legalize all movable single-row cells in place.

    Tetris provides the row/segment assignment; Abacus then minimizes
    quadratic displacement within each segment (call
    :func:`~repro.legalize.tetris.tetris_legalize` for the pure greedy
    result).
    """
    old_x = netlist.x.copy()
    old_y = netlist.y.copy()
    rowmap = build_row_map(netlist)
    try:
        assignment = tetris_legalize(netlist, rowmap)
    except RuntimeError:
        # displacement-minimizing packing fragmented the free space;
        # retry in compact (first-fit) mode, Abacus will pull cells
        # back toward their global positions afterwards
        logger.warning("tetris retrying in compact mode for %s", netlist.name)
        netlist.x[:] = old_x
        netlist.y[:] = old_y
        rowmap = build_row_map(netlist)
        assignment = tetris_legalize(netlist, rowmap, compact=True)
    if len(assignment.cell_ids):
        abacus_refine(netlist, rowmap, assignment, old_x)

    ids = assignment.cell_ids
    if len(ids) == 0:
        return LegalizeStats(0.0, 0.0, 0.0, 0)
    disp = np.abs(netlist.x[ids] - old_x[ids]) + np.abs(netlist.y[ids] - old_y[ids])
    return LegalizeStats(
        total_displacement=float(disp.sum()),
        max_displacement=float(disp.max()),
        mean_displacement=float(disp.mean()),
        n_cells=len(ids),
    )


def check_legal(netlist: Netlist, tolerance: float = 1e-6) -> list:
    """Return a list of human-readable legality violations.

    Checks: cells inside die, movable single-row cells aligned to rows
    and sites, and no overlap between any two cells occupying the same
    row band (including fixed blockages).  Two cells overlap when their
    rectangles do, by more than ``tolerance`` in both x and y: a macro
    that shares a band with another but not a y-range is legal.  A cell
    with a non-finite position is reported outside the die.
    """
    violations: list[str] = []
    die = netlist.die
    rh = netlist.row_height
    sw = netlist.site_width

    half_w = netlist.cell_width / 2
    half_h = netlist.cell_height / 2
    inside = (
        (netlist.x - half_w >= die.xlo - tolerance)
        & (netlist.x + half_w <= die.xhi + tolerance)
        & (netlist.y - half_h >= die.ylo - tolerance)
        & (netlist.y + half_h <= die.yhi + tolerance)
    )
    for i in np.flatnonzero(~inside):
        violations.append(f"cell {netlist.cell_names[i]} outside die")

    finite = np.isfinite(netlist.x) & np.isfinite(netlist.y)
    single_row = netlist.movable & (netlist.cell_height <= rh + 1e-9) & finite
    for i in np.flatnonzero(single_row):
        y_bot = netlist.y[i] - half_h[i] - die.ylo
        if abs(y_bot - round(y_bot / rh) * rh) > tolerance:
            violations.append(f"cell {netlist.cell_names[i]} not row-aligned")
        x_left = netlist.x[i] - half_w[i]
        if abs(x_left - round(x_left / sw) * sw) > tolerance:
            violations.append(f"cell {netlist.cell_names[i]} not site-aligned")

    for r, a, b in _band_overlaps(netlist, np.flatnonzero(finite), tolerance):
        violations.append(
            f"overlap in row {r}: {netlist.cell_names[a]} / {netlist.cell_names[b]}"
        )
    return violations


def _band_overlaps(
    netlist: Netlist, cells: np.ndarray, tolerance: float
) -> np.ndarray:
    """``(row, a, b)`` for every overlapping pair of ``cells`` per row band.

    Each cell joins every row band it touches; within a band, members
    sorted by left edge (then cell index) are swept one shift at a
    time: member ``k`` meets member ``k + s`` while that one starts
    left of ``k``'s right edge.  A pair is flagged when the rectangles
    overlap by more than ``tolerance`` in both x and y, with ``a`` the
    one that starts further left.  Rows ascend, then ``a`` and ``b``
    in sweep order.
    """
    die = netlist.die
    rh = netlist.row_height
    n_rows = max(int(np.floor(die.height / rh + 1e-9)), 1)
    half_w = netlist.cell_width / 2
    half_h = netlist.cell_height / 2
    left = netlist.x - half_w
    right = netlist.x + half_w
    bottom = netlist.y - half_h
    top = netlist.y + half_h

    r0 = np.floor((bottom[cells] - die.ylo) / rh + 1e-6).astype(np.int64)
    r1 = np.ceil((top[cells] - die.ylo) / rh - 1e-6).astype(np.int64) - 1
    r0 = np.maximum(r0, 0)
    r1 = np.minimum(r1, n_rows - 1)
    n_bands = np.maximum(r1 - r0 + 1, 0)
    cell = np.repeat(cells, n_bands)
    first = np.repeat(np.cumsum(n_bands) - n_bands, n_bands)
    row = np.repeat(r0, n_bands) + np.arange(len(cell)) - first
    order = np.lexsort((left[cell], row))
    cell, row = cell[order], row[order]

    found = []
    k = np.arange(len(cell))
    shift = 1
    while len(k):
        k = k[k + shift < len(cell)]
        m = k + shift
        a, b = cell[k], cell[m]
        live = (row[m] == row[k]) & (left[b] < right[a])
        k, m, a, b = k[live], m[live], a[live], b[live]
        hit = (
            (right[a] > left[b] + tolerance)
            & (right[b] > left[a] + tolerance)
            & (top[a] > bottom[b] + tolerance)
            & (top[b] > bottom[a] + tolerance)
        )
        found.append(np.stack([k[hit], m[hit]], axis=1))
        shift += 1
    pairs = np.concatenate(found) if found else np.zeros((0, 2), dtype=np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return np.stack(
        [row[pairs[:, 0]], cell[pairs[:, 0]], cell[pairs[:, 1]]], axis=1
    )
