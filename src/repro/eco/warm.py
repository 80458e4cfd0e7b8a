"""Warm-start planner and dirty-region analysis for ECO placement.

Three steps turn a baseline placement plus a :class:`~repro.eco.diff.
NetlistDiff` into a localized re-place:

1. :func:`baseline_positions` picks where the baseline's cells sit —
   the best positions of the baseline flow's snapshot when one is
   given (validated against the baseline design's fingerprint), the
   baseline design file's stored positions otherwise.
2. :func:`apply_warm_start` maps every surviving cell's position
   through the diff and seeds each **added** cell at the connectivity
   centroid of its already-placed neighbors (die center when it has
   none).
3. :func:`dirty_region` expands the edited cells to G-cell bins (plus
   a halo), marks every movable cell inside those bins dirty, and
   collects the nets touching the dirty set — the clean remainder is
   frozen during the ECO RD loop and its nets keep their routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.rd_placer import design_fingerprint
from repro.eco.diff import NetlistDiff
from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.utils.checkpoint import CheckpointError, read_checkpoint_with_fallback
from repro.utils.logging import get_logger

logger = get_logger("eco.warm")


@dataclass
class WarmStart:
    """What the warm-start planner did (the ``eco.warm`` event body)."""

    source: str  # "checkpoint" | "design"
    n_mapped: int = 0
    n_seeded: int = 0


@dataclass
class DirtyRegion:
    """The localized re-place scope derived from the diff."""

    #: movable cells re-placed by the ECO loop (boolean, new design)
    dirty_cells: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    #: nets with at least one pin on a dirty cell (boolean, new design)
    dirty_nets: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    #: G-cell bins covered by the dirty set including the halo
    n_bins: int = 0

    @property
    def n_dirty_cells(self) -> int:
        """Number of cells the ECO loop may move."""
        return int(self.dirty_cells.sum())

    @property
    def n_dirty_nets(self) -> int:
        """Number of nets ripped up and rerouted per ECO pass."""
        return int(self.dirty_nets.sum())


def baseline_positions(
    old: Netlist, checkpoint_path: str | None = None
) -> tuple[np.ndarray, np.ndarray, str]:
    """Baseline cell positions: snapshot best positions or design file.

    Returns ``(x, y, source)`` in the **old** design's cell order.  The
    snapshot (written by ``RoutabilityDrivenPlacer.run(checkpoint_path=)``)
    is validated against the baseline design's fingerprint (name and
    cell/net/pin counts) — reading positions written for a different
    design is an error, not a silent mis-seed.
    """
    if not checkpoint_path:
        return old.x.copy(), old.y.copy(), "design"
    meta, arrays, _ = read_checkpoint_with_fallback(checkpoint_path)
    fingerprint = design_fingerprint(old)
    if meta.get("design") != fingerprint:
        raise CheckpointError(
            f"{checkpoint_path}: checkpoint was written for design "
            f"{meta.get('design')}, not the baseline {fingerprint}"
        )
    if meta.get("has_best") and "best_x" in arrays:
        return arrays["best_x"].copy(), arrays["best_y"].copy(), "checkpoint"
    return arrays["x"].copy(), arrays["y"].copy(), "checkpoint"


def apply_warm_start(
    new: Netlist,
    diff: NetlistDiff,
    old_x: np.ndarray,
    old_y: np.ndarray,
) -> WarmStart:
    """Seed the new design's positions from the baseline placement.

    Surviving cells take their baseline position through the diff's
    index map.  Added cells are seeded, in cell-id order, at the mean
    position of the pins of already-placed cells they share a net with
    — cells seeded earlier in the pass count as placed, so chains of
    new cells cluster instead of all landing at the die center, which
    is the fallback for a new cell with no placed neighbor.
    """
    mapped = diff.cell_new_to_old >= 0
    new.x[mapped] = old_x[diff.cell_new_to_old[mapped]]
    new.y[mapped] = old_y[diff.cell_new_to_old[mapped]]

    placed = mapped.copy()
    n_seeded = 0
    for j in np.flatnonzero(~mapped):
        px: list[float] = []
        py: list[float] = []
        for p in new.cell_pins(int(j)):
            net = int(new.pin_net[p])
            for q in new.net_pins(net):
                c = int(new.pin_cell[q])
                if c != j and placed[c]:
                    px.append(float(new.x[c] + new.pin_offset_x[q]))
                    py.append(float(new.y[c] + new.pin_offset_y[q]))
        if px:
            new.x[j] = float(np.mean(px))
            new.y[j] = float(np.mean(py))
        else:
            new.x[j], new.y[j] = new.die.center
        placed[j] = True
        n_seeded += 1
    new.clamp_to_die()
    return WarmStart(
        source="", n_mapped=int(mapped.sum()), n_seeded=n_seeded
    )


def _seed_cells(new: Netlist, old: Netlist, diff: NetlistDiff) -> np.ndarray:
    """Cells of the *new* design directly touched by an edit.

    Added and resized cells, every member of an added or rewired net,
    and the surviving neighbors of removed cells and removed nets (the
    hole they leave behind is re-usable space the ECO loop should see).
    """
    seed = np.zeros(new.n_cells, dtype=bool)
    new_cells = {name: i for i, name in enumerate(new.cell_names)}
    for name in diff.added_cells + diff.resized_cells:
        seed[new_cells[name]] = True

    new_nets = {name: e for e, name in enumerate(new.net_names)}
    for name in diff.added_nets + diff.rewired_nets:
        pins = new.net_pins(new_nets[name])
        seed[new.pin_cell[pins]] = True

    old_cells = {name: i for i, name in enumerate(old.cell_names)}
    old_nets = {name: e for e, name in enumerate(old.net_names)}

    def _mark_old_net(net_id: int) -> None:
        for p in old.net_pins(net_id):
            j = diff.cell_old_to_new[int(old.pin_cell[p])]
            if j >= 0:
                seed[j] = True

    for name in diff.removed_nets:
        _mark_old_net(old_nets[name])
    for name in diff.removed_cells:
        i = old_cells[name]
        for p in old.cell_pins(i):
            _mark_old_net(int(old.pin_net[p]))
    return seed


def dirty_region(
    new: Netlist,
    old: Netlist,
    diff: NetlistDiff,
    grid: Grid2D,
    halo_bins: int = 1,
) -> DirtyRegion:
    """Expand the edit's footprint to G-cell bins and collect its nets.

    Every bin holding a seed cell is marked, dilated by ``halo_bins``
    in each direction, and every **movable** cell inside a marked bin
    becomes dirty (fixed cells and macros with the fixed flag never
    move, edits or not).  Nets touching a dirty cell are the partial
    rip-up-and-reroute set.
    """
    region = DirtyRegion(
        dirty_cells=np.zeros(new.n_cells, dtype=bool),
        dirty_nets=np.zeros(new.n_nets, dtype=bool),
    )
    seed = _seed_cells(new, old, diff)
    if not seed.any():
        return region

    bins = np.zeros((grid.nx, grid.ny), dtype=bool)
    i, j = grid.index_of(new.x[seed], new.y[seed])
    bins[i, j] = True
    if halo_bins > 0:
        mark = np.flatnonzero(bins)
        bi, bj = np.unravel_index(mark, bins.shape)
        for di in range(-halo_bins, halo_bins + 1):
            for dj in range(-halo_bins, halo_bins + 1):
                ii = np.clip(bi + di, 0, grid.nx - 1)
                jj = np.clip(bj + dj, 0, grid.ny - 1)
                bins[ii, jj] = True
    region.n_bins = int(bins.sum())

    ci, cj = grid.index_of(new.x, new.y)
    in_bins = bins[ci, cj]
    region.dirty_cells = (in_bins | seed) & new.movable
    if region.dirty_cells.any():
        dirty_pins = region.dirty_cells[new.pin_cell]
        region.dirty_nets[np.unique(new.pin_net[dirty_pins])] = True
    logger.info(
        "dirty region: %d cells in %d bins, %d nets",
        region.n_dirty_cells,
        region.n_bins,
        region.n_dirty_nets,
    )
    return region
