"""Netlist differ: a typed edit list between two Bookshelf designs.

ECO (engineering change order) placement starts from the *difference*
between the baseline design and the edited one.  :func:`diff_netlists`
compares two parsed :class:`~repro.netlist.netlist.Netlist` objects by
**name** — cells by ``cell_names``, nets by ``net_names`` — and
produces a :class:`NetlistDiff` with typed edit lists:

* cells added / removed / resized (width or height changed);
* nets added / removed / rewired (same name, different pin membership
  or pin offsets);
* index maps between the two designs for every surviving cell and net,
  which is what the warm-start planner uses to carry positions across.

Positions are deliberately **not** part of the diff: they are the
quantity the ECO flow recomputes, not an edit.  Fixed cells are the
exception the differ checks: placement never moves them, so an added
or resized fixed cell whose rectangle leaves the die can never become
legal and is rejected with :class:`FixedCellOutsideDieError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rect import Rect
from repro.netlist.netlist import Netlist

#: Slack of the die-containment check (the one ``check_legal`` uses).
DIE_TOLERANCE = 1e-6


class FixedCellOutsideDieError(ValueError):
    """An edit leaves a fixed cell's rectangle partly outside the die."""

    def __init__(self, cell: str, rect: Rect, die: Rect) -> None:
        super().__init__(
            f"edit puts fixed cell {cell!r} outside the die: "
            f"[{rect.xlo:g}, {rect.xhi:g}] x [{rect.ylo:g}, {rect.yhi:g}] "
            f"is not inside "
            f"[{die.xlo:g}, {die.xhi:g}] x [{die.ylo:g}, {die.yhi:g}]"
        )
        self.cell = cell


def _net_signature(nl: Netlist, net_id: int) -> tuple:
    """Order-independent identity of one net's pin set.

    A pin is ``(cell name, offset_x, offset_y)``; the multiset of pins
    (sorted tuple) identifies the net's connectivity regardless of the
    order the design file listed them in.
    """
    pins = nl.net_pins(net_id)
    sig = [
        (
            nl.cell_names[int(nl.pin_cell[p])],
            float(nl.pin_offset_x[p]),
            float(nl.pin_offset_y[p]),
        )
        for p in pins
    ]
    return tuple(sorted(sig))


@dataclass
class NetlistDiff:
    """Typed edit list between a baseline and an edited netlist.

    Cell/net names are design-file names; the index maps translate
    between the two designs (``-1`` marks a cell/net with no
    counterpart on the other side).
    """

    added_cells: list = field(default_factory=list)
    removed_cells: list = field(default_factory=list)
    resized_cells: list = field(default_factory=list)
    added_nets: list = field(default_factory=list)
    removed_nets: list = field(default_factory=list)
    rewired_nets: list = field(default_factory=list)
    #: old cell index -> new cell index (-1 when removed)
    cell_old_to_new: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: new cell index -> old cell index (-1 when added)
    cell_new_to_old: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: new net index -> old net index (-1 when added)
    net_new_to_old: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def is_null(self) -> bool:
        """True when the two designs are identical (no edits at all)."""
        return not (
            self.added_cells
            or self.removed_cells
            or self.resized_cells
            or self.added_nets
            or self.removed_nets
            or self.rewired_nets
        )

    @property
    def n_edits(self) -> int:
        """Total number of typed edits across all lists."""
        return (
            len(self.added_cells)
            + len(self.removed_cells)
            + len(self.resized_cells)
            + len(self.added_nets)
            + len(self.removed_nets)
            + len(self.rewired_nets)
        )

    def summary(self) -> dict:
        """Edit counts, JSON-ready (the ``eco.diff`` telemetry body)."""
        return {
            "n_added_cells": len(self.added_cells),
            "n_removed_cells": len(self.removed_cells),
            "n_resized_cells": len(self.resized_cells),
            "n_added_nets": len(self.added_nets),
            "n_removed_nets": len(self.removed_nets),
            "n_rewired_nets": len(self.rewired_nets),
        }


def _check_fixed_edits(new: Netlist, cell_ids: list) -> None:
    """Raise :class:`FixedCellOutsideDieError` for the first fixed cell
    of ``cell_ids`` whose rectangle in ``new`` leaves the die."""
    die = new.die
    for i in cell_ids:
        if not new.cell_fixed[i]:
            continue
        rect = Rect.from_center(
            float(new.x[i]),
            float(new.y[i]),
            float(new.cell_width[i]),
            float(new.cell_height[i]),
        )
        if (
            rect.xlo < die.xlo - DIE_TOLERANCE
            or rect.ylo < die.ylo - DIE_TOLERANCE
            or rect.xhi > die.xhi + DIE_TOLERANCE
            or rect.yhi > die.yhi + DIE_TOLERANCE
        ):
            raise FixedCellOutsideDieError(new.cell_names[i], rect, die)


def diff_netlists(old: Netlist, new: Netlist) -> NetlistDiff:
    """Compare two designs by name and return the typed edit list.

    Raises :class:`FixedCellOutsideDieError` when an added or resized
    fixed cell does not fit inside the die at its position in ``new``.
    """
    diff = NetlistDiff()

    old_cells = {name: i for i, name in enumerate(old.cell_names)}
    new_cells = {name: i for i, name in enumerate(new.cell_names)}
    diff.cell_old_to_new = np.full(old.n_cells, -1, dtype=np.int64)
    diff.cell_new_to_old = np.full(new.n_cells, -1, dtype=np.int64)
    for name, i in old_cells.items():
        j = new_cells.get(name)
        if j is None:
            diff.removed_cells.append(name)
            continue
        diff.cell_old_to_new[i] = j
        diff.cell_new_to_old[j] = i
        if (
            old.cell_width[i] != new.cell_width[j]
            or old.cell_height[i] != new.cell_height[j]
        ):
            diff.resized_cells.append(name)
    for name in new.cell_names:
        if name not in old_cells:
            diff.added_cells.append(name)
    _check_fixed_edits(
        new, [new_cells[name] for name in diff.added_cells + diff.resized_cells]
    )

    old_nets = {name: e for e, name in enumerate(old.net_names)}
    new_nets = {name: e for e, name in enumerate(new.net_names)}
    diff.net_new_to_old = np.full(new.n_nets, -1, dtype=np.int64)
    for name, e in old_nets.items():
        f = new_nets.get(name)
        if f is None:
            diff.removed_nets.append(name)
            continue
        diff.net_new_to_old[f] = e
        if _net_signature(old, e) != _net_signature(new, f):
            diff.rewired_nets.append(name)
    for name in new.net_names:
        if name not in old_nets:
            diff.added_nets.append(name)

    return diff
