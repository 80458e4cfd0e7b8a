"""Incremental / ECO placement: serve netlist edits without a full re-place.

The package turns the batch RD flow into an interactive one:

* :mod:`repro.eco.diff` — typed edit list between two Bookshelf
  designs (cells added/removed/resized, nets added/removed/rewired),
  rejecting edits that push a fixed cell out of the die;
* :mod:`repro.eco.warm` — warm-start planner: baseline positions from
  the nearest npz checkpoint (or the baseline design file), mapped
  through the diff, with new cells seeded at connectivity centroids,
  plus the dirty-region analysis;
* :mod:`repro.eco.flow` — the localized RD loop with frozen
  clean-region cells and partial rip-up-and-reroute, plus the cold
  full re-place reference for QoR-delta reports.
"""

from repro.eco.diff import FixedCellOutsideDieError, NetlistDiff, diff_netlists
from repro.eco.flow import EcoConfig, EcoResult, eco_place, full_replace
from repro.eco.warm import (
    DirtyRegion,
    WarmStart,
    apply_warm_start,
    baseline_positions,
    dirty_region,
)

__all__ = [
    "FixedCellOutsideDieError",
    "NetlistDiff",
    "diff_netlists",
    "EcoConfig",
    "EcoResult",
    "eco_place",
    "full_replace",
    "DirtyRegion",
    "WarmStart",
    "apply_warm_start",
    "baseline_positions",
    "dirty_region",
]
