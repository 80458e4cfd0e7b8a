"""Analytical global placement engines.

:class:`GlobalPlacer` is the wirelength-driven electrostatic placer
(the Xplace [16] stand-in of Eq. 2).  It exposes the extension hooks —
per-cell size inflation, extra static density charge, and an extra
gradient term — through which the routability-driven placer of
:mod:`repro.core` injects the paper's three techniques.
"""

from repro.place.config import GPConfig, placement_grid
from repro.place.initial import initial_placement, scatter_fillers
from repro.place.global_placer import (
    GlobalPlacer,
    PlacementHistory,
    converge_placement,
)

__all__ = [
    "GPConfig",
    "placement_grid",
    "initial_placement",
    "scatter_fillers",
    "GlobalPlacer",
    "PlacementHistory",
    "converge_placement",
]
