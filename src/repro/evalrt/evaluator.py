"""Top-level routing-outcome evaluation of a placement."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.evalrt.config import EvalConfig
from repro.evalrt.pinaccess import PinAccessReport, pin_access_violations
from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.place.config import auto_grid_dim
from repro.route.router import GlobalRouter, RoutingResult

#: DRVs charged per unit of *squared* per-G-cell wire overflow (shorts /
#: spacing violations grow superlinearly with depth).
OVERFLOW_DRV_WEIGHT = 1.0
#: DRVs charged per expected pin-access failure under PG rails.
COVERED_PIN_DRV_WEIGHT = 3.0
#: DRVs charged per pin beyond the accessible-pin budget of a G-cell.
CROWDING_DRV_WEIGHT = 0.5


@dataclass
class RoutingEvaluation:
    """The Table I metrics of one placement."""

    drwl: float
    n_vias: float
    n_drvs: float
    overflow_drvs: float
    pin_report: PinAccessReport
    routing_time: float
    routing: RoutingResult

    def as_row(self) -> dict:
        """Table-ready metric dict (DRWL / #DRVias / #DRVs / RT)."""
        return {
            "DRWL": self.drwl,
            "#DRVias": self.n_vias,
            "#DRVs": self.n_drvs,
            "RT": self.routing_time,
        }


def evaluation_grid(netlist: Netlist, config: EvalConfig | None = None) -> Grid2D:
    """Finer G-cell grid used for the evaluation routing pass."""
    cfg = config or EvalConfig()
    dim = min(auto_grid_dim(netlist.n_cells) * cfg.grid_dim_factor, 512)
    return Grid2D(netlist.die, dim, dim)


def evaluate_routing(
    netlist: Netlist,
    config: EvalConfig | None = None,
    grid: Grid2D | None = None,
) -> RoutingEvaluation:
    """Route the placement on the evaluation grid and score it.

    All placers of an experiment must be evaluated with the same
    config and grid for the ratios to be meaningful.
    """
    cfg = config or EvalConfig()
    if grid is None:
        grid = evaluation_grid(netlist, cfg)

    t0 = time.perf_counter()
    router = GlobalRouter(grid, cfg.router)
    routing = router.route(netlist)
    util = routing.utilization_map
    pin_report = pin_access_violations(netlist, grid, util)
    routing_time = time.perf_counter() - t0

    # violations scale superlinearly with overflow depth: a G-cell
    # 5 tracks over capacity produces far more shorts than five cells
    # 1 track over (rip-up fails catastrophically once the neighbour-
    # hood is saturated), hence the squared term
    rgrid = routing.grid
    h_over = np.maximum(rgrid.h_demand - rgrid.h_cap, 0.0)
    v_over = np.maximum(rgrid.v_demand - rgrid.v_cap, 0.0)
    overflow_drvs = OVERFLOW_DRV_WEIGHT * float(
        (h_over**2).sum() + (v_over**2).sum()
    )
    n_drvs = (
        overflow_drvs
        + COVERED_PIN_DRV_WEIGHT * pin_report.covered_pin_drvs
        + CROWDING_DRV_WEIGHT * pin_report.crowding_drvs
    )
    return RoutingEvaluation(
        drwl=routing.wirelength,
        n_vias=routing.n_vias,
        n_drvs=float(np.round(n_drvs)),
        overflow_drvs=overflow_drvs,
        pin_report=pin_report,
        routing_time=routing_time,
        routing=routing,
    )
