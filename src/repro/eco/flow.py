"""Dirty-region ECO re-place: the localized RD loop.

:func:`eco_place` is the tentpole flow: diff the baseline against the
edited design, warm-start positions through the diff, freeze every
clean-region cell, and re-run the routability-driven loop only where
the edit landed.

Freezing is mechanical, not special-cased: the loop runs on a
:meth:`~repro.netlist.netlist.Netlist.copy` of the edited design whose
``cell_fixed`` mask is widened to the clean region.  Every pass that
reads ``cell_fixed`` then restricts itself to what can move:

* the :class:`~repro.place.global_placer.GlobalPlacer` rasterizes the
  frozen cells **once** into the density field as static charge, and
  the Poisson solve reuses the process-wide cached
  :class:`~repro.density.poisson.SpectralWorkspace`;
* the WA wirelength evaluates only the nets with a movable pin;
* Alg. 1 samples only the two-pin nets with a movable endpoint, and
  Alg. 2 looks up congestion only for movable multi-pin cells;
* the RD rounds rip up and reroute only the dirty nets (below), and
  decompose only those nets into two-pin segments.

Three passes still scale with the whole design: the clean-net base
route (once per edit), the final full route that scores the result
(both decompose and route every net they cover), and the HPWL total the placer takes on every iteration for its density
weight feedback and divergence guard.  The O(cells) bookkeeping of the
gradient assembly (per-cell arrays, the die clamp) is also
design-sized, but it is a handful of vector operations per iteration.

Routing is partial for the same reason: the clean nets (no pin on a
dirty cell) are routed once into a
:class:`~repro.route.router.DemandSnapshot`, and every pass of the ECO
loop then rips up and reroutes **only** the dirty nets on top of that
frozen base load (see ``GlobalRouter.route(net_ids=, base_demand=)``).
A partial pass decomposes only its ``net_ids``, so its cost follows
the dirty nets, not the design.

``baseline_checkpoint`` names the best-placement snapshot a baseline
``repro place --checkpoint`` run wrote; only the dirty cells start from
it.  An edit that leaves no dirty cell, a null diff included, returns
the warm start after one routing pass, with no RD round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.flows import DETAIL_PASSES, run_flow
from repro.core.rd_placer import RDConfig, RoutabilityDrivenPlacer
from repro.eco.diff import NetlistDiff, diff_netlists
from repro.eco.warm import (
    DirtyRegion,
    WarmStart,
    apply_warm_start,
    baseline_positions,
    dirty_region,
)
from repro.geometry.grid import Grid2D
from repro.legalize.api import check_legal
from repro.netlist.netlist import Netlist
from repro.place.config import placement_grid
from repro.route.router import DemandSnapshot, GlobalRouter, RoutingResult
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler
from repro.wirelength.hpwl import hpwl

logger = get_logger("eco.flow")


@dataclass
class EcoConfig:
    """Configuration of the ECO re-place flow."""

    rd: RDConfig = field(default_factory=RDConfig)
    #: G-cell halo dilated around edited cells when marking dirty bins
    halo_bins: int = 1

    def __post_init__(self) -> None:
        if self.halo_bins < 0:
            raise ValueError("halo_bins must be >= 0")


@dataclass
class EcoResult:
    """Outcome of one ECO re-place."""

    netlist: Netlist
    diff: NetlistDiff
    warm: WarmStart
    region: DirtyRegion
    hpwl: float
    total_overflow: float
    n_rounds: int
    routing: RoutingResult | None = None
    elapsed: float = 0.0


class _PartialRouter:
    """Router delegate restricting every pass to the dirty nets.

    The RD loop calls ``router.route(netlist)``; this shim forwards
    with the dirty-net restriction and the frozen clean-net demand
    snapshot, so partial rip-up-and-reroute needs no placer changes.
    """

    def __init__(
        self,
        inner: GlobalRouter,
        net_ids: np.ndarray,
        base_demand: DemandSnapshot,
    ) -> None:
        self.inner = inner
        self.net_ids = net_ids
        self.base_demand = base_demand

    def route(self, netlist: Netlist) -> RoutingResult:
        """Partial pass over the dirty nets on top of the base load."""
        return self.inner.route(
            netlist, net_ids=self.net_ids, base_demand=self.base_demand
        )


def _finish(
    netlist: Netlist,
    frozen: Netlist,
    grid: Grid2D,
    congestion: np.ndarray | None,
    profiler: StageProfiler,
) -> None:
    """Legalize + detail-place the frozen view, then copy positions out.

    Running on the frozen netlist keeps the clean region untouched:
    fixed cells take part in overlap checks but never move.
    """
    from repro.detail import detailed_place
    from repro.legalize import legalize

    with profiler.timer("eco.legalize"):
        legalize(frozen)
    with profiler.timer("eco.detail"):
        detailed_place(
            frozen,
            passes=DETAIL_PASSES,
            grid=grid,
            congestion=congestion,
        )
    netlist.x[:] = frozen.x
    netlist.y[:] = frozen.y


def eco_place(
    new: Netlist,
    old: Netlist,
    cfg: EcoConfig | None = None,
    baseline_checkpoint: str | None = None,
    profiler: StageProfiler | None = None,
    metrics=None,
) -> EcoResult:
    """Re-place the edited design ``new`` against the baseline ``old``.

    Mutates ``new``'s positions in place.  ``baseline_checkpoint`` is
    the snapshot a baseline ``RoutabilityDrivenPlacer.run(
    checkpoint_path=)`` wrote: its best positions seed the dirty
    cells.  It is only read, never written.
    """
    cfg = cfg or EcoConfig()
    profiler = profiler or StageProfiler()
    metrics = metrics if metrics is not None else NULL
    t0 = time.perf_counter()

    with profiler.timer("eco.diff"):
        diff = diff_netlists(old, new)
    if metrics.enabled:
        metrics.emit("eco.diff", **diff.summary())
    logger.info("netlist diff: %s", diff.summary())

    grid = placement_grid(new)

    # ------------------------------------------------------------------
    # warm start through the diff
    # ------------------------------------------------------------------
    # Every surviving cell starts from the baseline *file* (the
    # legalized output), so the dirty region below is measured where
    # the edit lands in the placement the frozen clean cells keep.
    # Measured on the snapshot's best GP positions instead, the region
    # would re-place cells the file keeps elsewhere and could freeze
    # ones it keeps next to the edit; frozen at those positions, the
    # clean region would also sit off-row/off-site.
    with profiler.timer("eco.warm"):
        snap_x, snap_y, source = baseline_positions(old, baseline_checkpoint)
        warm = apply_warm_start(new, diff, old.x, old.y)
        warm.source = source
    if metrics.enabled:
        metrics.emit("eco.warm", source=warm.source,
                     n_mapped=warm.n_mapped, n_seeded=warm.n_seeded)

    with profiler.timer("eco.region"):
        region = dirty_region(new, old, diff, grid, cfg.halo_bins)

    # only the dirty cells start from the snapshot: they get legalized
    # again anyway
    if warm.source == "checkpoint":
        survives = diff.cell_new_to_old >= 0
        moved = survives & region.dirty_cells
        new.x[moved] = snap_x[diff.cell_new_to_old[moved]]
        new.y[moved] = snap_y[diff.cell_new_to_old[moved]]

    n_movable = int(new.movable.sum())
    if metrics.enabled:
        metrics.emit(
            "eco.region",
            n_dirty_cells=region.n_dirty_cells,
            n_dirty_nets=region.n_dirty_nets,
            n_bins=region.n_bins,
            dirty_fraction=(
                region.n_dirty_cells / n_movable if n_movable else 0.0
            ),
        )

    if region.n_dirty_cells == 0:
        # edits touched only fixed cells (or there were none): the warm
        # start is the answer; route once for the report
        routing = GlobalRouter(
            grid, cfg.rd.router, profiler=profiler, metrics=metrics
        ).route(new)
        out = EcoResult(
            netlist=new, diff=diff, warm=warm, region=region,
            hpwl=float(hpwl(new)),
            total_overflow=float(routing.total_overflow),
            n_rounds=0, routing=routing, elapsed=time.perf_counter() - t0,
        )
        _emit_place(metrics, out)
        return out

    # ------------------------------------------------------------------
    # frozen-clean-region RD loop
    # ------------------------------------------------------------------
    frozen = new.copy()
    frozen.cell_fixed = new.cell_fixed | ~region.dirty_cells
    placer = RoutabilityDrivenPlacer(
        frozen, cfg.rd, profiler=profiler, metrics=metrics
    )
    dirty_net_ids = np.flatnonzero(region.dirty_nets)
    if 0 < len(dirty_net_ids) < new.n_nets:
        clean_net_ids = np.flatnonzero(~region.dirty_nets)
        with profiler.timer("eco.base_route"):
            base = placer.router.route(frozen, net_ids=clean_net_ids)
        placer.router = _PartialRouter(
            placer.router, dirty_net_ids, DemandSnapshot.from_result(base)
        )
    result = placer.run()
    _finish(new, frozen, placer.gp.grid,
            result.final_routing.congestion_map, profiler)

    # report against a *full* routing pass at the final positions so
    # the QoR numbers are comparable to a cold re-place
    with profiler.timer("eco.final_route"):
        routing = GlobalRouter(grid, cfg.rd.router, profiler=profiler).route(new)
    out = EcoResult(
        netlist=new, diff=diff, warm=warm, region=region,
        hpwl=float(hpwl(new)),
        total_overflow=float(routing.total_overflow),
        n_rounds=result.n_rounds, routing=routing,
        elapsed=time.perf_counter() - t0,
    )
    _emit_place(metrics, out)
    return out


def _emit_place(metrics, out: EcoResult) -> None:
    """The ``eco.place`` summary event for one finished ECO flow."""
    if not metrics.enabled:
        return
    metrics.emit(
        "eco.place",
        rounds=out.n_rounds,
        hpwl=out.hpwl,
        total_overflow=out.total_overflow,
        n_dirty_cells=out.region.n_dirty_cells,
        n_dirty_nets=out.region.n_dirty_nets,
    )


def full_replace(
    netlist: Netlist,
    rd: RDConfig,
    profiler: StageProfiler | None = None,
) -> dict:
    """Cold full re-place of ``netlist`` (the QoR-delta reference).

    Runs the ``Ours`` recipe (:func:`repro.baselines.flows.run_flow`:
    the complete Fig. 2 flow from a fresh initial placement, then
    legalize and detail) on a copy of ``netlist``, scores the result
    with one full routing pass on the flow grid, and returns the
    comparable QoR numbers plus ``legal_issues``, the :func:`check_legal`
    count of the re-placed netlist.  ``netlist`` itself is not changed.
    """
    flow = run_flow("Ours", netlist, rd, profiler=profiler)
    routing = GlobalRouter(
        placement_grid(netlist), rd.router, profiler=profiler
    ).route(flow.netlist)
    return {
        "hpwl": float(hpwl(flow.netlist)),
        "total_overflow": float(routing.total_overflow),
        "rounds": int(flow.rd_result.n_rounds),
        "legal_issues": len(check_legal(flow.netlist)),
    }
