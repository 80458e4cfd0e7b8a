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

A null diff with a baseline checkpoint degenerates to a plain
checkpoint resume of the original flow — bit-identical to ``repro
place --checkpoint`` picking the run back up.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np

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
from repro.netlist.netlist import Netlist
from repro.place.config import auto_grid_dim
from repro.route.router import DemandSnapshot, GlobalRouter, RoutingResult
from repro.utils.checkpoint import backup_path
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler
from repro.utils.timer import Timer
from repro.wirelength.hpwl import hpwl

logger = get_logger("eco.flow")


@dataclass
class EcoConfig:
    """Configuration of the ECO re-place flow."""

    rd: RDConfig = field(default_factory=RDConfig)
    #: G-cell halo dilated around edited cells when marking dirty bins
    halo_bins: int = 1
    #: rip up and reroute only dirty nets (False routes everything)
    partial_route: bool = True
    #: legalize + detail-place the dirty region after the RD loop
    legalize: bool = True
    detail_passes: int = 2

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
    #: True when the null-diff fast path resumed the baseline checkpoint
    resumed: bool = False
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


def _flow_grid(netlist: Netlist, cfg: RDConfig) -> Grid2D:
    """The G-cell grid the RD flow will use (same rule as GlobalPlacer)."""
    nx = cfg.gp.grid_nx or auto_grid_dim(netlist.n_cells)
    ny = cfg.gp.grid_ny or auto_grid_dim(netlist.n_cells)
    return Grid2D(netlist.die, nx, ny)


def _copy_checkpoint(src: str, dst: str) -> bool:
    """Clone a flow checkpoint (or its ``.bak`` survivor) to ``dst``."""
    if os.path.abspath(src) == os.path.abspath(dst):
        return True
    for candidate in (src, backup_path(src)):
        if os.path.exists(candidate):
            os.makedirs(os.path.dirname(os.path.abspath(dst)), exist_ok=True)
            shutil.copyfile(candidate, dst)
            return True
    return False


def _finish(
    netlist: Netlist,
    frozen: Netlist,
    cfg: EcoConfig,
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

    if cfg.legalize:
        with profiler.timer("eco.legalize"):
            legalize(frozen)
        with profiler.timer("eco.detail"):
            detailed_place(
                frozen,
                passes=cfg.detail_passes,
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
    checkpoint_path: str | None = None,
    profiler: StageProfiler | None = None,
    metrics=None,
) -> EcoResult:
    """Re-place the edited design ``new`` against the baseline ``old``.

    Mutates ``new``'s positions in place.  ``baseline_checkpoint`` is
    the baseline flow's npz checkpoint: its best snapshot seeds the
    warm start, and with a **null** diff the flow simply resumes it
    (bit-identically, after cloning it to ``checkpoint_path`` so the
    baseline file is never overwritten).  ``checkpoint_path`` is the
    ECO loop's own checkpoint — an existing one resumes a previous
    attempt.
    """
    cfg = cfg or EcoConfig()
    profiler = profiler or StageProfiler()
    metrics = metrics if metrics is not None else NULL
    timer = Timer().start()

    with profiler.timer("eco.diff"):
        diff = diff_netlists(old, new)
    if metrics.enabled:
        metrics.emit("eco.diff", **diff.summary())
    logger.info("netlist diff: %s", diff.summary())

    grid = _flow_grid(new, cfg.rd)

    # ------------------------------------------------------------------
    # null edit + checkpoint: plain bit-identical resume
    # ------------------------------------------------------------------
    if diff.is_null and baseline_checkpoint:
        work = checkpoint_path or baseline_checkpoint
        _copy_checkpoint(baseline_checkpoint, work)
        if metrics.enabled:
            metrics.emit("eco.warm", source="resume", n_mapped=new.n_cells,
                         n_seeded=0)
        placer = RoutabilityDrivenPlacer(
            new, cfg.rd, profiler=profiler, metrics=metrics
        )
        result = placer.run(checkpoint_path=work, resume=True)
        frozen = new  # nothing frozen: the full design resumes as-is
        _finish(new, frozen, cfg, placer.gp.grid,
                result.final_routing.congestion_map, profiler)
        out = EcoResult(
            netlist=new,
            diff=diff,
            warm=WarmStart(source="resume", n_mapped=new.n_cells),
            region=DirtyRegion(
                dirty_cells=np.zeros(new.n_cells, dtype=bool),
                dirty_nets=np.zeros(new.n_nets, dtype=bool),
            ),
            hpwl=float(hpwl(new)),
            total_overflow=float(result.final_routing.total_overflow),
            n_rounds=result.n_rounds,
            routing=result.final_routing,
            resumed=True,
            elapsed=timer.stop(),
        )
        _emit_place(metrics, out)
        return out

    # ------------------------------------------------------------------
    # warm start through the diff
    # ------------------------------------------------------------------
    with profiler.timer("eco.warm"):
        old_x, old_y, source = baseline_positions(old, baseline_checkpoint)
        warm = apply_warm_start(new, diff, old_x, old_y)
        warm.source = source
    if metrics.enabled:
        metrics.emit("eco.warm", source=warm.source,
                     n_mapped=warm.n_mapped, n_seeded=warm.n_seeded)

    with profiler.timer("eco.region"):
        region = dirty_region(new, old, diff, grid, cfg.halo_bins)

    # Clean cells are frozen, so they must hold the baseline *file's*
    # positions (the legalized output), not the checkpoint's best GP
    # snapshot — that one is analytic, pre-legalization, and would pin
    # the whole clean region off-row/off-site.  Dirty cells keep the
    # checkpoint start: they get legalized again anyway.
    if warm.source == "checkpoint":
        survives = diff.cell_new_to_old >= 0
        clean = survives & ~region.dirty_cells
        new.x[clean] = old.x[diff.cell_new_to_old[clean]]
        new.y[clean] = old.y[diff.cell_new_to_old[clean]]

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
            n_rounds=0, routing=routing, elapsed=timer.stop(),
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
    if cfg.partial_route and 0 < len(dirty_net_ids) < new.n_nets:
        clean_net_ids = np.flatnonzero(~region.dirty_nets)
        with profiler.timer("eco.base_route"):
            base = placer.router.route(frozen, net_ids=clean_net_ids)
        placer.router = _PartialRouter(
            placer.router, dirty_net_ids, DemandSnapshot.from_result(base)
        )
    resume = bool(checkpoint_path) and os.path.exists(checkpoint_path)
    result = placer.run(
        skip_initial_gp=True,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )
    _finish(new, frozen, cfg, placer.gp.grid,
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
        elapsed=timer.stop(),
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
        resumed=out.resumed,
    )


def full_replace(
    netlist: Netlist,
    rd: RDConfig,
    legalize_after: bool = True,
    detail_passes: int = 2,
    profiler: StageProfiler | None = None,
) -> dict:
    """Cold full re-place of ``netlist`` (the QoR-delta reference).

    Runs the complete Fig. 2 flow from a fresh initial placement plus
    the same legalize/detail finish the ECO path uses, and returns the
    comparable QoR numbers.  Positions are mutated in place.
    """
    from repro.detail import detailed_place
    from repro.legalize import legalize

    profiler = profiler or StageProfiler()
    placer = RoutabilityDrivenPlacer(netlist, rd, profiler=profiler)
    result = placer.run()
    if legalize_after:
        legalize(netlist)
        detailed_place(
            netlist,
            passes=detail_passes,
            grid=placer.gp.grid,
            congestion=result.final_routing.congestion_map,
        )
    routing = GlobalRouter(placer.gp.grid, rd.router, profiler=profiler).route(
        netlist
    )
    return {
        "hpwl": float(hpwl(netlist)),
        "total_overflow": float(routing.total_overflow),
        "rounds": int(result.n_rounds),
    }
