"""Layered routing grid: capacities, demand accumulation, cost maps.

The 3-D G-cell space of the paper (``R_r x R_c x L``) is represented by
per-direction 2-D maps: layers of the same preferred direction are
summed, exactly the reduction of Sec. II-B (``Dmd_{m,n} = sum_l ...``).
A :class:`RoutingGrid` owns

* static horizontal/vertical capacity maps (macro blockage subtracted);
* mutable horizontal/vertical wire demand and via demand maps;
* history maps for negotiated-congestion rip-up-and-reroute.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.route.config import RouterConfig

#: Number of routing layers; alternating preferred directions (layer 0
#: horizontal).  The 2-D maps the placer consumes are layer sums, as in
#: Sec. II-B of the paper.
N_LAYERS = 4
#: Contribution of one via to the demand of its G-cell, relative to one
#: wire crossing.
VIA_WEIGHT = 0.25
#: Fraction of capacity blocked in G-cells covered by macros.
MACRO_BLOCKAGE = 0.5
#: Path cost per G-cell is ``1 + CONGESTION_WEIGHT *
#: utilization^CONGESTION_EXPONENT``; steers segments away from
#: nearly-full cells.
CONGESTION_EXPONENT = 4.0
CONGESTION_WEIGHT = 3.0
#: Extra cost per accumulated overflow event (rip-up rounds).
HISTORY_WEIGHT = 1.5


class RoutingGrid:
    """Demand/capacity state for one routing pass."""

    def __init__(
        self,
        grid: Grid2D,
        config: RouterConfig | None = None,
        netlist: Netlist | None = None,
    ) -> None:
        """
        Parameters
        ----------
        grid:
            G-cell grid; the paper maps it one-to-one onto placement
            bins, so callers typically pass the placer's grid.
        netlist:
            When given, macro blockage is carved out of the capacity.
        """
        self.grid = grid
        self.config = config or RouterConfig()
        cfg = self.config

        n_h_layers = (N_LAYERS + 1) // 2  # layers 0, 2, ... are horizontal
        n_v_layers = N_LAYERS // 2
        tracks_h = grid.dy / cfg.wire_pitch  # horizontal wires stack vertically
        tracks_v = grid.dx / cfg.wire_pitch
        self.h_cap = np.full(grid.shape, tracks_h * n_h_layers, dtype=np.float64)
        self.v_cap = np.full(grid.shape, tracks_v * n_v_layers, dtype=np.float64)

        if netlist is not None:
            self._apply_macro_blockage(netlist)
            self._apply_rail_blockage(netlist)

        self.h_demand = grid.zeros()
        self.v_demand = grid.zeros()
        self.via_demand = grid.zeros()
        self.history = grid.zeros()

    def _apply_macro_blockage(self, netlist: Netlist) -> None:
        """Reduce capacity under macros by the blockage fraction."""
        from repro.density.rasterize import CellRasterizer

        macro_ids = np.flatnonzero(netlist.cell_macro & netlist.cell_fixed)
        if len(macro_ids) == 0:
            return
        raster = CellRasterizer(
            self.grid,
            netlist.x[macro_ids],
            netlist.y[macro_ids],
            netlist.cell_width[macro_ids],
            netlist.cell_height[macro_ids],
            smooth=False,
        )
        coverage = np.clip(raster.charge_map() / self.grid.bin_area, 0.0, 1.0)
        factor = 1.0 - MACRO_BLOCKAGE * coverage
        self.h_cap *= factor
        self.v_cap *= factor

    def _apply_rail_blockage(self, netlist: Netlist) -> None:
        """Subtract the tracks PG rails occupy from routing capacity.

        A rail running through a G-cell permanently consumes
        ``thickness / pitch`` tracks of its direction over the covered
        span — this is why cells under M2 rails are hard to reach
        (Sec. III-C) and gives the pin-accessibility techniques their
        physical lever.
        """
        if not netlist.pg_rails:
            return
        from repro.density.rasterize import CellRasterizer

        for horizontal in (True, False):
            rails = [r for r in netlist.pg_rails if r.horizontal == horizontal]
            if not rails:
                continue
            cx = np.array([r.rect.center[0] for r in rails])
            cy = np.array([r.rect.center[1] for r in rails])
            w = np.array([r.rect.width for r in rails])
            h = np.array([r.rect.height for r in rails])
            area = CellRasterizer(self.grid, cx, cy, w, h, smooth=False).charge_map()
            if horizontal:
                blocked = area / (self.config.wire_pitch * self.grid.dx)
                self.h_cap = np.maximum(self.h_cap - blocked, 0.25 * self.h_cap)
            else:
                blocked = area / (self.config.wire_pitch * self.grid.dy)
                self.v_cap = np.maximum(self.v_cap - blocked, 0.25 * self.v_cap)

    # ------------------------------------------------------------------
    # demand bookkeeping
    # ------------------------------------------------------------------
    def add_h_run(self, j: int, i0: int, i1: int, sign: float = 1.0) -> None:
        """Add wire demand for a horizontal run through row ``j``.

        Covers G-cells ``min(i0,i1) .. max(i0,i1)`` inclusive.
        """
        lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
        self.h_demand[lo : hi + 1, j] += sign

    def add_v_run(self, i: int, j0: int, j1: int, sign: float = 1.0) -> None:
        """Add wire demand for a vertical run through column ``i``."""
        lo, hi = (j0, j1) if j0 <= j1 else (j1, j0)
        self.v_demand[i, lo : hi + 1] += sign

    def add_via(self, i: int, j: int, amount: float = 1.0) -> None:
        """Add via demand at G-cell ``(i, j)``."""
        self.via_demand[i, j] += amount

    # ------------------------------------------------------------------
    # batched demand scatter (one call per chunk instead of one Python
    # slice-add per run; exact integer counts, so bit-identical to the
    # per-run adders above)
    # ------------------------------------------------------------------
    def _scatter_runs(
        self,
        target: np.ndarray,
        fixed: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        sign: float,
        axis: int,
    ) -> None:
        """Add ``sign`` over spans ``lo..hi`` along ``axis`` at ``fixed``.

        Expands all spans into flat G-cell indices with arange/repeat
        arithmetic and accumulates them with one ``np.bincount``.
        """
        if len(fixed) == 0:
            return
        spans = hi - lo + 1
        total = int(spans.sum())
        starts = np.concatenate(([0], np.cumsum(spans)[:-1]))
        moving = np.arange(total) + np.repeat(lo - starts, spans)
        fix = np.repeat(fixed, spans)
        ny = target.shape[1]
        flat = moving * ny + fix if axis == 0 else fix * ny + moving
        counts = np.bincount(flat, minlength=target.size)
        target += sign * counts.reshape(target.shape)

    def add_h_runs(
        self, j: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign: float = 1.0
    ) -> None:
        """Batch of horizontal runs: ``h_demand[lo_k:hi_k+1, j_k] += sign``."""
        self._scatter_runs(self.h_demand, j, lo, hi, sign, axis=0)

    def add_v_runs(
        self, i: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign: float = 1.0
    ) -> None:
        """Batch of vertical runs: ``v_demand[i_k, lo_k:hi_k+1] += sign``."""
        self._scatter_runs(self.v_demand, i, lo, hi, sign, axis=1)

    def add_vias(self, i: np.ndarray, j: np.ndarray, sign: float = 1.0) -> None:
        """Batch of unit vias at G-cells ``(i_k, j_k)``."""
        if len(i) == 0:
            return
        counts = np.bincount(i * self.grid.ny + j, minlength=self.via_demand.size)
        self.via_demand += sign * counts.reshape(self.via_demand.shape)

    # ------------------------------------------------------------------
    # aggregate views (Sec. II-B reductions)
    # ------------------------------------------------------------------
    def total_demand(self) -> np.ndarray:
        """``Dmd_{m,n}``: wire demand plus weighted via demand."""
        return (
            self.h_demand
            + self.v_demand
            + VIA_WEIGHT * self.via_demand
        )

    def total_capacity(self) -> np.ndarray:
        """``Cap_{m,n}``: sum of directional capacities."""
        return self.h_cap + self.v_cap

    def utilization(self) -> np.ndarray:
        """``rho = Dmd / Cap`` (the Poisson charge of Sec. II-B)."""
        return self.total_demand() / np.maximum(self.total_capacity(), 1e-12)

    def overflow_map(self) -> np.ndarray:
        """Per-direction overflow summed (demand above capacity)."""
        return np.maximum(self.h_demand - self.h_cap, 0.0) + np.maximum(
            self.v_demand - self.v_cap, 0.0
        )

    def accumulate_history(self) -> None:
        """Record one unit of history where any direction overflows."""
        self.history += (self.h_demand > self.h_cap) | (self.v_demand > self.v_cap)

    # ------------------------------------------------------------------
    # path cost maps
    # ------------------------------------------------------------------
    def cost_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-G-cell crossing costs (horizontal, vertical).

        ``1 + w * util^p + history`` — convex in utilization so paths
        spread around hotspots before they overflow.
        """
        h_util = self.h_demand / np.maximum(self.h_cap, 1e-12)
        v_util = self.v_demand / np.maximum(self.v_cap, 1e-12)
        hist = HISTORY_WEIGHT * self.history
        h_cost = 1.0 + CONGESTION_WEIGHT * h_util**CONGESTION_EXPONENT + hist
        v_cost = 1.0 + CONGESTION_WEIGHT * v_util**CONGESTION_EXPONENT + hist
        return h_cost, v_cost
