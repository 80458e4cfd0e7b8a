"""Global router: initial pattern routing + rip-up-and-reroute.

Produces the demand, capacity and congestion maps the placement
framework consumes each routability iteration (the "GPU-accelerated
3D Z-shape routing" box of Fig. 2, on CPU).  The router is stateless
across calls: every :meth:`GlobalRouter.route` starts from the current
cell positions.

Segments are routed in cost-refresh chunks as array operations: the
segments of one chunk all see the same (stale) cost maps, which only
refresh every ``cost_refresh_interval`` segments, so a chunk is
evaluated with one :meth:`PatternRouter.route_batch` call and its
demand committed with one bincount scatter per direction.  Overflow
victims are detected with 2-D prefix sums of the overflow masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.route.config import RouterConfig
from repro.route.congestion import CongestionData, congestion_from_demand
from repro.route.decompose import segment_endpoints
from repro.route.grid import RoutingGrid
from repro.route.patterns import PatternRouter, RoutedPath, RoutedPathBatch
from repro.utils import faults
from repro.utils.contracts import CONTRACTS
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler

logger = get_logger("route.router")


@dataclass
class DemandSnapshot:
    """Frozen demand maps from a prior routing pass.

    Used as the *base load* of a partial (ECO) pass: the snapshot's
    demand is pre-committed into the fresh :class:`RoutingGrid` before
    any segment routes, so the routed subset sees the frozen nets'
    congestion in its cost maps without re-routing them.
    """

    h: np.ndarray
    v: np.ndarray
    via: np.ndarray

    @classmethod
    def from_result(cls, result: "RoutingResult") -> "DemandSnapshot":
        """Copy the demand maps out of a finished pass."""
        g = result.grid
        return cls(h=g.h_demand.copy(), v=g.v_demand.copy(), via=g.via_demand.copy())


@dataclass
class RoutingResult:
    """Outcome of one global routing pass.

    ``n_fallbacks`` counts the cost-refresh chunks whose
    :meth:`PatternRouter.route_batch` call raised and that were routed
    one segment at a time with :meth:`PatternRouter.route_one` instead
    (bit-identical, only slower).
    """

    grid: RoutingGrid
    congestion: CongestionData
    wirelength: float
    n_vias: float
    total_overflow: float
    n_segments: int
    n_fallbacks: int = 0

    @property
    def congestion_map(self) -> np.ndarray:
        """Eq. (3) map ``max(Dmd/Cap - 1, 0)``."""
        return self.congestion.congestion

    @property
    def utilization_map(self) -> np.ndarray:
        """``rho = Dmd / Cap`` (Poisson charge, Sec. II-B)."""
        return self.congestion.utilization


class GlobalRouter:
    """Route a netlist over a G-cell grid and report congestion."""

    def __init__(
        self,
        grid: Grid2D,
        config: RouterConfig | None = None,
        profiler: StageProfiler | None = None,
        metrics=None,
    ) -> None:
        self.grid = grid
        self.config = config or RouterConfig()
        self.profiler = profiler or StageProfiler()
        self.metrics = metrics if metrics is not None else NULL

    # ------------------------------------------------------------------
    def route(
        self,
        netlist: Netlist,
        net_ids: np.ndarray | None = None,
        base_demand: DemandSnapshot | None = None,
    ) -> RoutingResult:
        """Routing pass at the current cell positions.

        With the defaults this is a full pass over every net.  The ECO
        flow uses the two optional arguments for partial
        rip-up-and-reroute: ``net_ids`` restricts decomposition (and
        pin-via demand) to the given nets, and ``base_demand`` pre-loads
        a :class:`DemandSnapshot` of the frozen nets so the routed
        subset competes against their congestion.  Only routed segments
        are ever ripped up in RRR rounds; the base load is immutable.

        A cost-refresh chunk that raises is retried one segment at a
        time (see :meth:`_route_chunks`) and counted in
        ``RoutingResult.n_fallbacks``.  Any other failure propagates:
        the caller bounds and reports it (the routability loop rolls
        the round back, a sweep job records an error).
        """
        self.profiler.count("route.calls")
        with self.profiler.timer("route.total"):
            faults.fire("route.batched")
            result = self._route_pass(netlist, net_ids, base_demand)
        if CONTRACTS.enabled:
            # demand must stay finite and non-negative after all
            # rip-up/uncommit cycles and maze detours
            CONTRACTS.check_demand_conservation(
                "router.route", result.grid.h_demand, result.grid.v_demand
            )
            CONTRACTS.check_array(
                "router.route", "congestion", result.congestion_map,
                finite=True, min_value=0.0,
            )
        self._emit_pass(result)
        return result

    def _emit_pass(self, result: RoutingResult) -> None:
        """Per-pass demand/capacity/overflow telemetry summary."""
        m = self.metrics
        if not m.enabled:
            return
        rgrid = result.grid
        util = result.utilization_map
        m.inc("route.passes")
        m.observe("route.overflow", result.total_overflow)
        m.emit(
            "route.pass",
            n_segments=result.n_segments,
            wirelength=result.wirelength,
            vias=result.n_vias,
            total_overflow=result.total_overflow,
            h_demand=float(rgrid.h_demand.sum()),
            v_demand=float(rgrid.v_demand.sum()),
            h_cap=float(rgrid.h_cap.sum()),
            v_cap=float(rgrid.v_cap.sum()),
            max_utilization=float(util.max()) if util.size else 0.0,
            n_fallbacks=result.n_fallbacks,
        )

    # ------------------------------------------------------------------
    def _route_pass(
        self,
        netlist: Netlist,
        net_ids: np.ndarray | None = None,
        base_demand: DemandSnapshot | None = None,
    ) -> RoutingResult:
        cfg = self.config
        prof = self.profiler
        rgrid = RoutingGrid(self.grid, cfg, netlist)
        self._apply_base_demand(rgrid, base_demand)

        with prof.timer("route.decompose"):
            batch = self._collect_segment_batch(netlist, net_ids)
        prof.count("route.segments", len(batch))
        self._add_pin_via_demand(rgrid, netlist, net_ids)

        with prof.timer("route.initial"):
            n_fallbacks = self._route_chunks(
                rgrid, batch, np.arange(len(batch), dtype=np.int64)
            )

        with prof.timer("route.rrr"):
            for round_id in range(cfg.rrr_rounds):
                rgrid.accumulate_history()
                victims = self._overflow_victims(rgrid, batch)
                if len(victims) == 0:
                    break
                logger.info(
                    "RRR round %d: rerouting %d segments", round_id, len(victims)
                )
                prof.count("route.rerouted", len(victims))
                self._commit_idx(rgrid, batch, victims, sign=-1.0)
                n_fallbacks += self._route_chunks(rgrid, batch, victims)

        overrides: dict[int, RoutedPath] = {}
        if cfg.maze_fallback:
            with prof.timer("route.maze"):
                overrides = self._maze_cleanup(rgrid, batch)

        return self._result(rgrid, batch, overrides, n_fallbacks)

    @staticmethod
    def _apply_base_demand(
        rgrid: RoutingGrid, base_demand: DemandSnapshot | None
    ) -> None:
        """Pre-commit a frozen-net demand snapshot into a fresh grid."""
        if base_demand is None:
            return
        rgrid.h_demand += base_demand.h
        rgrid.v_demand += base_demand.v
        rgrid.via_demand += base_demand.via

    def _collect_segment_batch(
        self, netlist: Netlist, net_ids: np.ndarray | None = None
    ) -> RoutedPathBatch:
        """Two-pin segments as arrays, sorted by bbox span.

        Short segments first: they have no routing freedom anyway and
        longer segments then see realistic congestion.  The sort is
        stable, so equal-span segments keep net order.  ``net_ids``
        restricts the batch to segments of the given nets (partial ECO
        pass).
        """
        nets, x1, y1, x2, y2 = segment_endpoints(netlist, self.config.topology)
        if net_ids is not None:
            keep = np.isin(nets, net_ids)
            nets, x1, y1, x2, y2 = nets[keep], x1[keep], y1[keep], x2[keep], y2[keep]
        i1, j1 = self.grid.index_of(x1, y1)
        i2, j2 = self.grid.index_of(x2, y2)
        span = np.abs(i2 - i1) + np.abs(j2 - j1)
        order = np.argsort(span, kind="stable")
        n = len(order)
        return RoutedPathBatch(
            i1=i1[order],
            j1=j1[order],
            i2=i2[order],
            j2=j2[order],
            family=np.full(n, -1, dtype=np.int8),
            bend=np.zeros(n, dtype=np.int64),
            cost=np.zeros(n, dtype=np.float64),
        )

    def _route_chunks(
        self, rgrid: RoutingGrid, batch: RoutedPathBatch, idx: np.ndarray
    ) -> int:
        """Route segments ``idx`` in cost-refresh chunks and commit each.

        Costs refresh every ``cost_refresh_interval`` segments; demand
        is committed chunk by chunk as we go.  Returns the number of
        chunks retried one segment at a time.
        """
        cfg = self.config
        router = PatternRouter(
            *rgrid.cost_maps(), via_cost=1.0, z_samples=cfg.z_samples
        )
        step = cfg.cost_refresh_interval
        n_fallbacks = 0
        for s in range(0, len(idx), step):
            if s:
                router.refresh(*rgrid.cost_maps())
            chunk = idx[s : s + step]
            try:
                faults.fire("route.batched_chunk")
                sub = router.route_batch(
                    batch.i1[chunk],
                    batch.j1[chunk],
                    batch.i2[chunk],
                    batch.j2[chunk],
                )
                batch.family[chunk] = sub.family
                batch.bend[chunk] = sub.bend
                batch.cost[chunk] = sub.cost
            except Exception:
                # graceful degradation: route the chunk one segment at
                # a time against the same (stale) cost maps — slower,
                # bit-identical, and the flow keeps running
                logger.exception(
                    "batched chunk of %d segments failed; retrying it "
                    "one segment at a time",
                    len(chunk),
                )
                self.profiler.count("route.chunk_fallbacks")
                n_fallbacks += 1
                for k in chunk:
                    fam, bend, cost = router.route_one(
                        int(batch.i1[k]),
                        int(batch.j1[k]),
                        int(batch.i2[k]),
                        int(batch.j2[k]),
                    )
                    batch.family[k] = fam
                    batch.bend[k] = bend
                    batch.cost[k] = cost
            self._commit_idx(rgrid, batch, chunk, sign=1.0)
        return n_fallbacks

    @staticmethod
    def _commit_idx(
        rgrid: RoutingGrid, batch: RoutedPathBatch, idx: np.ndarray, sign: float
    ) -> None:
        """Scatter the demand of segments ``idx`` into the grid maps."""
        runs = batch.runs(idx)
        rgrid.add_h_runs(runs.h_j, runs.h_lo, runs.h_hi, sign)
        rgrid.add_v_runs(runs.v_i, runs.v_lo, runs.v_hi, sign)
        rgrid.add_vias(runs.b_i, runs.b_j, sign)

    def _overflow_victims(
        self, rgrid: RoutingGrid, batch: RoutedPathBatch
    ) -> np.ndarray:
        """Indices of segments whose path crosses an overflowed G-cell.

        2-D prefix sums of the overflow masks turn the per-run "any
        overflowed cell in this span?" test into two gathers per run.
        """
        h_over = rgrid.h_demand > rgrid.h_cap
        v_over = rgrid.v_demand > rgrid.v_cap
        if not (h_over.any() or v_over.any()):
            return np.zeros(0, dtype=np.int64)
        nx, ny = rgrid.grid.nx, rgrid.grid.ny
        hpre = np.zeros((nx + 1, ny))
        np.cumsum(h_over, axis=0, out=hpre[1:])
        vpre = np.zeros((nx, ny + 1))
        np.cumsum(v_over, axis=1, out=vpre[:, 1:])

        runs = batch.runs()
        h_hit = (hpre[runs.h_hi + 1, runs.h_j] - hpre[runs.h_lo, runs.h_j]) > 0
        v_hit = (vpre[runs.v_i, runs.v_hi + 1] - vpre[runs.v_i, runs.v_lo]) > 0
        mask = np.zeros(len(batch), dtype=bool)
        mask[runs.h_seg[h_hit]] = True
        mask[runs.v_seg[v_hit]] = True
        return np.flatnonzero(mask)

    def _maze_cleanup(
        self, rgrid: RoutingGrid, batch: RoutedPathBatch
    ) -> dict:
        """Detour-route still-overflowed segments; returns path overrides."""
        from repro.route.maze import maze_route

        victims = self._overflow_victims(rgrid, batch)
        overrides: dict[int, RoutedPath] = {}
        if len(victims) == 0:
            return overrides
        logger.info("maze fallback: rerouting %d segments", len(victims))
        one = np.empty(1, dtype=np.int64)
        for k in victims:
            one[0] = k
            before = float(rgrid.overflow_map().sum())
            self._commit_idx(rgrid, batch, one, sign=-1.0)
            # fresh costs per segment: maze paths gladly share a cheap
            # corridor and would re-create the overflow on stale maps
            h_cost, v_cost = rgrid.cost_maps()
            path = maze_route(
                h_cost,
                v_cost,
                int(batch.i1[k]),
                int(batch.j1[k]),
                int(batch.i2[k]),
                int(batch.j2[k]),
                via_cost=1.0,
                window=self.config.maze_window,
            )
            self._commit_path(rgrid, path, sign=1.0)
            after = float(rgrid.overflow_map().sum())
            if after >= before - 1e-9:
                # admission control: a detour that does not reduce the
                # total overflow only burns wirelength — keep the old
                # path (in a saturated region every cell is expensive
                # and Dijkstra wanders without actually helping)
                self._commit_path(rgrid, path, sign=-1.0)
                self._commit_idx(rgrid, batch, one, sign=1.0)
            else:
                overrides[int(k)] = path
        return overrides

    def _result(
        self,
        rgrid: RoutingGrid,
        batch: RoutedPathBatch,
        overrides: dict,
        n_fallbacks: int,
    ) -> RoutingResult:
        wl = batch.wirelengths(self.grid.dx, self.grid.dy)
        for k, path in overrides.items():
            wl[k] = path.wirelength(self.grid.dx, self.grid.dy)
        congestion = congestion_from_demand(rgrid)
        return RoutingResult(
            grid=rgrid,
            congestion=congestion,
            wirelength=float(wl.sum()),
            n_vias=float(rgrid.via_demand.sum()),
            total_overflow=float(rgrid.overflow_map().sum()),
            n_segments=len(batch),
            n_fallbacks=n_fallbacks,
        )

    def _add_pin_via_demand(
        self,
        rgrid: RoutingGrid,
        netlist: Netlist,
        net_ids: np.ndarray | None = None,
    ) -> None:
        """Add ``pin_via_demand`` per pin to its G-cell's via demand."""
        if self.config.pin_via_demand <= 0 or netlist.n_pins == 0:
            return
        px, py = netlist.pin_positions()
        if net_ids is not None:
            keep = np.isin(netlist.pin_net, net_ids)
            px, py = px[keep], py[keep]
            if px.size == 0:
                return
        i, j = self.grid.index_of(px, py)
        flat = np.bincount(
            i * self.grid.ny + j,
            minlength=self.grid.nx * self.grid.ny,
        ).astype(np.float64)
        rgrid.via_demand += self.config.pin_via_demand * flat.reshape(self.grid.shape)

    @staticmethod
    def _commit_path(rgrid: RoutingGrid, path: RoutedPath, sign: float) -> None:
        """Add (``sign=1``) or remove (``-1``) one path's demand."""
        for kind, fixed, a, b in path.runs:
            if kind == "h":
                rgrid.add_h_run(fixed, a, b, sign)
            else:
                rgrid.add_v_run(fixed, a, b, sign)
        for (i, j) in path.bends:
            rgrid.add_via(i, j, sign)
