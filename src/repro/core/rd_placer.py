"""The integrated routability-driven global placement flow (Fig. 2).

Stages, in the paper's order:

1. select PG rails from macro positions (pin-accessibility prep);
2. wirelength-driven global placement (Xplace stand-in) for the
   initial solution;
3. routability loop — each round:
   a. global routing (Z-shape router) -> congestion map (Eq. 3) and
      utilization (the congestion Poisson charge);
   b. momentum-based cell inflation update (MCI, Eq. 11-12);
   c. dynamic pin-accessibility density adjustment (DPA, Eq. 13-15);
   d. solve problem (5) with Nesterov, where the congestion gradient
      is assembled per Alg. 1 + Alg. 2 and weighted by Eq. (10) (DC);
   repeated until C(x, y) stops decreasing or the round cap;
4. hand the result to legalization / detailed placement (separate
   modules — see :mod:`repro.legalize` and :mod:`repro.detail`).

Each of MCI / DC / DPA can be disabled independently, which is exactly
the ablation axis of Table II.

Robustness layer
----------------
The loop never returns garbage and never dies mid-flow:

* every round snapshots positions + inflation state + congestion
  score; the lowest-score snapshot is restored at the end, and a
  diverged or crashed round *rolls back* to it before continuing;
* congestion maps are sanitized (NaN/Inf scrubbed) before they feed
  inflation, DPA or the congestion gradient, and the recovery is
  reported in that round's record;
* with ``checkpoint_path`` set, a snapshot of the current and the
  best-so-far positions is written to disk after the initial routing
  and after every completed round.  The snapshot is write-only: the
  flow never resumes from it; the ECO warm start
  (:func:`repro.eco.warm.baseline_positions`) reads it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.congestion_field import CongestionField
from repro.core.inflation import InflationConfig, MomentumInflation
from repro.core.multipin import multi_pin_candidates, multi_pin_cell_gradients
from repro.core.netmove import NetMoveConfig, TwoPinNets, two_pin_net_gradients
from repro.core.pgrails import rail_area_map, select_pg_rails
from repro.core.pinaccess import PinAccessConfig, pg_density_charge
from repro.core.weights import congestion_penalty_weight, count_cells_in_congestion
from repro.netlist.netlist import Netlist
from repro.place.config import GPConfig
from repro.place.global_placer import GlobalPlacer
from repro.place.initial import initial_placement
from repro.route.config import RouterConfig
from repro.route.router import GlobalRouter, RoutingResult
from repro.utils import faults
from repro.utils.checkpoint import write_checkpoint
from repro.utils.contracts import CONTRACTS
from repro.utils.guards import all_finite, scrub_nonfinite
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler
from repro.wirelength.hpwl import hpwl as hpwl_of

logger = get_logger("core.rd_placer")


def design_fingerprint(netlist: Netlist) -> dict:
    """Identity a best-placement snapshot is written for and checked
    against (:func:`repro.eco.warm.baseline_positions`): the design name
    and its cell, net and pin counts."""
    return {
        "name": netlist.name,
        "n_cells": int(netlist.n_cells),
        "n_nets": int(netlist.n_nets),
        "n_pins": int(netlist.n_pins),
    }


@dataclass
class RDConfig:
    """Configuration of the routability-driven flow.

    ``enable_mci`` / ``enable_dc`` / ``enable_dpa`` toggle the paper's
    three techniques (Table II ablation axis).
    """

    gp: GPConfig = field(default_factory=GPConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    inflation: InflationConfig = field(default_factory=InflationConfig)
    netmove: NetMoveConfig = field(default_factory=NetMoveConfig)
    pinaccess: PinAccessConfig = field(default_factory=PinAccessConfig)
    inflation_mode: str = "momentum"  # "momentum" (MCI) | "present" | "off"
    pg_mode: str = "dynamic"  # "dynamic" (DPA) | "static" | "off"
    enable_dc: bool = True
    max_rounds: int = 8
    iters_per_round: int = 50
    multipin_threshold: float = 0.7
    patience: int = 2
    c_improve_tol: float = 1e-3
    # skip/stop the routability loop when the routed congestion is
    # negligible: there is nothing to mitigate, and perturbing a
    # converged placement can only hurt
    stop_mean_congestion: float = 1e-3
    # consecutive failed (rolled-back) rounds tolerated before the
    # loop gives up and returns the best snapshot
    max_round_failures: int = 2

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.iters_per_round < 1:
            raise ValueError("iters_per_round must be >= 1")
        if self.inflation_mode not in ("momentum", "present", "off"):
            raise ValueError(f"unknown inflation_mode {self.inflation_mode!r}")
        if self.pg_mode not in ("dynamic", "static", "off"):
            raise ValueError(f"unknown pg_mode {self.pg_mode!r}")
        if self.max_round_failures < 1:
            raise ValueError("max_round_failures must be >= 1")

    @property
    def enable_mci(self) -> bool:
        """Momentum-based cell inflation active (Table II column MCI)."""
        return self.inflation_mode == "momentum"

    @property
    def enable_dpa(self) -> bool:
        """Dynamic pin-accessibility density active (column DPA)."""
        return self.pg_mode == "dynamic"


@dataclass
class RoundRecord:
    """Diagnostics of one routability round.

    ``recovery`` lists human-readable notes of every guard action taken
    while preparing this round (scrubbed congestion maps, rollbacks of
    a previous failed round); ``router_fallbacks`` counts routing
    chunks retried one segment at a time in the pass that produced
    this round's congestion (``RoutingResult.n_fallbacks``);
    ``guard_trips`` is the cumulative solver guard-trip count at record
    time (``GlobalPlacer.n_guard_trips``).

    ``n_deflated`` counts cells whose Eq. 12 deflation correction fired
    in this round's MCI update.  ``netmove_grad_l1`` /
    ``multipin_grad_l1`` are the L1 norms of the Alg. 1 / Alg. 2
    gradients at the *last* solver evaluation before this record (zero
    in round 0, where no congestion gradient has run yet).
    ``dpa_bins`` / ``dpa_charge`` summarise this round's dynamic
    pin-accessibility adjustment: bins receiving extra density and the
    total extra charge (Eq. 14-15).
    """

    round_id: int
    c_value: float
    mean_congestion: float
    max_congestion: float
    congested_fraction: float
    total_overflow: float
    hpwl: float
    lambda2: float
    n_congested_cells: int
    mean_inflation: float
    max_inflation: float
    recovery: list = field(default_factory=list)
    router_fallbacks: int = 0
    guard_trips: int = 0
    n_deflated: int = 0
    netmove_grad_l1: float = 0.0
    multipin_grad_l1: float = 0.0
    dpa_bins: int = 0
    dpa_charge: float = 0.0


@dataclass
class RDResult:
    """Outcome of the full routability-driven global placement.

    ``n_guard_events`` counts the solver guard trips (``gp.guard``
    events) plus the flow recoveries (``rd.recovery`` events) of this
    run.
    """

    netlist: Netlist
    rounds: list
    final_routing: RoutingResult
    selected_rails: list
    placement_time: float
    initial_gp_iters: int
    best_round: int = -1
    n_guard_events: int = 0

    @property
    def n_rounds(self) -> int:
        """Number of completed routability rounds."""
        return len(self.rounds)

    def series(self, key: str) -> list:
        """Per-round trajectory of one :class:`RoundRecord` field."""
        return [getattr(r, key) for r in self.rounds]


@dataclass
class _FlowState:
    """Everything the routability loop mutates between rounds."""

    rounds: list = field(default_factory=list)
    hpwl_ref: float = 1.0
    best_score: float = np.inf
    best_positions: tuple | None = None
    best_inflation: dict | None = None
    best_size_scale: np.ndarray | None = None
    best_round: int = -1
    best_c: float = np.inf
    stall: int = 0
    selected_rails: list = field(default_factory=list)
    rail_area: np.ndarray | None = None
    initial_iters: int = 0
    routing: RoutingResult | None = None
    best_routing: RoutingResult | None = None


class RoutabilityDrivenPlacer:
    """Run the Fig. 2 flow on a netlist (positions mutated in place)."""

    def __init__(
        self,
        netlist: Netlist,
        config: RDConfig | None = None,
        profiler: StageProfiler | None = None,
        metrics=None,
    ) -> None:
        self.netlist = netlist
        self.config = config or RDConfig()
        self.profiler = profiler or StageProfiler()
        self.metrics = metrics if metrics is not None else NULL
        self.gp = GlobalPlacer(
            netlist, self.config.gp, profiler=self.profiler, metrics=self.metrics
        )
        self.router = GlobalRouter(
            self.gp.grid,
            self.config.router,
            profiler=self.profiler,
            metrics=self.metrics,
        )
        self.inflation = MomentumInflation(netlist.n_cells, self.config.inflation)
        std = netlist.movable & ~netlist.cell_macro
        self.virtual_area = (
            float(netlist.cell_area[std].mean()) if std.any() else 1.0
        )
        self.last_lambda2 = 0.0
        # L1 norms of the Alg. 1 / Alg. 2 gradients at the most recent
        # solver evaluation (telemetry; see RoundRecord)
        self.last_netmove_l1 = 0.0
        self.last_multipin_l1 = 0.0
        # (bins adjusted, total charge) of the most recent DPA update
        self._last_dpa = (0, 0.0)
        # every flow recovery goes through _note_recovery, which
        # counts it here; round-level ones also land in the next
        # RoundRecord.recovery through _pending_recovery
        self.n_recoveries = 0
        self._pending_recovery: list = []

    # ------------------------------------------------------------------
    def run(
        self,
        skip_initial_gp: bool = False,
        checkpoint_path: str | None = None,
    ) -> RDResult:
        """Execute the full flow.

        Parameters
        ----------
        skip_initial_gp:
            When True, assume ``netlist`` already holds a
            wirelength-driven global placement (used by benchmarks
            that share one initial placement across placers).
        checkpoint_path:
            When set, a snapshot of the current and best-so-far
            positions is written there after the initial routing and
            after every completed round (atomic ``.npz``, the previous
            one kept as ``.bak``).  The flow never reads it back.
        """
        cfg = self.config
        t0 = time.perf_counter()

        state = self._start_flow(skip_initial_gp)
        if checkpoint_path:
            self._save_flow_checkpoint(checkpoint_path, state, next_round=0)

        failures = 0
        for round_id in range(cfg.max_rounds):
            try:
                outcome = self._run_round(round_id, state)
            except Exception as exc:  # noqa: BLE001 — rollback, don't die
                failures += 1
                self._rollback_round(state, round_id, exc)
                if failures >= cfg.max_round_failures:
                    logger.error(
                        "%d consecutive failed rounds; returning best snapshot",
                        failures,
                    )
                    break
                continue
            failures = 0
            if outcome == "stop":
                break
            if checkpoint_path:
                self._save_flow_checkpoint(checkpoint_path, state, round_id + 1)

        routing = state.routing
        # the loop's very last routing may beat every snapshot
        final_score = self._routing_score(
            routing, hpwl_of(self.netlist), state.hpwl_ref
        )
        if final_score < state.best_score:
            state.best_positions = None
            state.best_routing = routing
            state.best_round = len(state.rounds)

        if state.best_positions is not None:
            self.netlist.x[:] = state.best_positions[0]
            self.netlist.y[:] = state.best_positions[1]
            routing = state.best_routing
            logger.info("restored best placement from round %d", state.best_round)

        return RDResult(
            netlist=self.netlist,
            rounds=state.rounds,
            final_routing=routing,
            selected_rails=state.selected_rails,
            placement_time=time.perf_counter() - t0,
            initial_gp_iters=state.initial_iters,
            best_round=state.best_round,
            n_guard_events=self.gp.n_guard_trips + self.n_recoveries,
        )

    # ------------------------------------------------------------------
    # flow setup / one round
    # ------------------------------------------------------------------
    def _start_flow(self, skip_initial_gp: bool) -> _FlowState:
        """Rails + initial wirelength-driven GP + first routing pass."""
        cfg = self.config
        if self.metrics.enabled:
            nl = self.netlist
            self.metrics.emit(
                "rd.start",
                design=nl.name,
                n_cells=int(nl.n_cells),
                n_nets=int(nl.n_nets),
                inflation_mode=cfg.inflation_mode,
                pg_mode=cfg.pg_mode,
                enable_dc=cfg.enable_dc,
            )
        state = _FlowState()
        state.rail_area = self.gp.grid.zeros()
        if cfg.pg_mode == "dynamic":
            state.selected_rails = select_pg_rails(self.netlist)
            state.rail_area = rail_area_map(state.selected_rails, self.gp.grid)
            logger.info("selected %d PG rail pieces", len(state.selected_rails))
        elif cfg.pg_mode == "static":
            # Xplace-Route-style: all rails, adjusted once before
            # placement, independent of congestion
            state.rail_area = rail_area_map(self.netlist.pg_rails, self.gp.grid)
            self.gp.extra_static_charge = (
                cfg.pinaccess.density_scale * state.rail_area
            )

        if not skip_initial_gp:
            from repro.place.global_placer import converge_placement

            with self.profiler.timer("rd.initial_gp"):
                initial_placement(self.netlist, cfg.gp.seed)
                converge_placement(
                    self.netlist,
                    cfg.gp,
                    profiler=self.profiler,
                    metrics=self.metrics,
                )
        state.initial_iters = len(self.gp.history)

        with self.profiler.timer("rd.route"):
            state.routing = self.router.route(self.netlist)
        state.hpwl_ref = max(hpwl_of(self.netlist), 1e-12)
        return state

    def _run_round(self, round_id: int, state: _FlowState) -> str:
        """One routability round; returns ``"continue"`` or ``"stop"``."""
        cfg = self.config
        routing = state.routing
        score = self._routing_score(
            routing, hpwl_of(self.netlist), state.hpwl_ref
        )
        if score < state.best_score:
            # best snapshot: positions + inflation state + congestion
            # score, so a rollback restores a *consistent* flow state
            state.best_score = score
            state.best_positions = (self.netlist.x.copy(), self.netlist.y.copy())
            state.best_inflation = self.inflation.state_dict()
            state.best_size_scale = self.gp.size_scale.copy()
            state.best_routing = routing
            state.best_round = round_id

        c_map, utilization = self._sanitized_maps(routing, round_id)
        fld = CongestionField(self.gp.grid, utilization)

        cell_cong = self.gp.grid.value_at(c_map, self.netlist.x, self.netlist.y)
        if cfg.inflation_mode == "momentum":
            with self.profiler.timer("rd.inflate"):
                rates = self.inflation.update(cell_cong)
                self.gp.size_scale = np.sqrt(self._budgeted_rates(rates))
        elif cfg.inflation_mode == "present":
            # present-congestion-only inflation ([3, 5] style): the
            # rate follows the current map with no history, so cells
            # deflate instantly after leaving a hotspot
            with self.profiler.timer("rd.inflate"):
                rates = np.clip(
                    1.0 + cell_cong,
                    self.config.inflation.r_min,
                    self.config.inflation.r_max,
                )
                self.gp.size_scale = np.sqrt(self._budgeted_rates(rates))

        if cfg.pg_mode == "dynamic":
            with self.profiler.timer("rd.pinaccess"):
                charge = pg_density_charge(
                    self.gp.grid, state.rail_area, c_map, cfg.pinaccess
                )
                self.gp.extra_static_charge = charge
                self._last_dpa = (int((charge > 0).sum()), float(charge.sum()))
        else:
            self._last_dpa = (0, 0.0)

        if cfg.enable_dc:
            self.gp.extra_grad_fn = self._make_congestion_grad(fld, c_map)
        else:
            self.gp.extra_grad_fn = None

        with self.profiler.timer("rd.record"):
            record = self._record_round(round_id, routing, fld, c_map)
        state.rounds.append(record)
        if self.metrics.enabled:
            self._emit_round(record)
        if record.mean_congestion < cfg.stop_mean_congestion:
            logger.info(
                "round %d: congestion negligible (%.2e), stopping",
                round_id,
                record.mean_congestion,
            )
            return "stop"
        if record.hpwl > 1.15 * state.hpwl_ref:
            # runaway guard: on globally saturated designs the
            # inflation/congestion forces can enter a spreading spiral
            # (longer wires -> more demand -> more spreading); once
            # wirelength departs this far from the seed, further
            # rounds only dig deeper
            logger.info(
                "round %d: wirelength runaway (%.0f vs seed %.0f), stopping",
                round_id,
                record.hpwl,
                state.hpwl_ref,
            )
            return "stop"
        logger.info(
            "round %d: C=%.4e mean_cong=%.4f hpwl=%.4e lambda2=%.3e",
            round_id,
            record.c_value,
            record.mean_congestion,
            record.hpwl,
            record.lambda2,
        )

        # stop when C(x, y) no longer decreases (Fig. 2 exit arc)
        if record.c_value < state.best_c * (1.0 - cfg.c_improve_tol):
            state.best_c = record.c_value
            state.stall = 0
        else:
            state.stall += 1
            if state.stall >= cfg.patience:
                return "stop"

        self.gp.reset_solver()
        # inclusive of the gp.* stages recorded inside the solver
        with self.profiler.timer("rd.nesterov"):
            self.gp.run(
                max_iters=cfg.iters_per_round, min_iters=cfg.iters_per_round
            )
        self._ensure_finite_positions(round_id)
        with self.profiler.timer("rd.route"):
            state.routing = self.router.route(self.netlist)
        return "continue"

    # ------------------------------------------------------------------
    # robustness: sanitization, rollback
    # ------------------------------------------------------------------
    def _sanitized_maps(self, routing: RoutingResult, round_id: int) -> tuple:
        """Congestion/utilization maps with NaN/Inf scrubbed.

        A degenerate map (zero capacity, overflow blow-up, or an
        injected fault) would otherwise poison inflation rates, the
        DPA charge and the congestion gradient at once.  Scrubbed
        entries read as "no congestion"; the recovery is reported in
        this round's record.
        """
        cong = routing.congestion
        c_map = faults.fire("rd.congestion", cong.congestion)
        utilization = cong.utilization
        if not all_finite(c_map):
            c_map = np.array(c_map, dtype=np.float64, copy=True)
            _, n_bad = scrub_nonfinite(c_map)
            np.clip(c_map, 0.0, None, out=c_map)
            self._note_recovery(
                round_id,
                "nonfinite",
                f"scrubbed {n_bad} non-finite congestion entries",
                action="scrub",
            )
        if not all_finite(utilization):
            utilization = np.array(utilization, dtype=np.float64, copy=True)
            _, n_bad = scrub_nonfinite(utilization)
            np.clip(utilization, 0.0, None, out=utilization)
            self._note_recovery(
                round_id,
                "nonfinite",
                f"scrubbed {n_bad} non-finite utilization entries",
                action="scrub",
            )
        return c_map, utilization

    def _ensure_finite_positions(self, round_id: int) -> None:
        """Last line of defence after a solver round: finite, in-die."""
        nl = self.netlist
        if all_finite(nl.x) and all_finite(nl.y):
            return
        _, bad_x = scrub_nonfinite(nl.x, float(nl.die.cx))
        _, bad_y = scrub_nonfinite(nl.y, float(nl.die.cy))
        nl.clamp_to_die()
        self._note_recovery(
            round_id,
            "nonfinite",
            f"re-centered {max(bad_x, bad_y)} cells with non-finite positions",
            action="scrub",
        )

    def _note_recovery(
        self, round_id: int, kind: str, detail: str, action: str
    ) -> None:
        """Record one flow recovery: count, log, ``rd.recovery`` event.

        The note also lands in the next :class:`RoundRecord.recovery`.
        """
        logger.warning("round %d: %s (%s)", round_id, detail, action)
        self.n_recoveries += 1
        if self.metrics.enabled:
            self.metrics.emit(
                "rd.recovery",
                round=round_id,
                guard=kind,
                detail=detail,
                action=action,
            )
        self._pending_recovery.append(detail)

    def _rollback_round(
        self, state: _FlowState, round_id: int, exc: Exception
    ) -> None:
        """Restore the best snapshot after a round crashed or diverged."""
        logger.exception("round %d failed; rolling back to best snapshot", round_id)
        self._note_recovery(
            round_id,
            "exception",
            f"round {round_id} failed ({type(exc).__name__}: {exc}); "
            f"rolled back to round {state.best_round} snapshot",
            action="rollback",
        )
        nl = self.netlist
        if state.best_positions is not None:
            nl.x[:] = state.best_positions[0]
            nl.y[:] = state.best_positions[1]
        else:
            scrub_nonfinite(nl.x, float(nl.die.cx))
            scrub_nonfinite(nl.y, float(nl.die.cy))
            nl.clamp_to_die()
        if state.best_inflation is not None:
            self.inflation.load_state_dict(state.best_inflation)
        if state.best_size_scale is not None:
            self.gp.size_scale = state.best_size_scale.copy()
        # the solver state may be arbitrarily corrupted: rebuild it
        # from scratch at the restored point next round
        self.gp._optimizer = None
        self.gp.extra_grad_fn = None
        self.gp.reset_solver()
        with self.profiler.timer("rd.route"):
            state.routing = self.router.route(nl)

    # ------------------------------------------------------------------
    # best-placement snapshot
    # ------------------------------------------------------------------
    def _save_flow_checkpoint(
        self, path: str, state: _FlowState, next_round: int
    ) -> None:
        """Write the current and best-so-far positions to ``path``.

        The meta block carries the design fingerprint that
        :func:`repro.eco.warm.baseline_positions` validates; ``best_x``
        / ``best_y`` are present when ``has_best`` is set.
        """
        nl = self.netlist
        meta = {
            "design": design_fingerprint(nl),
            "has_best": state.best_positions is not None,
        }
        arrays = {"x": nl.x, "y": nl.y}
        if state.best_positions is not None:
            arrays["best_x"] = state.best_positions[0]
            arrays["best_y"] = state.best_positions[1]
        with self.profiler.timer("rd.checkpoint"):
            # keep the predecessor: a torn write of this file must not
            # cost the warm start its only snapshot
            write_checkpoint(path, meta, arrays, keep_previous=True)
        if self.metrics.enabled:
            self.metrics.emit("rd.checkpoint", round=next_round)
        logger.info("snapshot written to %s (next round %d)", path, next_round)

    # ------------------------------------------------------------------
    def _budgeted_rates(self, rates: np.ndarray) -> np.ndarray:
        """Cap total inflated area at the whitespace budget.

        On high-utilization dies, unconstrained inflation can push the
        total (inflated) movable area past what the die holds, after
        which no amount of spreading resolves the density — placement
        and wirelength blow up together.  When the requested rates
        exceed ``budget_fraction x`` the placeable capacity, all rates
        are shrunk toward 1 proportionally (standard inflation-budget
        practice).
        """
        nl = self.netlist
        mv = nl.movable
        areas = nl.cell_area[mv]
        requested = float((areas * rates[mv]).sum())
        fixed_area = float(nl.cell_area[~mv].sum())
        budget = 0.95 * self.config.gp.target_density * (
            nl.die.area - fixed_area
        )
        if requested <= budget:
            return rates
        base = float(areas.sum())
        extra = requested - base
        if extra <= 0:
            return rates
        k = max((budget - base) / extra, 0.0)
        logger.info("inflation budget hit: scaling rate excess by %.3f", k)
        return 1.0 + (rates - 1.0) * k

    @staticmethod
    def _routing_score(
        routing: RoutingResult, cur_hpwl: float, ref_hpwl: float
    ) -> float:
        """Checkpoint score.

        Squared per-G-cell overflow (the quantity the detailed-routing
        violation count tracks) times a quadratic wirelength penalty
        relative to the incoming placement: flattening hotspots by
        doubling every wire is not an improvement — longer wires mean
        proportionally more demand once routed at the finer
        evaluation resolution.
        """
        g = routing.grid
        h_over = np.maximum(g.h_demand - g.h_cap, 0.0)
        v_over = np.maximum(g.v_demand - g.v_cap, 0.0)
        sq = float((h_over**2).sum() + (v_over**2).sum())
        wl_factor = max(cur_hpwl / max(ref_hpwl, 1e-12), 1.0)
        return sq * wl_factor

    # ------------------------------------------------------------------
    def _make_congestion_grad(self, fld: CongestionField, c_map: np.ndarray):
        """Closure evaluated by the placer at every solver iteration.

        Assembles CGrad per Alg. 2 (two-pin net moving + multi-pin
        cells) at the *current* positions against this round's fixed
        congestion field, then scales it by Eq. (10).  The two-pin nets
        with a movable endpoint and the movable multi-pin candidates
        are found once here, so each iteration touches only what can
        move.
        """
        nl = self.netlist
        grid = self.gp.grid
        cfg = self.config
        n_congested = count_cells_in_congestion(nl, grid, c_map)
        two_pin = TwoPinNets(nl)
        candidates = multi_pin_candidates(nl)

        def _grad() -> tuple[np.ndarray, np.ndarray]:
            net_gx, net_gy, _ = two_pin_net_gradients(
                nl, grid, c_map, fld, self.virtual_area, cfg.netmove, two_pin
            )
            cell_gx, cell_gy, _ = multi_pin_cell_gradients(
                nl, grid, c_map, fld, cfg.multipin_threshold, candidates
            )
            self.last_netmove_l1 = float(
                np.abs(net_gx).sum() + np.abs(net_gy).sum()
            )
            self.last_multipin_l1 = float(
                np.abs(cell_gx).sum() + np.abs(cell_gy).sum()
            )
            gx = net_gx + cell_gx
            gy = net_gy + cell_gy
            l1 = float(np.abs(gx).sum() + np.abs(gy).sum())
            lam2 = congestion_penalty_weight(
                self.gp.last_wl_grad_l1, l1, n_congested, nl.n_cells
            )
            self.last_lambda2 = lam2
            if CONTRACTS.enabled:
                # Eq. (10) weight: finite and non-negative by
                # construction of congestion_penalty_weight
                CONTRACTS.check_finite_scalar(
                    "rd_placer.congestion_grad", "lambda2", lam2, nonneg=True
                )
            return lam2 * gx, lam2 * gy

        return _grad

    def _record_round(
        self,
        round_id: int,
        routing: RoutingResult,
        fld: CongestionField,
        c_map: np.ndarray,
    ) -> RoundRecord:
        nl = self.netlist
        grid = self.gp.grid
        cfg = self.config

        # C(x, y) over V' = selected multi-pin cells + virtual cells
        from repro.core.netmove import virtual_cell_positions

        info = virtual_cell_positions(nl, grid, c_map, cfg.netmove)
        act = info["active"]
        c_value = 0.0
        if act.any():
            c_value += fld.penalty(
                info["xv"][act], info["yv"][act], self.virtual_area
            )
        _, _, selected = multi_pin_cell_gradients(
            nl, grid, c_map, fld, cfg.multipin_threshold
        )
        if selected.any():
            ids = np.flatnonzero(selected)
            c_value += fld.penalty(nl.x[ids], nl.y[ids], nl.cell_area[ids])

        from repro.wirelength.hpwl import hpwl

        n_congested = count_cells_in_congestion(nl, grid, c_map)
        recovery, self._pending_recovery = self._pending_recovery, []
        return RoundRecord(
            round_id=round_id,
            c_value=c_value,
            mean_congestion=float(c_map.mean()),
            max_congestion=float(c_map.max()),
            congested_fraction=float((c_map > 0).mean()),
            total_overflow=routing.total_overflow,
            hpwl=hpwl(nl),
            lambda2=self.last_lambda2,
            n_congested_cells=n_congested,
            mean_inflation=float((self.gp.size_scale**2).mean()),
            max_inflation=float((self.gp.size_scale**2).max()),
            recovery=recovery,
            router_fallbacks=routing.n_fallbacks,
            guard_trips=self.gp.n_guard_trips,
            n_deflated=self.inflation.last_n_deflated,
            netmove_grad_l1=self.last_netmove_l1,
            multipin_grad_l1=self.last_multipin_l1,
            dpa_bins=self._last_dpa[0],
            dpa_charge=self._last_dpa[1],
        )

    def _emit_round(self, record: RoundRecord) -> None:
        """One ``rd.round`` telemetry event mirroring the record."""
        fields = asdict(record)
        recovery = fields.pop("recovery")
        # the stream names the round ``round`` and counts the recovery
        # notes (dse/store.py reads both names)
        self.metrics.emit(
            "rd.round",
            round=fields.pop("round_id"),
            **fields,
            n_recoveries=len(recovery),
        )
