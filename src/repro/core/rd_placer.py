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
* the whole loop state can be checkpointed to disk after each round
  (``checkpoint_path``) and resumed bit-identically (``resume=True``),
  so an interrupted flow continues instead of restarting.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.congestion_field import CongestionField
from repro.core.inflation import InflationConfig, MomentumInflation
from repro.core.multipin import multi_pin_candidates, multi_pin_cell_gradients
from repro.core.netmove import NetMoveConfig, TwoPinNets, two_pin_net_gradients
from repro.core.pgrails import rail_area_map, select_pg_rails
from repro.core.pinaccess import PinAccessConfig, pg_density_charge
from repro.core.weights import congestion_penalty_weight, count_cells_in_congestion
from repro.geometry.rect import Rect
from repro.netlist.data import PGRailSpec
from repro.netlist.netlist import Netlist
from repro.place.config import GPConfig
from repro.place.global_placer import GlobalPlacer
from repro.place.initial import initial_placement
from repro.route.config import RouterConfig
from repro.route.router import GlobalRouter, RoutingResult
from repro.utils import faults
from repro.utils.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    backup_path,
    read_checkpoint_with_fallback,
    write_checkpoint,
)
from repro.utils.contracts import CONTRACTS
from repro.utils.guards import GuardEvent, GuardLog, all_finite, scrub_nonfinite
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler
from repro.utils.timer import Timer
from repro.wirelength.hpwl import hpwl as hpwl_of

logger = get_logger("core.rd_placer")


def _checkpoint_candidates(path: str) -> bool:
    """True when the checkpoint or its ``.bak`` predecessor exists."""
    return os.path.exists(path) or os.path.exists(backup_path(path))


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
    this round's congestion (``RoutingResult.n_fallbacks``); ``guard_trips`` is the cumulative solver guard-trip
    count at record time.

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
    """Outcome of the full routability-driven global placement."""

    netlist: Netlist
    rounds: list
    final_routing: RoutingResult
    selected_rails: list
    placement_time: float
    initial_gp_iters: int
    best_round: int = -1
    profile: dict = field(default_factory=dict)
    guard_events: list = field(default_factory=list)
    resumed_from_round: int = -1

    @property
    def n_rounds(self) -> int:
        """Number of completed routability rounds."""
        return len(self.rounds)

    def series(self, key: str) -> list:
        """Per-round trajectory of one :class:`RoundRecord` field."""
        return [getattr(r, key) for r in self.rounds]


@dataclass
class _FlowState:
    """Everything the routability loop mutates between rounds.

    Kept in one object so a round can be checkpointed to disk and the
    loop resumed from it bit-identically (the current routing is *not*
    part of the state: the router is stateless, so it is recomputed
    from the positions on resume).
    """

    next_round: int = 0
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
    best_routing: RoutingResult | None = None  # in-memory only
    resumed_from_round: int = -1


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
        self.recovery_log = GuardLog()
        self._pending_recovery: list = []

    # ------------------------------------------------------------------
    def run(
        self,
        skip_initial_gp: bool = False,
        checkpoint_path: str | None = None,
        resume: bool = False,
    ) -> RDResult:
        """Execute the full flow.

        Parameters
        ----------
        skip_initial_gp:
            When True, assume ``netlist`` already holds a
            wirelength-driven global placement (used by benchmarks
            that share one initial placement across placers).
        checkpoint_path:
            When set, the loop state is written there after the
            initial routing and after every completed round (atomic
            ``.npz``), so an interrupted flow can be continued.
        resume:
            When True and ``checkpoint_path`` exists, restore the loop
            from it instead of starting over; the continuation is
            bit-identical to the uninterrupted run.
        """
        cfg = self.config
        timer = Timer().start()

        state: _FlowState | None = None
        if resume and checkpoint_path and _checkpoint_candidates(checkpoint_path):
            try:
                state = self._load_flow_checkpoint(checkpoint_path)
            except CheckpointCorruptError as exc:
                # torn write with no good predecessor: a cold start is
                # the correct recovery (the retry recomputes), but the
                # damage is reported, never silently absorbed
                self.recovery_log.record(
                    GuardEvent(
                        site="rd.checkpoint",
                        kind="checkpoint_corrupt",
                        detail=str(exc),
                        action="cold_start",
                    )
                )
                if self.metrics.enabled:
                    self.metrics.emit(
                        "rd.recovery",
                        round=-1,
                        guard="checkpoint_corrupt",
                        detail=str(exc),
                        action="cold_start",
                    )
                logger.warning(
                    "checkpoint unusable, starting flow from scratch: %s", exc
                )
        if state is not None:
            if self.metrics.enabled:
                self.metrics.emit("rd.resume", round=state.next_round)
            logger.info(
                "resumed flow from %s at round %d",
                checkpoint_path,
                state.next_round,
            )
        if state is None:
            state = self._start_flow(skip_initial_gp)
            if checkpoint_path:
                self._save_flow_checkpoint(checkpoint_path, state)

        failures = 0
        for round_id in range(state.next_round, cfg.max_rounds):
            self.profiler.count("rd.rounds")
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
                state.next_round = round_id + 1
                continue
            failures = 0
            state.next_round = round_id + 1
            if outcome == "stop":
                break
            if checkpoint_path:
                self._save_flow_checkpoint(checkpoint_path, state)

        routing = state.routing
        # the loop's very last routing may beat every checkpoint
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
            if state.best_routing is None:
                # resumed flow: the snapshot's routing was not carried
                # in the checkpoint; recompute it (stateless router ->
                # identical maps)
                with self.profiler.timer("rd.route"):
                    state.best_routing = self.router.route(self.netlist)
            routing = state.best_routing
            logger.info("restored best placement from round %d", state.best_round)

        timer.stop()
        return RDResult(
            netlist=self.netlist,
            rounds=state.rounds,
            final_routing=routing,
            selected_rails=state.selected_rails,
            placement_time=timer.elapsed,
            initial_gp_iters=state.initial_iters,
            best_round=state.best_round,
            profile=self.profiler.as_dict(),
            guard_events=self.gp.guard_log.as_dicts()
            + self.recovery_log.as_dicts(),
            resumed_from_round=state.resumed_from_round,
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
        logger.warning("round %d: %s (%s)", round_id, detail, action)
        self.profiler.count("rd.recoveries")
        if self.metrics.enabled:
            self.metrics.inc("rd.recoveries")
            self.metrics.emit(
                "rd.recovery",
                round=round_id,
                guard=kind,
                detail=detail,
                action=action,
            )
        self.recovery_log.record(
            GuardEvent(
                site="rd.flow",
                kind=kind,
                iteration=round_id,
                detail=detail,
                action=action,
            )
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
    # checkpoint serialization
    # ------------------------------------------------------------------
    def _design_fingerprint(self) -> dict:
        nl = self.netlist
        return {
            "name": nl.name,
            "n_cells": int(nl.n_cells),
            "n_nets": int(nl.n_nets),
            "n_pins": int(nl.n_pins),
        }

    def _checkpoint_config(self) -> dict:
        """The flow settings a checkpoint must match to be resumed."""
        cfg = self.config
        return {
            "inflation_mode": cfg.inflation_mode,
            "pg_mode": cfg.pg_mode,
            "enable_dc": cfg.enable_dc,
            "max_rounds": cfg.max_rounds,
            "iters_per_round": cfg.iters_per_round,
            # the only solver; kept so older checkpoints still match
            "optimizer": "nesterov",
            "seed": cfg.gp.seed,
        }

    def _save_flow_checkpoint(self, path: str, state: _FlowState) -> None:
        nl = self.netlist
        gp_state = self.gp.state_dict()
        infl_state = self.inflation.state_dict()
        opt_state = gp_state.pop("optimizer")

        meta = {
            "version": CHECKPOINT_VERSION,
            "design": self._design_fingerprint(),
            "config": self._checkpoint_config(),
            "next_round": state.next_round,
            "rounds": [asdict(r) for r in state.rounds],
            "hpwl_ref": state.hpwl_ref,
            "best_score": (
                None if not np.isfinite(state.best_score) else state.best_score
            ),
            "best_round": state.best_round,
            "best_c": None if not np.isfinite(state.best_c) else state.best_c,
            "stall": state.stall,
            "initial_iters": state.initial_iters,
            "last_lambda2": self.last_lambda2,
            # Alg. 1 / Alg. 2 gradient norms from the last solver
            # evaluation feed the *next* round's record, so a resumed
            # flow must carry them or its telemetry diverges from an
            # uninterrupted run
            "last_netmove_l1": self.last_netmove_l1,
            "last_multipin_l1": self.last_multipin_l1,
            "selected_rails": [
                [r.rect.xlo, r.rect.ylo, r.rect.xhi, r.rect.yhi, int(r.horizontal)]
                for r in state.selected_rails
            ],
            "gp": {
                "density_weight": gp_state["density_weight"],
                "prev_hpwl": gp_state["prev_hpwl"],
                "wa_gamma": gp_state["wa_gamma"],
                "has_extra_static_charge": gp_state["extra_static_charge"]
                is not None,
            },
            "optimizer": None
            if opt_state is None
            else {
                k: v
                for k, v in opt_state.items()
                if not isinstance(v, np.ndarray) and v is not None
            },
            "inflation": {
                "prev_mean": infl_state["prev_mean"],
                "round": infl_state["round"],
                "has_prev_cong": infl_state["prev_cong"] is not None,
                "last_n_deflated": infl_state["last_n_deflated"],
            },
            "has_best": state.best_positions is not None,
        }

        arrays: dict = {
            "x": nl.x,
            "y": nl.y,
            "gp_filler_x": gp_state["filler_x"],
            "gp_filler_y": gp_state["filler_y"],
            "gp_size_scale": gp_state["size_scale"],
            "infl_rates": infl_state["rates"],
            "infl_delta": infl_state["delta_rates"],
        }
        if gp_state["extra_static_charge"] is not None:
            arrays["gp_extra_static_charge"] = gp_state["extra_static_charge"]
        if infl_state["prev_cong"] is not None:
            arrays["infl_prev_cong"] = infl_state["prev_cong"]
        if opt_state is not None:
            for key, value in opt_state.items():
                if isinstance(value, np.ndarray):
                    arrays[f"opt_{key}"] = value
        if state.best_positions is not None:
            arrays["best_x"] = state.best_positions[0]
            arrays["best_y"] = state.best_positions[1]
            arrays["best_size_scale"] = state.best_size_scale
            best_infl = state.best_inflation
            arrays["best_infl_rates"] = best_infl["rates"]
            arrays["best_infl_delta"] = best_infl["delta_rates"]
            if best_infl["prev_cong"] is not None:
                arrays["best_infl_prev_cong"] = best_infl["prev_cong"]
            meta["best_inflation"] = {
                "prev_mean": best_infl["prev_mean"],
                "round": best_infl["round"],
                "last_n_deflated": best_infl["last_n_deflated"],
            }

        with self.profiler.timer("rd.checkpoint"):
            # keep the predecessor: a torn write of this file must not
            # cost the flow its only resume point
            write_checkpoint(path, meta, arrays, keep_previous=True)
        if self.metrics.enabled:
            self.metrics.inc("rd.checkpoints")
            self.metrics.emit("rd.checkpoint", round=state.next_round)
        logger.info(
            "checkpoint written to %s (next round %d)", path, state.next_round
        )

    def _load_flow_checkpoint(self, path: str) -> _FlowState:
        cfg = self.config
        meta, arrays, used_path = read_checkpoint_with_fallback(path)
        if used_path != path:
            logger.warning(
                "checkpoint %s unusable; resuming from previous good "
                "checkpoint %s", path, used_path,
            )
            if self.metrics.enabled:
                self.metrics.emit(
                    "rd.recovery",
                    round=-1,
                    guard="checkpoint_corrupt",
                    detail=f"fell back to {used_path}",
                    action="fallback",
                )
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {meta.get('version')!r} "
                f"!= {CHECKPOINT_VERSION}"
            )
        if meta.get("design") != self._design_fingerprint():
            raise CheckpointError(
                f"{path}: checkpoint was written for design "
                f"{meta.get('design')}, not {self._design_fingerprint()}"
            )
        want_cfg = self._checkpoint_config()
        if meta.get("config") != want_cfg:
            raise CheckpointError(
                f"{path}: checkpoint config {meta.get('config')} does not "
                f"match the current flow config {want_cfg}"
            )

        nl = self.netlist
        nl.x[:] = arrays["x"]
        nl.y[:] = arrays["y"]

        opt_meta = meta.get("optimizer")
        opt_state = None
        if opt_meta is not None:
            opt_state = dict(opt_meta)
            for key, value in arrays.items():
                if key.startswith("opt_"):
                    opt_state[key[4:]] = value
            opt_state.setdefault("prev_v", None)
            opt_state.setdefault("prev_g", None)
        self.gp.load_state_dict(
            {
                "filler_x": arrays["gp_filler_x"],
                "filler_y": arrays["gp_filler_y"],
                "size_scale": arrays["gp_size_scale"],
                "extra_static_charge": arrays.get("gp_extra_static_charge"),
                "density_weight": meta["gp"]["density_weight"],
                "prev_hpwl": meta["gp"]["prev_hpwl"],
                "wa_gamma": meta["gp"]["wa_gamma"],
                "optimizer": opt_state,
            }
        )
        self.inflation.load_state_dict(
            {
                "rates": arrays["infl_rates"],
                "delta_rates": arrays["infl_delta"],
                "prev_cong": arrays.get("infl_prev_cong"),
                "prev_mean": meta["inflation"]["prev_mean"],
                "round": meta["inflation"]["round"],
                # absent in pre-existing snapshots; resumes as 0 there
                "last_n_deflated": meta["inflation"].get("last_n_deflated", 0),
            }
        )
        self.last_lambda2 = float(meta["last_lambda2"])
        # absent in pre-existing snapshots; resumes as 0.0 there
        self.last_netmove_l1 = float(meta.get("last_netmove_l1", 0.0))
        self.last_multipin_l1 = float(meta.get("last_multipin_l1", 0.0))

        state = _FlowState(
            next_round=int(meta["next_round"]),
            rounds=[RoundRecord(**r) for r in meta["rounds"]],
            hpwl_ref=float(meta["hpwl_ref"]),
            best_score=(
                np.inf if meta["best_score"] is None else float(meta["best_score"])
            ),
            best_round=int(meta["best_round"]),
            best_c=np.inf if meta["best_c"] is None else float(meta["best_c"]),
            stall=int(meta["stall"]),
            initial_iters=int(meta["initial_iters"]),
            resumed_from_round=int(meta["next_round"]) - 1,
        )
        state.selected_rails = [
            PGRailSpec(rect=Rect(r[0], r[1], r[2], r[3]), horizontal=bool(r[4]))
            for r in meta["selected_rails"]
        ]
        state.rail_area = rail_area_map(
            state.selected_rails
            if cfg.pg_mode == "dynamic"
            else self.netlist.pg_rails,
            self.gp.grid,
        )
        if meta["has_best"]:
            state.best_positions = (
                arrays["best_x"].copy(),
                arrays["best_y"].copy(),
            )
            state.best_size_scale = arrays["best_size_scale"].copy()
            state.best_inflation = {
                "rates": arrays["best_infl_rates"].copy(),
                "delta_rates": arrays["best_infl_delta"].copy(),
                "prev_cong": (
                    arrays["best_infl_prev_cong"].copy()
                    if "best_infl_prev_cong" in arrays
                    else None
                ),
                "prev_mean": meta["best_inflation"]["prev_mean"],
                "round": meta["best_inflation"]["round"],
                "last_n_deflated": meta["best_inflation"].get(
                    "last_n_deflated", 0
                ),
            }
        with self.profiler.timer("rd.route"):
            state.routing = self.router.route(nl)
        return state

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
            guard_trips=len(self.gp.guard_log),
            n_deflated=self.inflation.last_n_deflated,
            netmove_grad_l1=self.last_netmove_l1,
            multipin_grad_l1=self.last_multipin_l1,
            dpa_bins=self._last_dpa[0],
            dpa_charge=self._last_dpa[1],
        )

    def _emit_round(self, record: RoundRecord) -> None:
        """One ``rd.round`` telemetry event mirroring the record."""
        m = self.metrics
        m.inc("rd.rounds")
        m.observe("rd.total_overflow", record.total_overflow)
        m.gauge("rd.mean_inflation", record.mean_inflation)
        m.emit(
            "rd.round",
            round=record.round_id,
            c_value=record.c_value,
            mean_congestion=record.mean_congestion,
            max_congestion=record.max_congestion,
            congested_fraction=record.congested_fraction,
            total_overflow=record.total_overflow,
            hpwl=record.hpwl,
            lambda2=record.lambda2,
            n_congested_cells=record.n_congested_cells,
            mean_inflation=record.mean_inflation,
            max_inflation=record.max_inflation,
            n_deflated=record.n_deflated,
            netmove_grad_l1=record.netmove_grad_l1,
            multipin_grad_l1=record.multipin_grad_l1,
            dpa_bins=record.dpa_bins,
            dpa_charge=record.dpa_charge,
            router_fallbacks=record.router_fallbacks,
            guard_trips=record.guard_trips,
            n_recoveries=len(record.recovery),
        )
