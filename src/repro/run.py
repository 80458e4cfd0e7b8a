"""The CLI flow runner: the bodies of ``repro place/route/eco``.

:func:`run_place_job`, :func:`run_route_job` and :func:`run_eco_job`
are the complete flows — load + validate, telemetry, contracts, the
placement/routing itself, output files — with the command-line flags
carried as request dataclasses.  :mod:`repro.cli` only parses flags
into a request and prints the outcome, so tests can run exactly the
code a shell invocation runs, in-process (``tests/test_cli_conformance.py``
checks that crossing the process boundary changes no output byte).
"""

from __future__ import annotations

from dataclasses import dataclass


# ----------------------------------------------------------------------
# shared plumbing (telemetry / contracts)
# ----------------------------------------------------------------------
def open_metrics(
    path: str | None,
    command: str,
    design: str,
    profiler=None,
):
    """Build the registry for a metrics path (or the disabled NULL).

    Returns ``(metrics, finish)`` where ``finish()`` closes the stream
    and returns a rendered :class:`~repro.utils.metrics.MetricsReport`
    (``None`` when telemetry is disabled).  An existing file at
    ``path`` is overwritten.

    The registry is armed with an abort flush: a SIGTERM'd or crashed
    run emits a terminal ``run.aborted`` event (naming the profiler's
    open stages when one is attached) and flushes the buffered sink,
    so the on-disk JSONL stays valid — truncated, not torn.
    """
    from repro.utils.metrics import (
        NULL,
        JsonlSink,
        MetricsRegistry,
        MetricsReport,
        install_abort_flush,
    )

    if not path:
        return NULL, lambda: None

    metrics = MetricsRegistry(sink=JsonlSink(path))
    metrics.start_run(command=command, design=design)
    abort = install_abort_flush(metrics, profiler=profiler)

    def finish():
        metrics.close()
        abort.uninstall()
        return MetricsReport.from_jsonl(path).render(f"metrics report ({path})")

    return metrics, finish


def configure_contracts(mode: str | None, metrics) -> None:
    """Arm the contract checker (``None`` keeps the environment default).

    Either way the telemetry registry is attached so warn-mode
    violations land in the metrics stream.
    """
    from repro.utils import contracts

    contracts.configure(mode=mode, metrics=metrics)


def load_validated(path: str):
    """Load a design file and structurally validate it.

    Parse errors already name the file and line (see
    :mod:`repro.io.bookshelf`); validation failures get the same
    treatment so a truncated or hand-edited file fails with a message
    pointing at the input, not a traceback from deep inside the flow.
    """
    from repro.io import load_design
    from repro.netlist.validate import validate_netlist

    netlist = load_design(path)
    try:
        validate_netlist(netlist)
    except ValueError as exc:
        raise SystemExit(f"error: {path}: invalid design: {exc}") from exc
    return netlist


# ----------------------------------------------------------------------
# place
# ----------------------------------------------------------------------
@dataclass
class PlaceRequest:
    """One ``repro place`` work order (CLI flags as data).

    ``rounds`` / ``iters_per_round`` override the routability loop's
    :class:`~repro.core.rd_placer.RDConfig` defaults when set (they
    exist so tests can bound flow length); ``None`` keeps the config
    defaults, which is what the bare CLI passes.  ``checkpoint``
    names the best-placement snapshot the routability flow writes
    (see ``RoutabilityDrivenPlacer.run``); it is never read back.
    """

    input: str
    out: str = "placed.bl"
    routability: bool = False
    iters: int = 1000
    rounds: int | None = None
    iters_per_round: int | None = None
    checkpoint: str | None = None
    metrics_out: str | None = None
    check_invariants: str | None = None


@dataclass
class PlaceOutcome:
    """What a place job produced (the CLI prints :meth:`summary_lines`)."""

    out: str
    hpwl: float = 0.0
    n_issues: int = 0
    n_rounds: int = 0
    best_round: int = -1
    n_guard_events: int = 0
    routability: bool = False
    report: str | None = None
    profiler: object = None

    def summary_lines(self) -> list:
        """The human-readable result lines (byte-compatible with the
        pre-refactor CLI output)."""
        lines = []
        if self.routability:
            lines.append(
                f"routability rounds: {self.n_rounds} "
                f"(best round {self.best_round})"
            )
            if self.n_guard_events:
                lines.append(
                    f"guard events: {self.n_guard_events} "
                    f"(see logs for details)"
                )
        legality = (
            "CLEAN" if not self.n_issues else f"{self.n_issues} issues"
        )
        lines.append(f"hpwl={self.hpwl:.0f} legality={legality}")
        lines.append(f"wrote {self.out}")
        return lines


def run_place_job(req: PlaceRequest) -> PlaceOutcome:
    """Run one complete place flow (the body of ``repro place``)."""
    from repro.core import RDConfig, RoutabilityDrivenPlacer
    from repro.detail import detailed_place
    from repro.io import save_design
    from repro.legalize import check_legal, legalize
    from repro.place import GPConfig, converge_placement, initial_placement
    from repro.utils.profile import StageProfiler
    from repro.wirelength import hpwl

    netlist = load_validated(req.input)
    gp = GPConfig(max_iters=req.iters)
    profiler = StageProfiler()
    metrics, finish_metrics = open_metrics(
        req.metrics_out,
        "place",
        design=req.input,
        profiler=profiler,
    )
    configure_contracts(req.check_invariants, metrics)
    outcome = PlaceOutcome(out=req.out, routability=req.routability)
    if req.routability:
        rd_kwargs = {}
        if req.rounds is not None:
            rd_kwargs["max_rounds"] = req.rounds
        if req.iters_per_round is not None:
            rd_kwargs["iters_per_round"] = req.iters_per_round
        rd = RDConfig(gp=gp, **rd_kwargs)
        placer = RoutabilityDrivenPlacer(
            netlist, rd, profiler=profiler, metrics=metrics,
        )
        result = placer.run(checkpoint_path=req.checkpoint)
        outcome.n_rounds = result.n_rounds
        outcome.best_round = result.best_round
        outcome.n_guard_events = result.n_guard_events
        congestion = result.final_routing.congestion_map
        grid = placer.gp.grid
    else:
        initial_placement(netlist, gp.seed)
        converge_placement(netlist, gp, profiler=profiler, metrics=metrics)
        congestion = None
        grid = None
    with profiler.timer("flow.legalize"):
        legalize(netlist)
    with profiler.timer("flow.detail"):
        detailed_place(netlist, passes=2, grid=grid, congestion=congestion)
    outcome.n_issues = len(check_legal(netlist))
    outcome.hpwl = float(hpwl(netlist))
    save_design(netlist, req.out)
    outcome.report = finish_metrics()
    outcome.profiler = profiler
    return outcome


# ----------------------------------------------------------------------
# eco
# ----------------------------------------------------------------------
@dataclass
class EcoRequest:
    """One ``repro eco`` work order (CLI flags as data).

    ``input`` is the **edited** design; ``baseline`` is the design it
    was edited from, ideally a placed output (``repro place``'s
    ``--out`` file) so the clean region inherits legal positions.
    ``baseline_checkpoint`` optionally names the snapshot a baseline
    ``repro place --checkpoint`` run wrote; its best positions seed
    the dirty cells.
    ``compare`` additionally runs a cold full re-place of the edited
    design and reports the QoR delta (``eco.compare`` telemetry).
    """

    input: str
    baseline: str = ""
    baseline_checkpoint: str | None = None
    out: str = "eco_placed.bl"
    rounds: int | None = None
    iters_per_round: int | None = None
    halo: int = 1
    compare: bool = False
    metrics_out: str | None = None
    check_invariants: str | None = None


@dataclass
class EcoOutcome:
    """What an ECO job produced (the CLI prints :meth:`summary_lines`)."""

    out: str
    hpwl: float = 0.0
    total_overflow: float = 0.0
    n_issues: int = 0
    n_rounds: int = 0
    n_edits: int = 0
    n_dirty_cells: int = 0
    n_dirty_nets: int = 0
    n_seeded: int = 0
    warm_source: str = ""
    compare: dict | None = None
    report: str | None = None
    profiler: object = None

    def summary_lines(self) -> list:
        """The human-readable result lines."""
        lines = [
            f"edits: {self.n_edits} -> dirty cells: {self.n_dirty_cells} "
            f"dirty nets: {self.n_dirty_nets} (warm start: {self.warm_source})",
            f"eco rounds: {self.n_rounds}",
        ]
        legality = "CLEAN" if not self.n_issues else f"{self.n_issues} issues"
        lines.append(
            f"hpwl={self.hpwl:.0f} overflow={self.total_overflow:.0f} "
            f"legality={legality}"
        )
        if self.compare:
            c = self.compare
            lines.append(
                f"vs full re-place: hpwl_ratio={c['hpwl_ratio']:.4f} "
                f"overflow {c['full_overflow']:.0f} -> {c['eco_overflow']:.0f} "
                f"rounds {c['full_rounds']} -> {c['eco_rounds']}"
            )
        lines.append(f"wrote {self.out}")
        return lines


def run_eco_job(req: EcoRequest) -> EcoOutcome:
    """Run one complete ECO flow (the body of ``repro eco``).

    An edit that pushes a fixed cell out of the die exits with an
    ``error:`` message naming the cell, before any placement work.
    """
    from repro.core import RDConfig
    from repro.eco import (
        EcoConfig,
        FixedCellOutsideDieError,
        eco_place,
        full_replace,
    )
    from repro.io import save_design
    from repro.legalize import check_legal
    from repro.place import GPConfig
    from repro.utils.profile import StageProfiler

    if not req.baseline:
        raise SystemExit("error: eco requires a baseline design file")
    netlist = load_validated(req.input)
    baseline = load_validated(req.baseline)
    profiler = StageProfiler()
    metrics, finish_metrics = open_metrics(
        req.metrics_out,
        "eco",
        design=req.input,
        profiler=profiler,
    )
    configure_contracts(req.check_invariants, metrics)
    rd_kwargs = {}
    if req.rounds is not None:
        rd_kwargs["max_rounds"] = req.rounds
    if req.iters_per_round is not None:
        rd_kwargs["iters_per_round"] = req.iters_per_round
    rd = RDConfig(gp=GPConfig(), **rd_kwargs)
    cfg = EcoConfig(rd=rd, halo_bins=req.halo)
    try:
        result = eco_place(
            netlist,
            baseline,
            cfg,
            baseline_checkpoint=req.baseline_checkpoint,
            profiler=profiler,
            metrics=metrics,
        )
    except FixedCellOutsideDieError as exc:
        raise SystemExit(f"error: {req.input}: {exc}") from exc
    outcome = EcoOutcome(
        out=req.out,
        hpwl=result.hpwl,
        total_overflow=result.total_overflow,
        n_rounds=result.n_rounds,
        n_edits=result.diff.n_edits,
        n_dirty_cells=result.region.n_dirty_cells,
        n_dirty_nets=result.region.n_dirty_nets,
        n_seeded=result.warm.n_seeded,
        warm_source=result.warm.source,
    )
    outcome.n_issues = len(check_legal(netlist))
    if req.compare:
        cold = load_validated(req.input)
        with profiler.timer("eco.compare"):
            ref = full_replace(
                cold, rd, detail_passes=cfg.detail_passes, profiler=profiler
            )
        outcome.compare = {
            "eco_hpwl": result.hpwl,
            "full_hpwl": ref["hpwl"],
            "hpwl_ratio": (
                result.hpwl / ref["hpwl"] if ref["hpwl"] else float("inf")
            ),
            "eco_overflow": result.total_overflow,
            "full_overflow": ref["total_overflow"],
            "eco_rounds": result.n_rounds,
            "full_rounds": ref["rounds"],
        }
        if metrics.enabled:
            metrics.emit("eco.compare", **outcome.compare)
    save_design(netlist, req.out)
    outcome.report = finish_metrics()
    outcome.profiler = profiler
    return outcome


# ----------------------------------------------------------------------
# route
# ----------------------------------------------------------------------
@dataclass
class RouteRequest:
    """One ``repro route`` work order (CLI flags as data)."""

    input: str
    grid: int = 0
    metrics_out: str | None = None
    check_invariants: str | None = None


@dataclass
class RouteOutcome:
    """What a route job produced (the CLI prints :meth:`summary_lines`)."""

    n_segments: int = 0
    wirelength: float = 0.0
    n_vias: float = 0.0
    util_mean: float = 0.0
    util_max: float = 0.0
    total_overflow: float = 0.0
    congested_pct: float = 0.0
    report: str | None = None
    profiler: object = None

    def summary_lines(self) -> list:
        """The human-readable result lines (byte-compatible with the
        pre-refactor CLI output)."""
        return [
            f"segments={self.n_segments} wirelength={self.wirelength:.0f} "
            f"vias={self.n_vias:.0f}",
            f"utilization mean={self.util_mean:.3f} max={self.util_max:.2f} "
            f"overflow={self.total_overflow:.0f} "
            f"congested={self.congested_pct:.1f}%",
        ]


def run_route_job(req: RouteRequest) -> RouteOutcome:
    """Run one complete route flow (the body of ``repro route``)."""
    from repro.geometry import Grid2D
    from repro.place.config import auto_grid_dim
    from repro.route import GlobalRouter, RouterConfig
    from repro.utils.profile import StageProfiler

    netlist = load_validated(req.input)
    dim = req.grid or auto_grid_dim(netlist.n_cells)
    grid = Grid2D(netlist.die, dim, dim)
    profiler = StageProfiler()
    metrics, finish_metrics = open_metrics(
        req.metrics_out,
        "route",
        design=req.input,
        profiler=profiler,
    )
    configure_contracts(req.check_invariants, metrics)
    result = GlobalRouter(
        grid, RouterConfig(), profiler=profiler, metrics=metrics
    ).route(netlist)
    util = result.utilization_map
    outcome = RouteOutcome(
        n_segments=result.n_segments,
        wirelength=float(result.wirelength),
        n_vias=float(result.n_vias),
        util_mean=float(util.mean()),
        util_max=float(util.max()),
        total_overflow=float(result.total_overflow),
        congested_pct=float((result.congestion_map > 0).mean() * 100),
    )
    outcome.report = finish_metrics()
    outcome.profiler = profiler
    return outcome
