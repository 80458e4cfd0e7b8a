"""Run placers over designs and collect Table I / Table II rows.

The evaluation contract mirrors the paper's: every placer runs from the
same input netlist, and every resulting placement is scored by the same
routing-outcome evaluator (same grid, same settings).

A *recipe* is a placer name :func:`run_design` knows how to run: the
three Table I flows (:data:`PLACERS`) and the four Table II ablation
rows (:data:`ABLATION_ROWS`).  Both tables are grid specs over those
recipes (:func:`table_spec`), executed by the one sweep runner,
:func:`repro.dse.runner.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.flows import (
    ablation_config,
    make_gp_seed,
    run_flow,
    run_ours,
    run_xplace,
    run_xplace_route,
)
from repro.core.rd_placer import RDConfig
from repro.evalrt.config import EvalConfig
from repro.evalrt.evaluator import evaluate_routing, evaluation_grid
from repro.evalrt.report import MetricRow
from repro.netlist.netlist import Netlist
from repro.place.config import GPConfig
from repro.synth.suite import suite_names
from repro.utils.logging import get_logger

logger = get_logger("bench.harness")

PLACERS = ("Xplace", "Xplace-Route", "Ours")

#: Table II rows: label -> :func:`~repro.baselines.flows.ablation_config`
#: flags.  Row (-,-,-) is the Xplace-Route recipe.
ABLATION_ROWS = (
    ("baseline", dict(mci=False, dc=False, dpa=False)),
    ("+MCI", dict(mci=True, dc=False, dpa=False)),
    ("+MCI+DC", dict(mci=True, dc=True, dpa=False)),
    ("+MCI+DC+DPA", dict(mci=True, dc=True, dpa=True)),
)

_ABLATION_FLAGS = dict(ABLATION_ROWS)

#: Every placer name :func:`run_design` accepts.
RECIPES = PLACERS + tuple(_ABLATION_FLAGS)

#: Default design list of the Table II ablation sweep — the congested
#: half of the suite (congestion techniques only act where congestion
#: exists).
TABLE2_DESIGNS = (
    "des_perf_1",
    "des_perf_a",
    "edit_dist_a",
    "fft_b",
    "matrix_mult_1",
    "matrix_mult_b",
    "superblue12",
    "superblue19",
)


@dataclass
class DesignOutcome:
    """All flows and evaluations of one design."""

    design: str
    flows: dict = field(default_factory=dict)  # placer -> FlowResult
    evals: dict = field(default_factory=dict)  # placer -> RoutingEvaluation

    def row(self, placer: str) -> MetricRow:
        """The Table I metric row of one placer on this design."""
        ev = self.evals[placer]
        fl = self.flows[placer]
        return MetricRow(
            design=self.design,
            placer=placer,
            metrics={
                "DRWL": ev.drwl,
                "#DRVias": ev.n_vias,
                "#DRVs": ev.n_drvs,
                "PT": fl.placement_time,
                "RT": ev.routing_time,
            },
        )


def run_design(
    netlist: Netlist,
    placers: tuple = PLACERS,
    gp_config: GPConfig | None = None,
    rd_config: RDConfig | None = None,
    eval_config: EvalConfig | None = None,
    metrics=None,
) -> DesignOutcome:
    """Run the requested recipes on one design and evaluate each.

    ``placers`` names entries of :data:`RECIPES`: a Table I flow or a
    Table II ablation row (``ablation_config(base=rd_config, ...)``).

    ``metrics`` (a :class:`~repro.utils.metrics.MetricsRegistry`)
    receives the telemetry of every flow run here; one registry can
    span a whole suite so the resulting stream/report covers the full
    bench session.
    """
    gp = gp_config or GPConfig()
    rd = rd_config or RDConfig(gp=gp)
    ev_cfg = eval_config or EvalConfig()
    grid = evaluation_grid(netlist, ev_cfg)
    seed_gp = make_gp_seed(netlist, gp, metrics=metrics)

    outcome = DesignOutcome(design=netlist.name)
    for placer in placers:
        logger.info("running %s on %s", placer, netlist.name)
        if placer == "Xplace":
            flow = run_xplace(netlist, gp, seed_gp)
        elif placer == "Xplace-Route":
            flow = run_xplace_route(netlist, rd, seed_gp, metrics=metrics)
        elif placer == "Ours":
            flow = run_ours(netlist, rd, seed_gp, metrics=metrics)
        elif placer in _ABLATION_FLAGS:
            flow = run_flow(
                placer, netlist,
                ablation_config(base=rd, **_ABLATION_FLAGS[placer]), seed_gp,
                metrics=metrics,
            )
        else:
            raise ValueError(f"unknown placer {placer!r}")
        outcome.flows[placer] = flow
        outcome.evals[placer] = evaluate_routing(flow.netlist, ev_cfg, grid)
    return outcome


def table_spec(table: int, designs=None, scale: float = 1.0, seed: int = 0):
    """The :class:`~repro.dse.grid.GridSpec` of Table I or Table II.

    One knob-free point: every unit is one design run under the
    table's recipes (Table I: :data:`PLACERS` over the whole suite;
    Table II: the :data:`ABLATION_ROWS` over :data:`TABLE2_DESIGNS`).
    ``designs`` overrides the default list; unknown names raise
    ``ValueError``.
    """
    from repro.dse.grid import parse_spec

    if table == 1:
        placers, default = PLACERS, suite_names()
    elif table == 2:
        placers, default = tuple(_ABLATION_FLAGS), TABLE2_DESIGNS
    else:
        raise ValueError(f"unknown table {table!r}; expected 1 or 2")
    return parse_spec({
        "name": f"table{table}",
        "designs": list(designs or default),
        "scale": scale,
        "seed": seed,
        "placers": list(placers),
    }, origin=f"table{table}")


def table_rows(outcomes: list) -> list:
    """Flatten outcomes into :class:`MetricRow` lists for reporting."""
    rows = []
    for outcome in outcomes:
        for placer in outcome.flows:
            rows.append(outcome.row(placer))
    return rows


def kernel_info() -> dict:
    """Kernel-layout record of the ``flowbench`` environment header.

    Every hot kernel has one fixed numpy layout (no backend choice, no
    runtime tuning), so the record is a constant.  The header still
    carries it, which keeps its fields the same across commits.
    """
    return {"backend": "numpy", "autotune": False}
