"""Complete placement flows: global place -> legalize -> detailed place.

Each flow mutates a *copy* of the input netlist and reports its
placement wall time (the PT column of Table I).  These recipes are the
only place flow: the Table I/II sweeps, ``repro place`` and the
``eco --compare`` reference (:func:`repro.eco.full_replace`) all run
them.  A caller that wants the stages of a flow in its own
:class:`~repro.utils.profile.StageProfiler` passes it as ``profiler``;
otherwise each flow times itself in a fresh one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.rd_placer import RDConfig, RDResult, RoutabilityDrivenPlacer
from repro.detail.refine import DetailStats, detailed_place
from repro.legalize.api import LegalizeStats, legalize
from repro.netlist.netlist import Netlist
from repro.place.config import GPConfig
from repro.place.global_placer import converge_placement
from repro.place.initial import initial_placement
from repro.utils.profile import StageProfiler

#: Detailed-placement passes after legalization, in every flow.
DETAIL_PASSES = 2


@dataclass
class FlowResult:
    """A finished placement plus provenance."""

    name: str
    netlist: Netlist
    placement_time: float
    legalize_stats: LegalizeStats
    detail_stats: DetailStats
    rd_result: RDResult | None = None
    profile: dict = field(default_factory=dict)


@dataclass
class GPSeed:
    """A shared wirelength-driven global placement.

    The paper's flow (Fig. 2) obtains one Xplace placement and feeds
    it to the routability stage; benchmarks share a single seed across
    all compared placers so differences come from the routability
    techniques, not from separately-run initial placements.
    """

    netlist: Netlist
    time: float


def make_gp_seed(
    netlist: Netlist,
    gp_config: GPConfig | None = None,
    metrics=None,
    profiler: StageProfiler | None = None,
) -> GPSeed:
    """Run the wirelength-driven GP once, for all flows to start from."""
    nl = netlist.copy()
    t0 = time.perf_counter()
    initial_placement(nl, (gp_config or GPConfig()).seed)
    converge_placement(nl, gp_config, profiler=profiler, metrics=metrics)
    return GPSeed(netlist=nl, time=time.perf_counter() - t0)


def run_xplace(
    netlist: Netlist,
    gp_config: GPConfig | None = None,
    seed_gp: GPSeed | None = None,
    profiler: StageProfiler | None = None,
) -> FlowResult:
    """Wirelength-driven flow (no routability optimization)."""
    if seed_gp is None:
        seed_gp = make_gp_seed(netlist, gp_config, profiler=profiler)
    nl = seed_gp.netlist.copy()
    t0 = time.perf_counter()
    if profiler is None:
        profiler = StageProfiler()
    with profiler.timer("flow.legalize"):
        lstats = legalize(nl)
    with profiler.timer("flow.detail"):
        dstats = detailed_place(nl, passes=DETAIL_PASSES)
    return FlowResult(
        name="Xplace",
        netlist=nl,
        placement_time=seed_gp.time + (time.perf_counter() - t0),
        legalize_stats=lstats,
        detail_stats=dstats,
        profile=profiler.as_dict(),
    )


def run_flow(
    name: str,
    netlist: Netlist,
    rd_config: RDConfig,
    seed_gp: GPSeed | None = None,
    metrics=None,
    checkpoint_path: str | None = None,
    profiler: StageProfiler | None = None,
) -> FlowResult:
    """Routability-driven flow with an arbitrary :class:`RDConfig`.

    Without ``seed_gp`` the flow first makes its own seed
    (:func:`make_gp_seed` with ``rd_config.gp``).  ``checkpoint_path``
    passes straight through to :meth:`RoutabilityDrivenPlacer.run`,
    which writes the best-placement snapshot there after every round
    (ECO warm starts read it back).
    """
    if profiler is None:
        profiler = StageProfiler()
    if seed_gp is None:
        # the caller never sees this seed: place on its netlist
        seed_gp = make_gp_seed(
            netlist, rd_config.gp, metrics=metrics, profiler=profiler
        )
        nl = seed_gp.netlist
    else:
        nl = seed_gp.netlist.copy()
    t0 = time.perf_counter()
    placer = RoutabilityDrivenPlacer(
        nl, rd_config, profiler=profiler, metrics=metrics
    )
    rd_result = placer.run(checkpoint_path=checkpoint_path)
    with profiler.timer("flow.legalize"):
        lstats = legalize(nl)
    # congestion-aware detailed placement: do not move cells into the
    # G-cells the final routing pass reports as congested
    with profiler.timer("flow.detail"):
        dstats = detailed_place(
            nl,
            passes=DETAIL_PASSES,
            grid=placer.gp.grid,
            congestion=rd_result.final_routing.congestion_map,
        )
    return FlowResult(
        name=name,
        netlist=nl,
        placement_time=seed_gp.time + (time.perf_counter() - t0),
        legalize_stats=lstats,
        detail_stats=dstats,
        rd_result=rd_result,
        profile=profiler.as_dict(),
    )


def xplace_route_config(base: RDConfig | None = None) -> RDConfig:
    """Xplace-Route [8] recipe: present-congestion inflation, static
    PG density, no differentiable congestion term."""
    cfg = base or RDConfig()
    return replace(
        cfg, inflation_mode="present", pg_mode="static", enable_dc=False
    )


def ablation_config(
    mci: bool, dc: bool, dpa: bool, base: RDConfig | None = None
) -> RDConfig:
    """One Table II row.

    Row (-,-,-) equals the Xplace-Route recipe; each flag upgrades one
    technique to the paper's version.
    """
    cfg = base or RDConfig()
    return replace(
        cfg,
        inflation_mode="momentum" if mci else "present",
        pg_mode="dynamic" if dpa else "static",
        enable_dc=dc,
    )


def run_xplace_route(
    netlist: Netlist,
    base: RDConfig | None = None,
    seed_gp: GPSeed | None = None,
    metrics=None,
    checkpoint_path: str | None = None,
) -> FlowResult:
    """The leading routability-driven baseline of Table I."""
    return run_flow(
        "Xplace-Route", netlist, xplace_route_config(base), seed_gp, metrics,
        checkpoint_path=checkpoint_path,
    )


def run_ours(
    netlist: Netlist,
    base: RDConfig | None = None,
    seed_gp: GPSeed | None = None,
    metrics=None,
    checkpoint_path: str | None = None,
) -> FlowResult:
    """The paper's full framework (MCI + DC + DPA)."""
    return run_flow(
        "Ours", netlist, base or RDConfig(), seed_gp, metrics,
        checkpoint_path=checkpoint_path,
    )
