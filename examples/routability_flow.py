"""Walk through the Fig. 2 flow stage by stage, with diagnostics.

Shows what each component contributes: PG-rail selection, the initial
wirelength-driven placement, then per-round routing, momentum
inflation, dynamic PG density and the lambda_2-weighted congestion
gradient, ending with legalization and congestion-aware detailed
placement.

Run:  python examples/routability_flow.py
"""

from repro.core import RDConfig, RoutabilityDrivenPlacer
from repro.detail import detailed_place
from repro.legalize import check_legal, legalize
from repro.place import GPConfig, converge_placement, initial_placement
from repro.synth import suite_design
from repro.wirelength import hpwl


def main() -> None:
    netlist = suite_design("edit_dist_a", scale=0.5)
    cfg = RDConfig(gp=GPConfig(max_iters=600), max_rounds=6, iters_per_round=40)

    # the wirelength-driven placement the routability loop starts from
    initial_placement(netlist, cfg.gp.seed)
    gp_iters = converge_placement(netlist, cfg.gp)
    print(f"initial GP iterations: {gp_iters}")

    placer = RoutabilityDrivenPlacer(netlist, cfg)
    result = placer.run()
    print(f"PG rails selected: {len(result.selected_rails)} pieces "
          f"(of {len(netlist.pg_rails)} raw rails)")
    print(f"placement time: {result.placement_time:.1f}s\n")

    print("routability rounds:")
    print("  round   C(x,y)     meanCong  overflow   hpwl      lambda2")
    for r in result.rounds:
        print(
            f"  {r.round_id:5d} {r.c_value:10.3e} {r.mean_congestion:9.4f} "
            f"{r.total_overflow:9.0f} {r.hpwl:9.0f} {r.lambda2:9.2e}"
        )

    final = result.final_routing
    print(f"\nfinal routing: wirelength={final.wirelength:.0f} "
          f"vias={final.n_vias:.0f} overflow={final.total_overflow:.0f}")
    print(f"inflation: mean rate {placer.inflation.rates.mean():.3f}, "
          f"max {placer.inflation.rates.max():.2f}")

    print(f"\nHPWL before legalization: {hpwl(netlist):.0f}")
    stats = legalize(netlist)
    print(f"legalized: mean displacement {stats.mean_displacement:.3f}")
    dstats = detailed_place(
        netlist, passes=2, grid=placer.gp.grid,
        congestion=final.congestion_map,
    )
    print(f"detailed placement: {dstats.shifts_applied} shifts, "
          f"{dstats.swaps_applied} swaps, HPWL -> {dstats.hpwl_after:.0f}")
    issues = check_legal(netlist)
    print(f"legality check: {'CLEAN' if not issues else issues[:3]}")


if __name__ == "__main__":
    main()
