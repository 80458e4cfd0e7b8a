"""Fig. 2 — the routability-driven flow, traced stage by stage.

Runs the integrated flow on a congested design and prints the
per-round trace (congestion penalty C(x, y), mean congestion, HPWL,
lambda_2, inflation state) — the quantities that flow around the loop
of Fig. 2.  Asserts the loop's contract: it iterates while C(x, y)
decreases and terminates by the C-based criterion or the round cap.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, run_once

from repro.baselines.flows import make_gp_seed
from repro.core import RDConfig, RoutabilityDrivenPlacer
from repro.synth import suite_design


def test_fig2_flow_trace(benchmark, bench_gp):
    netlist = suite_design("edit_dist_a", scale=BENCH_SCALE)
    cfg = RDConfig(gp=bench_gp, max_rounds=8, iters_per_round=40)

    def experiment():
        seeded = make_gp_seed(netlist, cfg.gp).netlist
        return RoutabilityDrivenPlacer(seeded, cfg).run()

    result = run_once(benchmark, experiment)

    print("\nFig2 flow trace (one line per routability round):")
    header = "round   C(x,y)    meanC   maxC   hpwl      lambda2  infl(mean/max)"
    print(header)
    for r in result.rounds:
        print(
            f"{r.round_id:5d} {r.c_value:9.3e} {r.mean_congestion:7.4f} "
            f"{r.max_congestion:6.2f} {r.hpwl:9.0f} {r.lambda2:8.2e} "
            f"{r.mean_inflation:.3f}/{r.max_inflation:.2f}"
        )

    assert 1 <= result.n_rounds <= cfg.max_rounds
    assert result.selected_rails, "PG rail selection stage must run"
    # the loop must have made progress on the congestion penalty at
    # some point (C decreases from the first round's value)
    c_series = result.series("c_value")
    if len(c_series) > 1:
        assert min(c_series[1:]) <= c_series[0] * 1.05
