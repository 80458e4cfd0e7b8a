"""Table I — routability comparison on the ISPD'15-like suite.

Runs Xplace / Xplace-Route / Ours on a representative subset of the
suite (scaled down for benchmark runtime) and prints the per-design
rows plus the Avg. Ratio footer, exactly the shape of Table I.

Expected shape (paper): #DRVs avg ratio Xplace >> Xplace-Route > Ours,
DRWL and #DRVias ratios ~1.0, placement time Ours largest.

Full-scale regeneration:
``python -m repro bench --table 1 --out results/table1.json``.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, run_once

from repro.bench.harness import run_design, table_rows
from repro.evalrt.report import format_table, ratio_row
from repro.synth import suite_design

# a spread of easy / medium / hard designs from the 20-design suite
TABLE1_BENCH_DESIGNS = ("fft_b", "des_perf_1", "edit_dist_a", "matrix_mult_b")


def test_table1_subset(benchmark, bench_gp, bench_rd, bench_eval):
    def experiment():
        rows = []
        for name in TABLE1_BENCH_DESIGNS:
            netlist = suite_design(name, scale=BENCH_SCALE)
            outcome = run_design(
                netlist,
                gp_config=bench_gp,
                rd_config=bench_rd,
                eval_config=bench_eval,
            )
            rows += table_rows([outcome])
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, reference_placer="Ours"))

    ratios = ratio_row(rows, "Ours")
    assert ratios["Ours"]["#DRVs"] == 1.0
    # shape assertions: the wirelength-only placer must not meaningfully
    # beat the routability-driven ones on violations (at benchmark scale
    # the routing noise is a sizable fraction of the deltas), and
    # wirelength must stay close
    assert ratios["Xplace"]["#DRVs"] >= ratios["Ours"]["#DRVs"] * 0.9
    assert 0.85 <= ratios["Xplace"]["DRWL"] <= 1.15
    assert 0.85 <= ratios["Xplace-Route"]["DRWL"] <= 1.15
