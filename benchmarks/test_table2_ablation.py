"""Table II — ablation of MCI / DC / DPA.

Runs the four configurations (baseline = Xplace-Route recipe, then
+MCI, +MCI+DC, +MCI+DC+DPA) on congested designs from the suite and
prints DRWL / #DRVias / #DRVs average ratios against the full method.

Expected shape (paper): #DRVs ratio decreases monotonically
1.40 -> 1.27 -> 1.12 -> 1.00 as techniques are enabled, while DRWL and
#DRVias stay ~1.00.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, run_once

from repro.bench.harness import ABLATION_ROWS, run_design, table_rows
from repro.evalrt.report import format_table, ratio_row
from repro.synth import suite_design

ABLATION_DESIGNS = ("edit_dist_a", "matrix_mult_b")
ABLATION_LABELS = tuple(label for label, _ in ABLATION_ROWS)


def test_table2_ablation(benchmark, bench_gp, bench_eval):
    def experiment():
        rows = []
        for name in ABLATION_DESIGNS:
            netlist = suite_design(name, scale=BENCH_SCALE)
            outcome = run_design(
                netlist,
                placers=ABLATION_LABELS,
                gp_config=bench_gp,
                eval_config=bench_eval,
            )
            rows += table_rows([outcome])
        return rows

    rows = run_once(benchmark, experiment)
    print()
    print(format_table(rows, keys=("DRWL", "#DRVias", "#DRVs"),
                       reference_placer="+MCI+DC+DPA"))

    ratios = ratio_row(rows, "+MCI+DC+DPA", keys=("DRWL", "#DRVias", "#DRVs"))
    # wirelength / vias stay comparable across all rows
    for label in ("baseline", "+MCI", "+MCI+DC", "+MCI+DC+DPA"):
        assert 0.8 <= ratios[label]["DRWL"] <= 1.2
        assert 0.8 <= ratios[label]["#DRVias"] <= 1.2
    assert ratios["+MCI+DC+DPA"]["#DRVs"] == 1.0
