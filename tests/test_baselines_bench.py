"""Flow runners and benchmark harness tests."""

import json

import numpy as np
import pytest

from repro.baselines import (
    ablation_config,
    make_gp_seed,
    run_flow,
    run_ours,
    run_xplace,
    run_xplace_route,
    xplace_route_config,
)
from repro.bench.harness import ABLATION_ROWS, run_design, table_rows
from repro.core import RDConfig
from repro.evalrt import EvalConfig, format_table, ratio_row
from repro.legalize import check_legal
from repro.place import GPConfig
from repro.route import RouterConfig
from repro.synth import suite_design, toy_design
from repro.utils.metrics import MemorySink, MetricsRegistry


@pytest.fixture(scope="module")
def shared():
    """One design + GP seed reused by all flow tests (expensive)."""
    nl = toy_design(200, seed=11)
    gp = GPConfig(max_iters=150)
    seed = make_gp_seed(nl, gp)
    rd = RDConfig(gp=gp, max_rounds=2, iters_per_round=10)
    return nl, gp, rd, seed


class TestConfigs:
    def test_xplace_route_recipe(self):
        cfg = xplace_route_config()
        assert cfg.inflation_mode == "present"
        assert cfg.pg_mode == "static"
        assert not cfg.enable_dc

    def test_ablation_rows_match_table2(self):
        base = ablation_config(mci=False, dc=False, dpa=False)
        assert base.inflation_mode == "present" and base.pg_mode == "static"
        full = ablation_config(mci=True, dc=True, dpa=True)
        assert full.inflation_mode == "momentum"
        assert full.pg_mode == "dynamic"
        assert full.enable_dc

    def test_ablation_row_labels(self):
        labels = [label for label, _ in ABLATION_ROWS]
        assert labels == ["baseline", "+MCI", "+MCI+DC", "+MCI+DC+DPA"]


class TestFlows:
    def test_xplace_flow_legal(self, shared):
        nl, gp, rd, seed = shared
        flow = run_xplace(nl, gp, seed)
        assert flow.name == "Xplace"
        assert check_legal(flow.netlist) == []
        assert flow.placement_time >= seed.time

    def test_xplace_route_flow(self, shared):
        nl, gp, rd, seed = shared
        flow = run_xplace_route(nl, rd, seed)
        assert flow.name == "Xplace-Route"
        assert flow.rd_result is not None
        assert check_legal(flow.netlist) == []

    def test_ours_flow(self, shared):
        nl, gp, rd, seed = shared
        flow = run_ours(nl, rd, seed)
        assert flow.name == "Ours"
        assert flow.rd_result.n_rounds >= 1
        assert check_legal(flow.netlist) == []

    def test_flows_do_not_mutate_input(self, shared):
        nl, gp, rd, seed = shared
        x_before = nl.x.copy()
        run_xplace(nl, gp, seed)
        assert np.array_equal(nl.x, x_before)

    def test_seed_shared_start(self, shared):
        nl, gp, rd, seed = shared
        f1 = run_xplace(nl, gp, seed)
        f2 = run_xplace(nl, gp, seed)
        assert np.array_equal(f1.netlist.x, f2.netlist.x)

    def test_unseeded_flow_is_the_seeded_flow(self):
        """Without ``seed_gp``, ``run_flow`` makes ``make_gp_seed``'s seed:
        same positions, same kept round, same event stream (the seed's
        ``gp.iter`` events before ``rd.start``)."""
        rd = RDConfig(
            gp=GPConfig(max_iters=40, seed=1), max_rounds=2, iters_per_round=8
        )

        def flow(seeded):
            nl = toy_design(150, seed=5)
            metrics = MetricsRegistry(sink=MemorySink())
            metrics.start_run(command="test")
            seed = make_gp_seed(nl, rd.gp, metrics=metrics) if seeded else None
            out = run_flow("Ours", nl, rd, seed_gp=seed, metrics=metrics)
            return out, metrics.sink.lines

        (a, stream_a), (b, stream_b) = flow(False), flow(True)
        assert np.array_equal(a.netlist.x, b.netlist.x)
        assert np.array_equal(a.netlist.y, b.netlist.y)
        assert a.rd_result.best_round == b.rd_result.best_round
        assert stream_a == stream_b
        kinds = [json.loads(line)["kind"] for line in stream_a]
        assert kinds.index("gp.iter") < kinds.index("rd.start")


class TestHarness:
    def test_run_design_rows(self):
        nl = toy_design(150, seed=4)
        outcome = run_design(
            nl,
            gp_config=GPConfig(max_iters=120),
            rd_config=RDConfig(
                gp=GPConfig(max_iters=120), max_rounds=2, iters_per_round=10
            ),
            eval_config=EvalConfig(
                grid_dim_factor=1, router=RouterConfig(rrr_rounds=1)
            ),
        )
        rows = table_rows([outcome])
        assert {r.placer for r in rows} == {"Xplace", "Xplace-Route", "Ours"}
        for r in rows:
            assert r.metrics["#DRVs"] >= 0
            assert r.metrics["DRWL"] > 0
            assert r.metrics["PT"] > 0

    def test_unknown_placer_rejected(self):
        nl = toy_design(100, seed=1)
        with pytest.raises(ValueError):
            run_design(nl, placers=("Bogus",), gp_config=GPConfig(max_iters=50))

    def test_ablation_extremes_equal_table1_recipes(self, shared):
        """Row (-,-,-) is Xplace-Route and row (+,+,+) is Ours."""
        nl, gp, rd, _ = shared
        outcome = run_design(
            nl,
            placers=("Xplace-Route", "Ours", "baseline", "+MCI+DC+DPA"),
            gp_config=gp,
            rd_config=rd,
            eval_config=EvalConfig(
                grid_dim_factor=1, router=RouterConfig(rrr_rounds=1)
            ),
        )
        qor = {
            placer: [outcome.row(placer).metrics[k]
                     for k in ("DRWL", "#DRVias", "#DRVs")]
            for placer in outcome.flows
        }
        assert qor["baseline"] == qor["Xplace-Route"]
        assert qor["+MCI+DC+DPA"] == qor["Ours"]

    @pytest.mark.parametrize("names", [["fft_1", "fft_2"]])
    def test_design_loop_small(self, names):
        """End-to-end harness over a tiny suite subset, one design at a time."""
        gp = GPConfig(max_iters=150)
        outcomes = [
            run_design(
                suite_design(name, scale=0.25),
                gp_config=gp,
                rd_config=RDConfig(gp=gp, max_rounds=2, iters_per_round=10),
                eval_config=EvalConfig(
                    grid_dim_factor=1, router=RouterConfig(rrr_rounds=1)
                ),
            )
            for name in names
        ]
        assert [o.design for o in outcomes] == names
        rows = table_rows(outcomes)
        assert len(rows) == 3 * len(names)

        text = format_table(rows, reference_placer="Ours")
        assert "Avg. Ratio" in text
        ratios = ratio_row(rows, "Ours")
        for placer in ("Xplace", "Xplace-Route", "Ours"):
            for key in ("DRWL", "#DRVias", "#DRVs", "PT", "RT"):
                assert ratios[placer][key] == ratios[placer][key]  # not NaN
