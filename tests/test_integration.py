"""End-to-end integration tests over the full pipeline."""

import numpy as np
import pytest

from repro.baselines.flows import make_gp_seed
from repro.core import RDConfig, RoutabilityDrivenPlacer
from repro.detail import detailed_place
from repro.evalrt import evaluate_routing
from repro.geometry import Grid2D
from repro.io import dumps_design, loads_design
from repro.legalize import check_legal, legalize
from repro.netlist import validate_netlist
from repro.place import GPConfig
from repro.route import GlobalRouter
from repro.synth import toy_design
from repro.wirelength import hpwl


class TestFullPipeline:
    def test_place_route_legalize_refine_evaluate(self):
        cfg = RDConfig(
            gp=GPConfig(max_iters=200),
            max_rounds=2,
            iters_per_round=15,
        )
        nl = make_gp_seed(toy_design(250, seed=21), cfg.gp).netlist
        placer = RoutabilityDrivenPlacer(nl, cfg)
        result = placer.run()
        validate_netlist(nl)

        legalize(nl)
        assert check_legal(nl) == []
        stats = detailed_place(
            nl,
            passes=1,
            grid=placer.gp.grid,
            congestion=result.final_routing.congestion_map,
        )
        assert check_legal(nl) == []
        assert stats.hpwl_after <= stats.hpwl_before + 1e-9

        ev = evaluate_routing(nl)
        assert ev.n_drvs >= 0
        assert ev.drwl > 0

    def test_save_place_load_consistency(self):
        cfg = RDConfig(gp=GPConfig(max_iters=100), max_rounds=1, iters_per_round=10)
        nl = make_gp_seed(toy_design(150, seed=5), cfg.gp).netlist
        RoutabilityDrivenPlacer(nl, cfg).run()
        legalize(nl)
        back = loads_design(dumps_design(nl))
        assert hpwl(back) == pytest.approx(hpwl(nl), rel=1e-12)
        assert check_legal(back) == []

    def test_routing_reflects_placement_quality(self):
        """A clumped placement must route worse than a spread one."""
        cfg = RDConfig(gp=GPConfig(max_iters=250), max_rounds=1, iters_per_round=5)
        nl_clump = toy_design(250, seed=8)
        nl_spread = make_gp_seed(nl_clump, cfg.gp).netlist
        RoutabilityDrivenPlacer(nl_spread, cfg).run()

        # clump: everything at die center
        mv = nl_clump.movable
        cx, cy = nl_clump.die.center
        nl_clump.x[mv] = cx
        nl_clump.y[mv] = cy
        nl_clump.clamp_to_die()

        grid = Grid2D(nl_spread.die, 32, 32)
        r_spread = GlobalRouter(grid).route(nl_spread)
        r_clump = GlobalRouter(grid).route(nl_clump)
        assert r_clump.total_overflow > r_spread.total_overflow

    def test_determinism_of_whole_flow(self):
        results = []
        for _ in range(2):
            cfg = RDConfig(gp=GPConfig(max_iters=80), max_rounds=1, iters_per_round=5)
            nl = make_gp_seed(toy_design(150, seed=13), cfg.gp).netlist
            RoutabilityDrivenPlacer(nl, cfg).run()
            results.append(nl.x.copy())
        assert np.array_equal(results[0], results[1])
