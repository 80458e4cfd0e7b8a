"""The stage names each flow's profile must carry.

``flowbench/run.py`` cross-checks its traced spans against these
stages of the flows' own :class:`~repro.utils.profile.StageProfiler`
(``route.total`` and ``gp.poisson`` under the RD loop and the ECO
flow, ``flow.legalize`` and ``flow.detail`` after global placement).
A renamed or dropped stage would silently zero one side of a
cross-check, so the names are pinned here on tiny designs.
"""

from __future__ import annotations

from repro.baselines.flows import GPSeed, run_ours, run_xplace
from repro.core import RDConfig
from repro.eco import EcoConfig, eco_place
from repro.io import dumps_design, loads_design
from repro.place import GPConfig, initial_placement
from repro.synth import toy_design
from repro.utils.profile import StageProfiler
from tests.test_eco import _resize_cell

RD = dict(gp=GPConfig(max_iters=30), max_rounds=1, iters_per_round=5)


def test_run_ours_profiles_rd_and_finishing_stages():
    result = run_ours(toy_design(80, seed=9), RDConfig(**RD))
    stages = result.profile["stages"]
    for stage in ("route.total", "gp.poisson", "flow.legalize", "flow.detail"):
        assert stages[stage]["calls"] >= 1, stage


def test_run_xplace_profiles_finishing_stages():
    nl = toy_design(80, seed=9)
    initial_placement(nl, 0)
    result = run_xplace(nl, seed_gp=GPSeed(netlist=nl, time=0.0))
    stages = result.profile["stages"]
    for stage in ("flow.legalize", "flow.detail"):
        assert stages[stage]["calls"] >= 1, stage


def test_eco_place_with_rounds_profiles_route_and_poisson():
    old = toy_design(80, seed=9)
    text = dumps_design(old)
    new = loads_design(_resize_cell(text, "c10", 2.0))
    profiler = StageProfiler()
    result = eco_place(new, loads_design(text), EcoConfig(rd=RDConfig(**RD)),
                       profiler=profiler)
    assert result.n_rounds >= 1
    for stage in ("route.total", "gp.poisson"):
        assert profiler.stages[stage].calls >= 1, stage
