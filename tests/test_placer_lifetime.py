"""A finished placer is freed as soon as its caller drops it.

With the cyclic garbage collector disabled only reference counting
frees objects, so a placer caught in a reference cycle (with its
optimizer's callbacks, or with the congestion-gradient closure it
hands its GlobalPlacer) would stay alive, its density caches with it.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.baselines.flows import make_gp_seed
from repro.core import rd_placer
from repro.core.rd_placer import RDConfig, RoutabilityDrivenPlacer
from repro.eco import EcoConfig, eco_place
from repro.eco import flow as eco_flow
from repro.io.bookshelf import dumps_design, loads_design
from repro.place import GlobalPlacer, GPConfig, initial_placement
from repro.synth import toy_design

RD = dict(gp=GPConfig(max_iters=20), max_rounds=2, iters_per_round=5)


@pytest.fixture(autouse=True)
def _quiet_maps_do_not_stop_the_loop(monkeypatch):
    monkeypatch.setattr(rd_placer, "STOP_MEAN_CONGESTION", 0.0)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_global_placer_freed_after_run(no_cyclic_gc):
    netlist = toy_design(80, seed=1)
    initial_placement(netlist, 0)
    placer = GlobalPlacer(netlist, GPConfig(max_iters=20))
    placer.run()
    ref = weakref.ref(placer)
    del placer
    assert ref() is None


def test_rd_placer_freed_after_run(no_cyclic_gc):
    cfg = RDConfig(**RD)
    placer = RoutabilityDrivenPlacer(
        make_gp_seed(toy_design(80, seed=1), cfg.gp).netlist, cfg
    )
    result = placer.run()
    # a round ran with the congestion closure installed
    assert result.n_rounds >= 1 and placer.gp.extra_grad_fn is not None
    refs = weakref.ref(placer), weakref.ref(placer.gp)
    del placer
    assert [r() for r in refs] == [None, None]


def test_eco_place_frees_its_placer(no_cyclic_gc, monkeypatch):
    made = []

    class Recorded(RoutabilityDrivenPlacer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append((weakref.ref(self), weakref.ref(self.gp)))

    monkeypatch.setattr(eco_flow, "RoutabilityDrivenPlacer", Recorded)
    text = dumps_design(toy_design(80, seed=9))
    old, new = loads_design(text), loads_design(text)
    new.cell_width[np.flatnonzero(new.movable)[10]] *= 2.0
    result = eco_place(new, old, EcoConfig(rd=RDConfig(**RD)))
    assert result.n_rounds >= 1
    assert [(p(), gp()) for p, gp in made] == [(None, None)]
