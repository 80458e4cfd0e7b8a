"""The GP iteration's per-run caches against its per-call forms.

One :class:`GlobalPlacer` iteration keeps what does not change between
iterations: the rasterizer's size structure (rebuilt when
``size_scale`` or ``extra_static_charge`` is rebound), the all-nets WA
layout the HPWL reads, and the per-entry projection bounds; it computes
the potential only when read.  :func:`tests.oracle.per_call_iteration`
swaps in the forms that rebuild all of it every call, and a run must
follow the same trajectory under both, position for position.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.congestion_field import CongestionField
from repro.core.rd_placer import RDConfig, RoutabilityDrivenPlacer
from repro.density import rasterize
from repro.density.electrostatic import ElectrostaticSystem
from repro.geometry import Grid2D, Rect
from repro.place import GPConfig
from repro.place.initial import initial_placement
from repro.synth import toy_design
from tests import oracle
from tests.test_kernel_backends import _assert_match

ITERS = 100  # per half of the run


@pytest.fixture
def count_builds(monkeypatch):
    """Count ``CellRasterizer`` constructions (size-structure builds)."""
    calls = []
    original = rasterize.CellRasterizer.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(rasterize.CellRasterizer, "__init__", counted)
    return calls


def _closure_run(netlist, builds=()):
    """200 GP iterations: RD closure, PG-style static charge, then a rebind.

    Fillers are on.  Halfway, ``size_scale`` is rebound to an inflation
    that makes two cells wide enough for the rasterizer's per-cell path.
    Returns the placer and the rasterizer builds the runs made.
    """
    initial_placement(netlist, 0)
    rd = RoutabilityDrivenPlacer(
        netlist, RDConfig(gp=GPConfig(max_iters=ITERS), multipin_threshold=0.0)
    )
    gp = rd.gp
    assert gp.n_fill > 0
    routing = rd.router.route(netlist)
    field = CongestionField(gp.grid, routing.utilization_map)
    gp.extra_grad_fn = rd._make_congestion_grad(field, routing.congestion_map)
    gp.extra_static_charge = 0.2 * gp.grid.bin_area * routing.congestion_map
    start = len(builds)
    gp.run(max_iters=ITERS, min_iters=ITERS)

    cong = gp.grid.value_at(routing.congestion_map, netlist.x, netlist.y)
    scale = np.sqrt(1.0 + np.clip(cong, 0.0, 1.0))
    scale[gp.mv_ids[:2]] = 8.0
    gp.size_scale = scale
    gp.reset_solver()
    gp.run(max_iters=ITERS, min_iters=ITERS)
    return gp, len(builds) - start


def test_run_matches_per_call_iteration(count_builds):
    """200 iterations with the caches equal the per-call run exactly."""
    got = toy_design(300, seed=5)
    gp, builds = _closure_run(got, count_builds)
    ref = toy_design(300, seed=5)
    with oracle.per_call_iteration():
        ref_gp, _ = _closure_run(ref)

    assert len(gp.history) == len(ref_gp.history) == 2 * ITERS
    _assert_match(got.x, ref.x, "x")
    _assert_match(got.y, ref.y, "y")
    _assert_match(gp.filler_x, ref_gp.filler_x, "filler x")
    _assert_match(gp.filler_y, ref_gp.filler_y, "filler y")
    for key in ("hpwl", "overflow", "step", "density_weight"):
        assert gp.history.series(key) == ref_gp.history.series(key), key
    # one size structure per set of sizes: the first solve (with the
    # static charge, which shrinks the fillers) and the rebound size_scale
    assert builds == 2
    # the rebind made the two inflated cells large
    assert len(gp.system._raster._large_ids) == 2


def test_rasterizer_rebuilt_only_for_new_sizes(count_builds):
    """Iterations reuse the size structure; a rebound ``size_scale`` with
    new values rebuilds it, one with equal values does not."""
    netlist = toy_design(120, seed=3)
    initial_placement(netlist, 0)
    rd = RoutabilityDrivenPlacer(netlist, RDConfig(gp=GPConfig(max_iters=20)))
    gp = rd.gp
    start = len(count_builds)
    gp.run(max_iters=20, min_iters=20)
    assert len(count_builds) == start + 1
    gp.size_scale = gp.size_scale.copy()  # same values, new binding
    gp.run(max_iters=5, min_iters=5)
    # the inputs are rebuilt, but equal sizes keep the rasterizer
    assert len(count_builds) == start + 1
    gp.size_scale = np.full(netlist.n_cells, 1.2)
    gp.run(max_iters=5, min_iters=5)
    assert len(count_builds) == start + 2


@pytest.mark.parametrize("resize", [True, False], ids=["resized", "same-sizes"])
def test_solve_matches_per_call_solve(rng, resize):
    """Moved, resized and first solves equal the per-call solve, potential
    and energy included."""
    grid = Grid2D(Rect(0.0, 0.0, 12.0, 12.0), 16, 12)
    static = rng.random(grid.shape)
    system = ElectrostaticSystem(grid, 0.8, static_charge=static)
    n = 40
    w = rng.uniform(0.2, 1.5, n)
    h = rng.uniform(0.2, 1.5, n)
    w[0], h[0] = 7.0, 6.0  # one cell on the per-cell path
    for step in range(3):
        x = rng.uniform(-0.5, 12.5, n)
        y = rng.uniform(-0.5, 12.5, n)
        if resize and step:  # one axis at a time
            w, h = (w * 1.1, h) if step == 2 else (w, h * 1.1)
        sol = system.solve(x, y, w, h)
        ref = oracle.electrostatic_solve(system, x, y, w, h)
        for key in ("density", "field_x", "field_y", "grad_x", "grad_y",
                    "potential"):
            _assert_match(getattr(sol, key), getattr(ref, key), f"{key} ({step})")
        assert sol.overflow == ref.overflow
        assert sol.energy == ref.energy
