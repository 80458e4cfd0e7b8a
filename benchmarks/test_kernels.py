"""Throughput benchmarks of the numerical kernels.

Not a paper artifact, but the quantities that determine whether the
framework scales: spectral Poisson solve, WA gradient, density
rasterization, HPWL and net decomposition on the largest design, one full
routing pass and one ECO-shaped partial pass (3% of nets over a frozen
base load), one two-pin net-moving gradient evaluation, and one placer
iteration on a whole design and on an ECO-shaped one (about 2% of
cells movable, congestion closure on).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CongestionField,
    RDConfig,
    RoutabilityDrivenPlacer,
    two_pin_net_gradients,
)
from repro.density import CellRasterizer, PoissonSolver
from repro.geometry import Grid2D
from repro.place import GlobalPlacer, GPConfig, initial_placement
from repro.route import DemandSnapshot, GlobalRouter, PatternRouter, segment_endpoints
from repro.synth import suite_design
from repro.wirelength import hpwl, wa_wirelength_and_grad


@pytest.fixture(scope="module")
def placed_design():
    netlist = suite_design("des_perf_1", scale=0.5)
    initial_placement(netlist, 0)
    placer = GlobalPlacer(netlist, GPConfig(max_iters=300))
    placer.run()
    return netlist, placer


def test_poisson_solve_128(benchmark):
    rng = np.random.default_rng(0)
    from repro.geometry import Rect

    grid = Grid2D(Rect(0, 0, 64, 64), 128, 128)
    solver = PoissonSolver(grid)
    rho = rng.random(grid.shape)
    benchmark(solver.solve, rho)


def test_wa_gradient(benchmark, placed_design):
    netlist, _ = placed_design
    benchmark(wa_wirelength_and_grad, netlist, 0.5)


def test_rasterize_density(benchmark, placed_design):
    netlist, placer = placed_design

    def raster():
        r = CellRasterizer(
            placer.grid, netlist.x, netlist.y, netlist.cell_width, netlist.cell_height
        )
        return r.charge_map()

    benchmark(raster)


def test_full_routing_pass(benchmark, placed_design):
    netlist, placer = placed_design
    router = GlobalRouter(placer.grid)
    benchmark.pedantic(router.route, args=(netlist,), iterations=1, rounds=3)


def test_routing_pass_partial(benchmark, placed_design):
    netlist, placer = placed_design
    router = GlobalRouter(placer.grid)
    dirty = np.random.default_rng(0).choice(
        netlist.n_nets, max(1, netlist.n_nets * 3 // 100), replace=False
    )
    clean = np.setdiff1d(np.arange(netlist.n_nets), dirty)
    base = DemandSnapshot.from_result(router.route(netlist, net_ids=clean))
    benchmark.pedantic(
        router.route,
        args=(netlist,),
        kwargs={"net_ids": dirty, "base_demand": base},
        iterations=1,
        rounds=5,
    )


@pytest.fixture(scope="module")
def superblue12():
    netlist = suite_design("superblue12", scale=0.85)
    initial_placement(netlist, 0)
    return netlist


def test_hpwl_superblue12(benchmark, superblue12):
    benchmark(hpwl, superblue12)


def test_segment_endpoints_superblue12(benchmark, superblue12):
    benchmark(segment_endpoints, superblue12)


@pytest.fixture(scope="module")
def pattern_segments():
    rng = np.random.default_rng(42)
    nx = ny = 128
    router = PatternRouter(
        rng.uniform(1.0, 4.0, size=(nx, ny)),
        rng.uniform(1.0, 4.0, size=(nx, ny)),
    )
    pts = rng.integers(0, nx, size=(4, 4096))
    return router, pts


def test_pattern_route_batched(benchmark, pattern_segments):
    router, (i1, j1, i2, j2) = pattern_segments
    benchmark(router.route_batch, i1, j1, i2, j2)


def test_netmove_gradient_eval(benchmark, placed_design):
    netlist, placer = placed_design
    routing = GlobalRouter(placer.grid).route(netlist)
    fld = CongestionField(placer.grid, routing.utilization_map)
    cong = routing.congestion_map

    benchmark(
        two_pin_net_gradients, netlist, placer.grid, cong, fld, 0.3
    )


def test_one_placer_iteration(benchmark, placed_design):
    netlist, placer = placed_design
    benchmark.pedantic(
        lambda: placer.run(max_iters=1, min_iters=1), iterations=1, rounds=5
    )


@pytest.fixture(scope="module")
def eco_placer(placed_design):
    """The placed design with ~2% of its cells movable, RD closure on.

    The shape of an ECO re-place: WA, Alg. 1 and Alg. 2 run over the
    nets and cells with a movable pin, against a frozen remainder.
    """
    netlist, _ = placed_design
    frozen = netlist.copy()
    movable = np.flatnonzero(netlist.movable)
    keep = np.random.default_rng(0).choice(
        movable, max(1, len(movable) // 50), replace=False
    )
    fixed = np.ones(netlist.n_cells, dtype=bool)
    fixed[keep] = False
    frozen.cell_fixed = fixed | netlist.cell_fixed
    rd = RoutabilityDrivenPlacer(frozen, RDConfig(gp=GPConfig(max_iters=1)))
    routing = rd.router.route(frozen)
    fld = CongestionField(rd.gp.grid, routing.utilization_map)
    rd.gp.extra_grad_fn = rd._make_congestion_grad(fld, routing.congestion_map)
    # the closure serves only while its RD placer lives, so keep the RD
    # placer, not just its GlobalPlacer
    return rd


def test_one_eco_placer_iteration(benchmark, eco_placer):
    benchmark.pedantic(
        lambda: eco_placer.gp.run(max_iters=1, min_iters=1),
        iterations=1,
        rounds=5,
    )
