"""Each hot kernel's call site against its test oracle, bit for bit.

Every hot kernel (WA wirelength, density rasterization, the Alg. 1/2
net-moving gradients, the batched router's bend evaluation) has one
fixed layout in its product module.  These tests drive the *public*
call sites (``wa_wirelength_and_grad``, ``CellRasterizer``, Alg. 1/2
gradients, the batched router) once as shipped and once with the
straight-line forms of :mod:`tests.oracle` swapped in, and require
``atol=0`` agreement.  WA calls are repeated so the cached per-netlist
layout and its scratch reuse are covered too.

:class:`TestNoKernelSelection` pins the other half of that design:
nothing selects among layouts any more, so the former selection
options (CLI flag, environment variable, solver keywords, telemetry
event) are rejected or inert.  The keyword options of the retired
placement daemon, supervised job runtime, Adam solver and flow resume
ride along in ``test_removed_keywords_rejected``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.flows import run_ours
from repro.bench.harness import kernel_info, run_design
from repro.cli import build_parser
from repro.core import RoutabilityDrivenPlacer
from repro.core.congestion_field import CongestionField
from repro.core.multipin import multi_pin_cell_gradients
from repro.core.netmove import (
    NetMoveConfig,
    two_pin_net_gradients,
    virtual_cell_positions,
)
from repro.density.electrostatic import ElectrostaticSystem
from repro.density.poisson import PoissonSolver, SpectralWorkspace
from repro.density.rasterize import CellRasterizer
from repro.dse.grid import apply_knobs
from repro.dse.runner import run_grid, run_unit
from repro.eco import EcoConfig, eco_place
from repro.geometry import Grid2D, Rect
from repro.place.config import GPConfig
from repro.place.initial import initial_placement
from repro.route import GlobalRouter, RouterConfig
from repro.run import EcoRequest, PlaceRequest, RouteRequest, open_metrics
from repro.synth import toy_design
from repro.utils.faults import FaultPlan
from repro.utils.metrics import EVENT_FIELDS, JsonlSink, validate_event
from repro.wirelength.wa import wa_wirelength_and_grad
from tests.oracle import oracle_kernels

#: Repeated calls on one netlist, exercising the cached WA layout.
N_REPEAT_CALLS = 4


def _assert_match(got, want, label):
    """Bit-identity with the oracle (NaN payloads and signed zeros too)."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), (
        f"{label}: output is not bit-identical to the oracle"
    )


#: (cells, design seed, grid nx, grid ny) of each equivalence scene: the
#: golden 16x16 scenario, a larger non-square grid and an odd-sized one
#: whose bins do not divide the die evenly.
SCENES = [
    pytest.param((150, 5, 16, 16), id="toy150-16x16"),
    pytest.param((300, 11, 24, 20), id="toy300-24x20"),
    pytest.param((120, 3, 9, 13), id="toy120-9x13"),
]


@pytest.fixture(scope="module", params=SCENES)
def scene(request):
    """Placed toy design with one real routing pass (oracle kernels)."""
    n_cells, seed, nx, ny = request.param
    with oracle_kernels():
        netlist = toy_design(n_cells, seed=seed)
        initial_placement(netlist, 0)
        grid = Grid2D(netlist.die, nx, ny)
        routing = GlobalRouter(grid, RouterConfig()).route(netlist)
        field = CongestionField(grid, routing.utilization_map)
        std = netlist.movable & ~netlist.cell_macro
        virtual_area = float(netlist.cell_area[std].mean())
    return {
        "netlist": netlist,
        "grid": grid,
        "congestion": routing.congestion_map,
        "field": field,
        "virtual_area": virtual_area,
    }


class TestEquivalence:
    def test_wa_wirelength(self, scene):
        nl = scene["netlist"]
        gamma = 0.5 * scene["grid"].dx
        with oracle_kernels():
            ref = wa_wirelength_and_grad(nl, gamma)
        for call in range(N_REPEAT_CALLS):
            wl, gx, gy = wa_wirelength_and_grad(nl, gamma)
            _assert_match(wl, ref[0], f"wa wl (call {call})")
            _assert_match(gx, ref[1], f"wa grad_x (call {call})")
            _assert_match(gy, ref[2], f"wa grad_y (call {call})")

    def test_wa_weighted_after_move(self, scene):
        """Net weights and moved cells reuse the cached layout exactly."""
        nl = scene["netlist"].copy()
        gamma = 0.5 * scene["grid"].dx
        weights = 1.0 + np.arange(nl.n_nets) % 3
        wa_wirelength_and_grad(nl, gamma)  # builds the cached layout
        nl.x = nl.x + 0.37 * scene["grid"].dx
        with oracle_kernels():
            ref = wa_wirelength_and_grad(nl, gamma, weights)
        got = wa_wirelength_and_grad(nl, gamma, weights)
        for g, r, label in zip(got, ref, ("wl", "grad_x", "grad_y")):
            _assert_match(g, r, f"weighted wa {label}")

    def test_raster_density(self, scene):
        nl = scene["netlist"]
        grid = scene["grid"]
        with oracle_kernels():
            ref_raster = CellRasterizer(
                grid, nl.x, nl.y, nl.cell_width, nl.cell_height
            )
            ref_charge = ref_raster.charge_map()
            field = np.cos(ref_charge)  # any dense per-bin field
            ref_gather = ref_raster.gather(field)
        raster = CellRasterizer(grid, nl.x, nl.y, nl.cell_width, nl.cell_height)
        _assert_match(raster.charge_map(), ref_charge, "raster charge")
        _assert_match(raster.gather(field), ref_gather, "raster gather")

    def test_netmove_gradients(self, scene):
        nl = scene["netlist"]
        cfg = NetMoveConfig()
        args = (nl, scene["grid"], scene["congestion"])
        with oracle_kernels():
            ref_info = virtual_cell_positions(*args, cfg)
            ref_grads = two_pin_net_gradients(
                *args, scene["field"], scene["virtual_area"], cfg
            )
        info = virtual_cell_positions(*args, cfg)
        for key in ("xv", "yv", "congestion"):
            _assert_match(info[key], ref_info[key], f"netmove {key}")
        assert np.array_equal(info["active"], ref_info["active"])
        gx, gy, _ = two_pin_net_gradients(
            *args, scene["field"], scene["virtual_area"], cfg
        )
        _assert_match(gx, ref_grads[0], "netmove grad_x")
        _assert_match(gy, ref_grads[1], "netmove grad_y")

    def test_netmove_non_finite_samples(self, scene):
        """A NaN pin takes the ``index_of`` fallback, still exact."""
        nl = scene["netlist"].copy()
        two_pin = np.flatnonzero(nl.net_degrees() == 2)
        pin = nl.net_pin_order[nl.net_pin_starts[two_pin[0]]]
        nl.x[nl.pin_cell[pin]] = np.nan
        args = (nl, scene["grid"], scene["congestion"], NetMoveConfig())
        with np.errstate(invalid="ignore"):  # NaN -> int in Eq. (6)
            with oracle_kernels():
                ref = virtual_cell_positions(*args)
            got = virtual_cell_positions(*args)
        for key in ("xv", "yv", "congestion"):
            _assert_match(got[key], ref[key], f"netmove {key}")

    def test_multipin_gradients(self, scene):
        nl = scene["netlist"]
        args = (nl, scene["grid"], scene["congestion"], scene["field"])
        with oracle_kernels():
            ref_gx, ref_gy, ref_sel = multi_pin_cell_gradients(
                *args, threshold=0.7
            )
        gx, gy, sel = multi_pin_cell_gradients(*args, threshold=0.7)
        _assert_match(gx, ref_gx, "multipin grad_x")
        _assert_match(gy, ref_gy, "multipin grad_y")
        assert np.array_equal(sel, ref_sel)

    def test_batched_routing(self, scene):
        nl = scene["netlist"]
        grid = scene["grid"]
        with oracle_kernels():
            ref = GlobalRouter(grid, RouterConfig()).route(nl)
        out = GlobalRouter(grid, RouterConfig()).route(nl)
        _assert_match(out.congestion_map, ref.congestion_map, "route congestion")
        _assert_match(out.utilization_map, ref.utilization_map, "route utilization")
        assert out.wirelength == ref.wirelength
        assert out.n_vias == ref.n_vias


class TestNoKernelSelection:
    @pytest.mark.parametrize(
        "argv,removed",
        [
            pytest.param(["place", "d.bl"], None, id="place"),
            pytest.param(["route", "d.bl"], None, id="route"),
            pytest.param(["eco", "base.bl", "d.bl"], None, id="eco"),
            pytest.param(["bench"], None, id="bench"),
            # the routing-engine selector went the same way
            pytest.param(["route", "d.bl"], ["--engine", "scalar"], id="route-engine"),
            # and eco's own resume point with the flow resume
            pytest.param(["eco", "base.bl", "d.bl"], ["--checkpoint", "e.npz"],
                         id="eco-checkpoint"),
        ],
    )
    def test_cli_rejects_kernel_backend_flag(self, argv, removed, capsys):
        removed = removed or ["--kernel-backend", "fastnp"]
        parser = build_parser()
        parser.parse_args(argv)  # the command itself still parses
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + removed)
        assert exc.value.code == 2
        assert removed[0] in capsys.readouterr().err

    def test_env_var_has_no_effect(self, monkeypatch):
        nl = toy_design(80, seed=2)
        initial_placement(nl, 0)
        want = wa_wirelength_and_grad(nl, 0.7)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        assert kernel_info() == {"backend": "numpy", "autotune": False}
        got = wa_wirelength_and_grad(nl.copy(), 0.7)
        for g, w, label in zip(got, want, ("wl", "grad_x", "grad_y")):
            _assert_match(g, w, f"wa {label} under a stale env var")

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda g: PoissonSolver(g, use_workspace=False),
                id="PoissonSolver-use_workspace",
            ),
            pytest.param(
                lambda g: PoissonSolver(g, workers=2), id="PoissonSolver-workers"
            ),
            pytest.param(
                lambda g: ElectrostaticSystem(g, fft_workers=2),
                id="ElectrostaticSystem-fft_workers",
            ),
            pytest.param(
                lambda g: CongestionField(g, np.zeros(g.shape), fft_workers=2),
                id="CongestionField-fft_workers",
            ),
            pytest.param(
                lambda g: SpectralWorkspace.for_grid(g).solve(
                    np.zeros(g.shape), workers=2
                ),
                id="SpectralWorkspace.solve-workers",
            ),
            # the flow requests never grew a kernel or engine selector back
            pytest.param(
                lambda g: PlaceRequest(input="d.bl", kernel_backend="fastnp"),
                id="PlaceRequest-kernel_backend",
            ),
            pytest.param(
                lambda g: EcoRequest(input="d.bl", kernel_backend="fastnp"),
                id="EcoRequest-kernel_backend",
            ),
            pytest.param(
                lambda g: RouteRequest(input="d.bl", kernel_backend="fastnp"),
                id="RouteRequest-kernel_backend",
            ),
            pytest.param(
                lambda g: RouteRequest(input="d.bl", engine="scalar"),
                id="RouteRequest-engine",
            ),
            # nor the options only the retired placement daemon used
            pytest.param(
                lambda g: PlaceRequest(input="d.bl", overrides={}),
                id="PlaceRequest-overrides",
            ),
            pytest.param(
                lambda g: PlaceRequest(input="d.bl", metrics_buffer_lines=1),
                id="PlaceRequest-metrics_buffer_lines",
            ),
            pytest.param(
                lambda g: EcoRequest(input="d.bl", metrics_buffer_lines=1),
                id="EcoRequest-metrics_buffer_lines",
            ),
            pytest.param(
                lambda g: RouteRequest(input="d.bl", metrics_buffer_lines=1),
                id="RouteRequest-metrics_buffer_lines",
            ),
            pytest.param(
                lambda g: open_metrics(None, "place", "d.bl", buffer_lines=1),
                id="open_metrics-buffer_lines",
            ),
            # nor the supervised job runtime's retry/resume options
            pytest.param(
                lambda g: run_grid(None, job_timeout=1), id="run_grid-job_timeout"
            ),
            pytest.param(
                lambda g: run_grid(None, checkpoint_dir="ck"),
                id="run_grid-checkpoint_dir",
            ),
            pytest.param(
                lambda g: run_unit(None, fault_plans=()), id="run_unit-fault_plans"
            ),
            pytest.param(
                lambda g: run_design(None, resume=True), id="run_design-resume"
            ),
            pytest.param(
                lambda g: run_ours(None, resume=True), id="run_ours-resume"
            ),
            pytest.param(
                lambda g: FaultPlan("s", attempts=1), id="FaultPlan-attempts"
            ),
            # nor the flow resume: the snapshot is write-only
            pytest.param(
                lambda g: RoutabilityDrivenPlacer.run(None, resume=True),
                id="RoutabilityDrivenPlacer.run-resume",
            ),
            pytest.param(
                lambda g: eco_place(None, None, checkpoint_path="e.npz"),
                id="eco_place-checkpoint_path",
            ),
            pytest.param(
                lambda g: JsonlSink("m.jsonl", append=True),
                id="JsonlSink-append",
            ),
            pytest.param(
                lambda g: EcoRequest(input="d.bl", checkpoint="e.npz"),
                id="EcoRequest-checkpoint",
            ),
            pytest.param(
                lambda g: EcoConfig(partial_route=False),
                id="EcoConfig-partial_route",
            ),
            pytest.param(
                lambda g: EcoConfig(legalize=False), id="EcoConfig-legalize"
            ),
            pytest.param(
                lambda g: RouterConfig(topology="stt"), id="RouterConfig-topology"
            ),
            pytest.param(lambda g: GPConfig(verbose=True), id="GPConfig-verbose"),
            # nor the Adam solver
            pytest.param(
                lambda g: GPConfig(optimizer="adam"), id="GPConfig-optimizer"
            ),
            pytest.param(
                lambda g: apply_knobs({}, gp_base=None), id="apply_knobs-gp_base"
            ),
            pytest.param(
                lambda g: apply_knobs({}, rd_base=None), id="apply_knobs-rd_base"
            ),
        ],
    )
    def test_removed_keywords_rejected(self, make):
        grid = Grid2D(Rect(0.0, 0.0, 8.0, 8.0), 8, 8)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            make(grid)

    def test_kernel_backend_event_is_an_unknown_kind(self):
        """Old streams carrying the event still validate."""
        assert "kernel.backend" not in EVENT_FIELDS
        validate_event({"v": 2, "seq": 1, "kind": "kernel.backend"})

    def test_resume_event_is_an_unknown_kind(self):
        """Streams of a resumed flow still validate."""
        assert "rd.resume" not in EVENT_FIELDS
        validate_event({"v": 2, "seq": 1, "kind": "rd.resume", "round": 1})
