"""Cached spectral workspace: exact equivalence and buffer reuse.

The workspace solve must be *bit-identical* (``atol=0``) to the
straight-line oracle (:func:`tests.oracle.solve_poisson`) — anything
weaker would silently invalidate the golden suite — and must not
allocate fresh scratch per solve.  The workspace returns the field and
the potential's cosine coefficients; :func:`_psi_field` adds the
on-demand potential for the comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.congestion_field import CongestionField
from repro.density.poisson import (
    PoissonSolver,
    SpectralWorkspace,
    clear_spectral_cache,
    spectral_cache_size,
)
from repro.geometry import Grid2D, Rect
from repro.place.initial import initial_placement
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from tests.oracle import solve_poisson

#: Every preallocated per-solve scratch buffer of the workspace.
SCRATCH = ("_bal", "_cx", "_cy", "_shift_x", "_shift_y")

SHAPES = [
    ((8, 8), (4, 3)),
    ((8, 4), (4, 3)),
    ((5, 7), (4, 3)),
    ((33, 17), (7, 2)),
    ((64, 64), (10, 10)),
    # non-power-of-two and mixed-parity shapes: pocketfft picks
    # different codepaths here, where naive transform fusions diverge
    ((24, 24), (6, 6)),
    ((96, 96), (12, 12)),
    ((20, 10), (5, 5)),
    ((7, 8), (4, 3)),
]


def _exact(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def _psi_field(ws: SpectralWorkspace, rho: np.ndarray):
    """``(psi, ex, ey)`` from one workspace solve and its potential."""
    coef, ex, ey = ws.solve(rho)
    return ws.potential(coef), ex, ey


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_spectral_cache()
    yield
    clear_spectral_cache()


@pytest.fixture(scope="module")
def golden_utilization():
    """The golden scenario's routing utilization map (16x16 grid)."""
    netlist = toy_design(150, seed=5)
    initial_placement(netlist, 0)
    grid = Grid2D(netlist.die, 16, 16)
    routing = GlobalRouter(grid, RouterConfig()).route(netlist)
    return grid, routing.utilization_map


class TestExactEquivalence:
    @pytest.mark.parametrize("shape,die", SHAPES)
    def test_workspace_matches_reference_exactly(self, shape, die, rng):
        grid = Grid2D(Rect(0, 0, *die), *shape)
        rho = rng.random(shape)
        p0, x0, y0 = solve_poisson(grid, rho)
        p1, x1, y1 = _psi_field(SpectralWorkspace.for_grid(grid), rho)
        assert _exact(p0, p1)
        assert _exact(x0, x1)
        assert _exact(y0, y1)

    def test_golden_input_equivalence(self, golden_utilization):
        """atol=0 on the golden scenario's utilization map."""
        grid, util = golden_utilization
        p0, x0, y0 = solve_poisson(grid, util)
        p1, x1, y1 = _psi_field(SpectralWorkspace.for_grid(grid), util)
        np.testing.assert_array_equal(p0, p1)
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(y0, y1)

    def test_poisson_solver_uses_cached_workspace(self, rng):
        grid = Grid2D(Rect(0, 0, 10, 10), 16, 16)
        rho = rng.random((16, 16))
        s = PoissonSolver(grid)
        assert s._ws is SpectralWorkspace.for_grid(grid)
        p0, x0, y0 = s.solve(rho)
        p1, x1, y1 = solve_poisson(grid, rho)
        assert _exact(p0, p1) and _exact(x0, x1) and _exact(y0, y1)

    @pytest.mark.parametrize("shape,die", SHAPES)
    def test_repeated_solves_stay_exact(self, shape, die, rng):
        """Scratch reuse across solves never leaks into later results."""
        grid = Grid2D(Rect(0, 0, *die), *shape)
        ws = SpectralWorkspace.for_grid(grid)
        for _ in range(4):
            rho = rng.random(shape)
            p0, x0, y0 = solve_poisson(grid, rho)
            p1, x1, y1 = _psi_field(ws, rho)
            assert _exact(p0, p1) and _exact(x0, x1) and _exact(y0, y1)

    def test_congestion_field_uses_cached_workspace(self, golden_utilization):
        grid, util = golden_utilization
        p0, x0, y0 = solve_poisson(grid, util)
        fld = CongestionField(grid, util)
        np.testing.assert_array_equal(fld.potential, p0)
        np.testing.assert_array_equal(fld.field_x, x0)
        np.testing.assert_array_equal(fld.field_y, y0)
        assert spectral_cache_size() == 1

    def test_shape_mismatch_raises(self):
        grid = Grid2D(Rect(0, 0, 1, 1), 8, 8)
        with pytest.raises(ValueError):
            SpectralWorkspace.for_grid(grid).solve(np.zeros((4, 4)))


class TestCacheReuse:
    def test_same_geometry_shares_one_workspace(self):
        g1 = Grid2D(Rect(0, 0, 8, 8), 16, 16)
        g2 = Grid2D(Rect(0, 0, 8, 8), 16, 16)  # distinct object, same key
        g3 = Grid2D(Rect(0, 0, 8, 8), 32, 32)
        ws1 = SpectralWorkspace.for_grid(g1)
        assert SpectralWorkspace.for_grid(g2) is ws1
        assert SpectralWorkspace.for_grid(g3) is not ws1
        assert spectral_cache_size() == 2
        clear_spectral_cache()
        assert spectral_cache_size() == 0
        assert SpectralWorkspace.for_grid(g1) is not ws1

    def test_no_reallocation_across_repeated_solves(self, rng):
        """Scratch buffers survive untouched across same-shape solves."""
        grid = Grid2D(Rect(0, 0, 8, 8), 24, 24)
        ws = SpectralWorkspace.for_grid(grid)
        scratch_ids = {
            name: id(getattr(ws, name))
            for name in ("_wu", "_wv", "_inv_denom") + SCRATCH
        }
        for _ in range(10):
            ws.solve(rng.random((24, 24)))
        assert ws.n_solves == 10
        for name, ident in scratch_ids.items():
            assert id(getattr(ws, name)) == ident, f"{name} was reallocated"
        assert spectral_cache_size() == 1

    def test_results_survive_later_solves(self, rng):
        """Returned arrays are caller-owned, never workspace scratch."""
        grid = Grid2D(Rect(0, 0, 8, 8), 24, 24)
        ws = SpectralWorkspace.for_grid(grid)
        rho = rng.random((24, 24))
        coef, ex, ey = ws.solve(rho)
        kept = (coef.copy(), ex.copy(), ey.copy())
        scratch = tuple(getattr(ws, name) for name in SCRATCH)
        for arr in (coef, ex, ey):
            assert not any(np.shares_memory(arr, s) for s in scratch)
        for _ in range(3):
            ws.solve(rng.random((24, 24)))
        np.testing.assert_array_equal(coef, kept[0])
        np.testing.assert_array_equal(ex, kept[1])
        np.testing.assert_array_equal(ey, kept[2])

    def test_consecutive_congestion_fields_share_workspace(self, rng):
        """Round-over-round CongestionField reuse: one workspace total."""
        grid = Grid2D(Rect(0, 0, 8, 8), 16, 16)
        for _ in range(4):
            CongestionField(grid, rng.random((16, 16)))
        ws = SpectralWorkspace.for_grid(grid)
        assert ws.n_solves == 4
        assert spectral_cache_size() == 1
