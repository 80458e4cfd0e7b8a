"""Batched routing against the one-segment-at-a-time oracle.

The router's correctness argument is structural (same candidates, same
cost algebra, same stale-within-chunk cost maps as a per-segment loop),
but these tests pin it down empirically against ``tests/oracle.py``:
randomized segment sets must route to identical paths, and
whole-netlist routing must produce bit-identical demand, history and
congestion maps to :func:`tests.oracle.route_scalar`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Grid2D, Rect
from repro.route import DemandSnapshot, GlobalRouter, RouterConfig
from repro.route.grid import RoutingGrid
from repro.route.patterns import PatternRouter, RoutedPath
from repro.synth import toy_design

from tests.oracle import per_net_decomposition, route_path, route_scalar


def _random_router(rng, nx=24, ny=20, **kw):
    h = rng.uniform(0.5, 5.0, size=(nx, ny))
    v = rng.uniform(0.5, 5.0, size=(nx, ny))
    return PatternRouter(h, v, via_cost=rng.uniform(0.5, 3.0), **kw)


def _random_segments(rng, n, nx=24, ny=20):
    i1 = rng.integers(0, nx, size=n)
    j1 = rng.integers(0, ny, size=n)
    i2 = rng.integers(0, nx, size=n)
    j2 = rng.integers(0, ny, size=n)
    # mix in straight and degenerate segments so every family is hit
    i2[: n // 8] = i1[: n // 8]
    j2[n // 8 : n // 4] = j1[n // 8 : n // 4]
    i2[n // 4 : n // 4 + 3] = i1[n // 4 : n // 4 + 3]
    j2[n // 4 : n // 4 + 3] = j1[n // 4 : n // 4 + 3]
    return i1, j1, i2, j2


class TestRouteBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_route(self, seed):
        rng = np.random.default_rng(seed)
        router = _random_router(rng, z_samples=4 + 3 * seed)
        i1, j1, i2, j2 = _random_segments(rng, 200)
        batch = router.route_batch(i1, j1, i2, j2)
        assert len(batch) == 200
        for k in range(200):
            ends = (int(i1[k]), int(j1[k]), int(i2[k]), int(j2[k]))
            scalar = route_path(router, *ends)
            got = batch.path(k)
            assert got.runs == scalar.runs, f"segment {k}"
            assert got.bends == scalar.bends, f"segment {k}"
            assert got.cost == pytest.approx(scalar.cost, rel=1e-12)

    def test_candidate_matrix_matches_scalar(self):
        rng = np.random.default_rng(7)
        router = _random_router(rng, nx=64, ny=64, z_samples=9)
        a = rng.integers(0, 64, size=300)
        b = rng.integers(0, 64, size=300)
        mat = router._candidate_matrix(a, b, 64)
        for k in range(300):
            row = router._candidates(int(a[k]), int(b[k]), 64)
            assert np.array_equal(mat[k, : len(row)], row)
            # padding repeats the last candidate, never introduces new ones
            assert np.all(np.isin(mat[k], row))

    def test_wirelengths_match_paths(self):
        rng = np.random.default_rng(11)
        router = _random_router(rng)
        i1, j1, i2, j2 = _random_segments(rng, 120)
        batch = router.route_batch(i1, j1, i2, j2)
        wl = batch.wirelengths(dx=1.5, dy=0.75)
        for k in range(120):
            assert wl[k] == pytest.approx(batch.path(k).wirelength(1.5, 0.75))

    def test_runs_cover_same_cells_as_paths(self):
        rng = np.random.default_rng(13)
        router = _random_router(rng)
        i1, j1, i2, j2 = _random_segments(rng, 80)
        batch = router.route_batch(i1, j1, i2, j2)
        runs = batch.runs()
        for k in range(80):
            mine_h = [
                (int(runs.h_j[q]), int(runs.h_lo[q]), int(runs.h_hi[q]))
                for q in np.flatnonzero(runs.h_seg == k)
            ]
            mine_v = [
                (int(runs.v_i[q]), int(runs.v_lo[q]), int(runs.v_hi[q]))
                for q in np.flatnonzero(runs.v_seg == k)
            ]
            ref_h, ref_v = [], []
            for kind, fixed, a, b in batch.path(k).runs:
                (ref_h if kind == "h" else ref_v).append(
                    (fixed, min(a, b), max(a, b))
                )
            assert sorted(mine_h) == sorted(ref_h)
            assert sorted(mine_v) == sorted(ref_v)
            n_bends = int((runs.b_seg == k).sum())
            assert n_bends == batch.path(k).n_bends


class TestPathVectorization:
    """RoutedPath span arithmetic vs straightforward per-cell loops."""

    @staticmethod
    def _reference_covered(path: RoutedPath) -> list:
        cells = []
        for kind, fixed, a, b in path.runs:
            lo, hi = min(a, b), max(a, b)
            for t in range(lo, hi + 1):
                cells.append((t, fixed) if kind == "h" else (fixed, t))
        return cells

    def test_covered_and_wire_cells(self):
        rng = np.random.default_rng(17)
        router = _random_router(rng)
        i1, j1, i2, j2 = _random_segments(rng, 60)
        batch = router.route_batch(i1, j1, i2, j2)
        for k in range(60):
            path = batch.path(k)
            ref = self._reference_covered(path)
            assert path.covered_cells() == ref
            assert path.wire_cells() == len(ref)

    def test_empty_path(self):
        path = RoutedPath(runs=[], bends=[], cost=0.0)
        assert path.covered_cells() == []
        assert path.wire_cells() == 0
        assert path.wirelength(2.0, 3.0) == 0.0


class TestBatchCommit:
    def test_scatter_matches_sequential_commit(self):
        rng = np.random.default_rng(19)
        grid = RoutingGrid(Grid2D(Rect(0, 0, 8, 8), 24, 20), RouterConfig())
        seq = RoutingGrid(Grid2D(Rect(0, 0, 8, 8), 24, 20), RouterConfig())
        router = _random_router(rng)
        i1, j1, i2, j2 = _random_segments(rng, 150)
        batch = router.route_batch(i1, j1, i2, j2)

        runs = batch.runs()
        grid.add_h_runs(runs.h_j, runs.h_lo, runs.h_hi)
        grid.add_v_runs(runs.v_i, runs.v_lo, runs.v_hi)
        grid.add_vias(runs.b_i, runs.b_j)
        for k in range(150):
            GlobalRouter._commit_path(seq, batch.path(k), 1.0)

        assert np.array_equal(grid.h_demand, seq.h_demand)
        assert np.array_equal(grid.v_demand, seq.v_demand)
        assert np.array_equal(grid.via_demand, seq.via_demand)

        # and the scatter is exactly reversible
        grid.add_h_runs(runs.h_j, runs.h_lo, runs.h_hi, sign=-1.0)
        grid.add_v_runs(runs.v_i, runs.v_lo, runs.v_hi, sign=-1.0)
        grid.add_vias(runs.b_i, runs.b_j, sign=-1.0)
        assert not grid.h_demand.any()
        assert not grid.v_demand.any()
        assert not grid.via_demand.any()


def _route_both(netlist, **cfg_kw):
    """(oracle, shipped) results of one pass on a 24x24 grid."""
    grid = Grid2D(netlist.die, 24, 24)
    cfg = RouterConfig(**cfg_kw)
    return route_scalar(grid, cfg, netlist), GlobalRouter(grid, cfg).route(netlist)


def _assert_equivalent(scalar, batched):
    assert np.array_equal(scalar.grid.h_demand, batched.grid.h_demand)
    assert np.array_equal(scalar.grid.v_demand, batched.grid.v_demand)
    assert np.array_equal(scalar.grid.via_demand, batched.grid.via_demand)
    assert np.array_equal(scalar.grid.history, batched.grid.history)
    assert scalar.n_segments == batched.n_segments
    assert np.isclose(scalar.wirelength, batched.wirelength)
    assert np.isclose(scalar.n_vias, batched.n_vias)
    assert np.isclose(scalar.total_overflow, batched.total_overflow)
    assert np.array_equal(scalar.congestion_map, batched.congestion_map)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [3, 5])
    def test_toy_design_demand_maps_identical(self, seed):
        scalar, batched = _route_both(toy_design(300, seed=seed))
        _assert_equivalent(scalar, batched)

    def test_small_refresh_interval(self):
        scalar, batched = _route_both(
            toy_design(250, seed=9), cost_refresh_interval=7
        )
        _assert_equivalent(scalar, batched)

    def test_stt_topology(self):
        scalar, batched = _route_both(toy_design(250, seed=2), topology="stt")
        _assert_equivalent(scalar, batched)

    def test_maze_fallback(self):
        scalar, batched = _route_both(
            toy_design(300, seed=4), maze_fallback=True, rrr_rounds=1
        )
        _assert_equivalent(scalar, batched)

    def test_empty_netlist(self, tiny_netlist):
        bare = tiny_netlist.copy()
        scalar, batched = _route_both(bare)
        _assert_equivalent(scalar, batched)


class TestPartialPassOracle:
    """A partial pass decomposes only ``net_ids``; the oracle decomposes
    every net and filters afterwards.  Both must route the same batch."""

    @pytest.mark.parametrize("topology", ["mst", "stt"])
    def test_partial_pass_matches_filter_after_decompose(self, topology):
        netlist = toy_design(300, seed=6)
        grid = Grid2D(netlist.die, 24, 24)
        router = GlobalRouter(grid, RouterConfig(topology=topology))
        base = DemandSnapshot.from_result(router.route(netlist))
        rng = np.random.default_rng(0)
        ids = rng.permutation(netlist.n_nets)[: netlist.n_nets // 10]
        for net_ids in (ids, ids[:0]):
            partial = router.route(netlist, net_ids=net_ids, base_demand=base)
            with per_net_decomposition():
                want = router.route(netlist, net_ids=net_ids, base_demand=base)
            _assert_equivalent(want, partial)
