"""Legalization tests: rows, Tetris, Abacus, legality checking."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.legalize import build_row_map, check_legal, legalize
from repro.legalize.abacus import _place_segment
from repro.legalize.tetris import tetris_legalize
from repro.netlist import CellSpec, Netlist
from repro.place import GlobalPlacer, GPConfig, initial_placement
from repro.synth import suite_design
from tests.oracle import band_overlaps


class TestRowMap:
    def test_row_count_and_geometry(self, tiny_netlist):
        rm = build_row_map(tiny_netlist)
        assert rm.n_rows == 10
        assert rm.row_center_y(0) == pytest.approx(0.5)

    def test_blockage_splits_row(self, tiny_netlist):
        rm = build_row_map(tiny_netlist)
        # fixed 2x2 macro at (5,5) blocks rows 4-5 into two segments
        for r in (4, 5):
            segs = rm.segments[r]
            assert len(segs) == 2
            assert segs[0].xhi == pytest.approx(4.0)
            assert segs[1].xlo == pytest.approx(6.0)

    def test_unblocked_row_single_segment(self, tiny_netlist):
        rm = build_row_map(tiny_netlist)
        assert len(rm.segments[0]) == 1

    def test_row_of_clamps(self, tiny_netlist):
        rm = build_row_map(tiny_netlist)
        assert rm.row_of(-100.0) == 0
        assert rm.row_of(100.0) == rm.n_rows - 1

    def test_site_snapping(self, tiny_netlist):
        rm = build_row_map(tiny_netlist)
        assert rm.site_ceil(1.01) == pytest.approx(1.25)
        assert rm.site_floor(1.24) == pytest.approx(1.0)


class TestAbacusPlaceSegment:
    def test_non_overlapping_targets_untouched(self):
        lefts = _place_segment(
            np.array([1.0, 5.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.0, 10.0
        )
        assert lefts == pytest.approx([1.0, 5.0])

    def test_overlapping_cells_split_around_mean(self):
        lefts = _place_segment(
            np.array([4.0, 4.0]), np.array([2.0, 2.0]), np.array([1.0, 1.0]), 0.0, 10.0
        )
        # cluster of width 4 centered at weighted target 4-1=3
        assert lefts[1] - lefts[0] == pytest.approx(2.0)
        assert lefts[0] == pytest.approx(3.0)

    def test_boundary_clamping(self):
        lefts = _place_segment(
            np.array([-5.0]), np.array([2.0]), np.array([1.0]), 0.0, 10.0
        )
        assert lefts[0] == 0.0

    def test_right_boundary(self):
        lefts = _place_segment(
            np.array([9.5]), np.array([2.0]), np.array([1.0]), 0.0, 10.0
        )
        assert lefts[0] == pytest.approx(8.0)

    def test_weights_bias_cluster_position(self):
        heavy_first = _place_segment(
            np.array([2.0, 2.0]), np.array([1.0, 1.0]), np.array([10.0, 1.0]), 0.0, 10.0
        )
        heavy_second = _place_segment(
            np.array([2.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, 10.0]), 0.0, 10.0
        )
        # heavier first cell keeps the cluster closer to its own target
        assert heavy_first[0] > heavy_second[0] - 1.0
        assert heavy_first[0] == pytest.approx(2.0, abs=0.2)


class TestLegalizeEndToEnd:
    def _place_and_legalize(self, nl):
        initial_placement(nl, 0)
        GlobalPlacer(nl, GPConfig(max_iters=150)).run()
        return legalize(nl)

    def test_toy_legal_after(self, toy120):
        self._place_and_legalize(toy120)
        assert check_legal(toy120) == []

    def test_abacus_not_worse_than_tetris(self, toy300):
        nl1 = toy300.copy()
        nl2 = toy300.copy()
        initial_placement(nl1, 0)
        GlobalPlacer(nl1, GPConfig(max_iters=150)).run()
        nl2.x[:] = nl1.x
        nl2.y[:] = nl1.y
        ids = tetris_legalize(nl1, build_row_map(nl1)).cell_ids
        tetris_displacement = float(
            (np.abs(nl1.x[ids] - nl2.x[ids]) + np.abs(nl1.y[ids] - nl2.y[ids])).sum()
        )
        s_abacus = legalize(nl2)
        assert check_legal(nl1) == []
        assert check_legal(nl2) == []
        assert s_abacus.total_displacement <= tetris_displacement * 1.05

    def test_high_utilization_compact_fallback(self):
        from repro.synth import toy_design

        nl = toy_design(500, seed=9, utilization=0.92, n_macros=2)
        initial_placement(nl, 0)
        GlobalPlacer(nl, GPConfig(max_iters=100)).run()
        legalize(nl)
        assert check_legal(nl) == []

    def test_half_site_width_cell_packs_legally(self):
        """A 10.5-site cell (an ECO x1.5 resize of 7 sites) next to a
        neighbour it abuts must not be packed as 10 sites wide."""
        from repro.geometry import Rect
        from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec

        sw = 0.25
        wide = 10.5 * sw
        cells = [
            CellSpec("wide", wide, 1.0, x=0.5 * wide, y=0.5),
            CellSpec("next", 1.0, 1.0, x=wide + 0.5, y=0.5),
        ]
        nets = [NetSpec("n", [PinSpec("wide"), PinSpec("next")])]
        nl = Netlist.from_specs(
            "half_site", Rect(0, 0, 10, 4), cells, nets, site_width=sw
        )
        legalize(nl)
        assert check_legal(nl) == []

    def test_stats_fields(self, toy120):
        stats = self._place_and_legalize(toy120)
        assert stats.n_cells > 0
        assert stats.max_displacement >= stats.mean_displacement >= 0


class TestCheckLegal:
    def test_detects_overlap(self, toy120):
        initial_placement(toy120, 0)
        GlobalPlacer(toy120, GPConfig(max_iters=100)).run()
        legalize(toy120)
        mv = np.flatnonzero(toy120.movable)
        a, b = mv[0], mv[1]
        toy120.x[b] = toy120.x[a]
        toy120.y[b] = toy120.y[a]
        issues = check_legal(toy120)
        assert any("overlap" in v for v in issues)

    def test_detects_outside_die(self, tiny_netlist):
        tiny_netlist.x[0] = -5.0
        assert any("outside" in v for v in check_legal(tiny_netlist))

    def test_detects_row_misalignment(self, toy120):
        initial_placement(toy120, 0)
        GlobalPlacer(toy120, GPConfig(max_iters=100)).run()
        legalize(toy120)
        mv = np.flatnonzero(toy120.movable)
        toy120.y[mv[0]] += 0.33
        assert any("row-aligned" in v for v in check_legal(toy120))

    def test_macros_sharing_a_band_but_not_a_y_range_are_legal(self):
        # edit_dist_a@0.5, generator seed 5: m5 spans y 27.41-34.41 and
        # m1 y 34.99-42.99, so both touch row 34 and overlap in x only
        nl = suite_design("edit_dist_a", 0.5, 5)
        issues = check_legal(nl)
        assert "overlap in row 34: m5 / m1" not in issues
        m1 = nl.cell_names.index("m1")
        nl.y[m1] -= 1.0  # now the rectangles do overlap
        assert "overlap in row 34: m5 / m1" in check_legal(nl)

    def test_non_finite_position_is_outside_die(self, tiny_netlist):
        tiny_netlist.y[1] = np.nan
        issues = check_legal(tiny_netlist)
        assert "cell b outside die" in issues
        assert not any(": b /" in v or "/ b" in v for v in issues)


_OVERLAP = re.compile(r"overlap in row (\d+): (\S+) / (\S+)")


def _random_blocks(seed, n):
    """Cells of mixed heights on a quarter-unit lattice.

    Lattice coordinates make abutting edges (legal) and exact overlaps
    common; heights up to 3.5 rows leave macros off the row grid.
    """
    rng = np.random.default_rng(seed)
    cells = []
    for i in range(n):
        w = 0.25 * rng.integers(1, 12)
        h = 0.25 * rng.integers(1, 15)
        cells.append(
            CellSpec(
                f"c{i}", w, h,
                x=0.25 * rng.integers(0, 48), y=0.25 * rng.integers(0, 40),
                fixed=bool(rng.integers(0, 2)),
            )
        )
    return Netlist.from_specs("blocks", Rect(0, 0, 12, 10), cells, [])


class TestCheckLegalOracle:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_overlaps_match_pairwise_oracle(self, seed, n):
        nl = _random_blocks(seed, n)
        index = {name: i for i, name in enumerate(nl.cell_names)}
        got = [
            (int(m[1]), index[m[2]], index[m[3]])
            for m in map(_OVERLAP.fullmatch, check_legal(nl))
            if m
        ]
        left = nl.x - nl.cell_width / 2
        # a pair is named once per band, the cell starting further left first
        assert len(got) == len(set(got))
        assert all(
            (left[a], a) < (left[b], b) for _, a, b in got
        )
        assert {(r, min(a, b), max(a, b)) for r, a, b in got} == band_overlaps(nl)
