"""Tests for visualization, Steiner trees, PinRUDY and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.geometry import Grid2D, Rect
from repro.route import pin_rudy_map, segment_endpoints, single_trunk_segments, stt_length
from tests.oracle import mst_edges
from repro.viz import ascii_heatmap, placement_svg, save_heatmap_ppm, save_placement_svg


class TestSteinerTree:
    def test_two_pins(self):
        segs = single_trunk_segments(np.array([0.0, 4.0]), np.array([0.0, 2.0]))
        assert len(segs) == 1

    def test_collinear_pins(self):
        segs = single_trunk_segments(np.array([0.0, 2.0, 5.0]), np.zeros(3))
        total = sum(abs(x2 - x1) + abs(y2 - y1) for x1, y1, x2, y2 in segs)
        assert total == pytest.approx(5.0)

    def test_star_topology_beats_mst(self):
        # classic case: pins on a cross; trunk+branches < MST
        px = np.array([0.0, 10.0, 5.0, 5.0, 5.0])
        py = np.array([5.0, 5.0, 0.0, 10.0, 5.0])
        stt = stt_length(px, py)
        mst = sum(
            abs(px[a] - px[b]) + abs(py[a] - py[b])
            for a, b in mst_edges(px, py)
        )
        assert stt <= mst + 1e-9

    def test_connectivity_of_segments(self):
        rng = np.random.default_rng(3)
        px = rng.uniform(0, 10, 7)
        py = rng.uniform(0, 10, 7)
        segs = single_trunk_segments(px, py)
        # every pin must appear as an endpoint of some segment (or lie
        # exactly on the trunk)
        endpoints = set()
        for x1, y1, x2, y2 in segs:
            endpoints.add((round(x1, 9), round(y1, 9)))
            endpoints.add((round(x2, 9), round(y2, 9)))
        med_y = round(float(np.median(py)), 9)
        med_x = round(float(np.median(px)), 9)
        for x, y in zip(px, py):
            on_trunk = round(float(y), 9) == med_y or round(float(x), 9) == med_x
            assert (round(float(x), 9), round(float(y), 9)) in endpoints or on_trunk

    def test_stt_never_shorter_than_bbox_half_perimeter(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            px = rng.uniform(0, 10, 6)
            py = rng.uniform(0, 10, 6)
            lower = (px.max() - px.min()) + (py.max() - py.min())
            assert stt_length(px, py) >= lower - 1e-9

    def test_decompose_with_stt_topology(self, tiny_netlist):
        nets, *_ = segment_endpoints(tiny_netlist, "stt", net_ids=[1])
        assert len(nets) >= 2

    def test_unknown_topology(self, tiny_netlist):
        with pytest.raises(ValueError):
            segment_endpoints(tiny_netlist, "bogus", net_ids=[1])


class TestPinRudy:
    def test_mass_at_pin_bins_only(self, tiny_netlist):
        grid = Grid2D(tiny_netlist.die, 10, 10)
        m = pin_rudy_map(tiny_netlist, grid)
        px, py = tiny_netlist.pin_positions()
        i, j = grid.index_of(px, py)
        pin_bins = set(zip(i.tolist(), j.tolist()))
        nz = set(zip(*np.nonzero(m)))
        assert nz <= pin_bins

    def test_empty(self):
        from repro.netlist import Netlist

        nl = Netlist.from_specs("e", Rect(0, 0, 4, 4), [], [])
        grid = Grid2D(nl.die, 8, 8)
        assert pin_rudy_map(nl, grid).sum() == 0.0


class TestViz:
    def test_ascii_heatmap_shape(self):
        m = np.random.default_rng(0).random((32, 16))
        art = ascii_heatmap(m, width=16, title="test")
        lines = art.splitlines()
        assert lines[0] == "test"
        assert all(len(line) == 16 for line in lines[1:])

    def test_ascii_rejects_3d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros((2, 2, 2)))

    def test_ppm_output(self, tmp_path):
        m = np.random.default_rng(0).random((8, 8))
        path = tmp_path / "map.ppm"
        save_heatmap_ppm(m, str(path), pixel_scale=2)
        data = path.read_bytes()
        assert data.startswith(b"P6 16 16 255\n")
        assert len(data) == len(b"P6 16 16 255\n") + 16 * 16 * 3

    def test_placement_svg(self, toy120, tmp_path):
        svg = placement_svg(toy120, width_px=400)
        assert svg.startswith("<svg")
        assert svg.count("<rect") > toy120.n_cells  # cells + background
        path = tmp_path / "p.svg"
        save_placement_svg(toy120, str(path))
        assert path.read_text().endswith("</svg>\n")

    def test_svg_with_congestion_overlay(self, toy120):
        grid = Grid2D(toy120.die, 8, 8)
        cong = np.zeros(grid.shape)
        cong[4, 4] = 1.0
        svg = placement_svg(toy120, congestion=cong, grid=grid)
        assert "fill-opacity" in svg


class TestCli:
    def test_gen_and_route_and_eval(self, tmp_path):
        out = tmp_path / "d.bl"
        assert cli_main(["gen", "toy_cli", "--cells", "120", "--out", str(out)]) == 0
        assert out.exists()
        assert cli_main(["route", str(out)]) == 0
        assert cli_main(["eval", str(out)]) == 0

    def test_place_wirelength_only(self, tmp_path):
        src = tmp_path / "d.bl"
        dst = tmp_path / "placed.bl"
        cli_main(["gen", "toy_cli2", "--cells", "100", "--out", str(src)])
        assert cli_main([
            "place", str(src), "--iters", "120", "--out", str(dst)
        ]) == 0
        assert dst.exists()

    def test_plot(self, tmp_path):
        src = tmp_path / "d.bl"
        cli_main(["gen", "toy_cli3", "--cells", "80", "--out", str(src)])
        prefix = str(tmp_path / "viz")
        assert cli_main(["plot", str(src), "--prefix", prefix]) == 0
        import os

        assert os.path.exists(prefix + "_placement.svg")
        assert os.path.exists(prefix + "_congestion.ppm")

    def test_gen_suite_design(self, tmp_path):
        out = tmp_path / "fft.bl"
        assert cli_main(["gen", "fft_1", "--scale", "0.3", "--out", str(out)]) == 0
