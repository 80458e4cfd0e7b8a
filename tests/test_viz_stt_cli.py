"""Tests for visualization, PinRUDY and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.geometry import Grid2D, Rect
from repro.route import pin_rudy_map
from repro.viz import ascii_heatmap, placement_svg, save_heatmap_ppm, save_placement_svg


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
