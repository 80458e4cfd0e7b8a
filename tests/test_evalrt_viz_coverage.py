"""Coverage for the evaluation and visualization layers.

Complements ``test_evalrt.py`` / ``test_viz_stt_cli.py`` with the
paths those suites skip: report edge cases (missing rows, zero
references, exclusions), evaluator row plumbing, overlapping-rail band
merging, and deterministic render smoke checks for both viz backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evalrt.config import EvalConfig
from repro.evalrt.evaluator import (
    COVERED_PIN_DRV_WEIGHT,
    CROWDING_DRV_WEIGHT,
    evaluate_routing,
    evaluation_grid,
)
from repro.evalrt.pinaccess import (
    PinAccessReport,
    pin_access_violations,
    pins_under_rails,
)
from repro.evalrt.report import MetricRow, format_table, ratio_row
from repro.geometry import Grid2D, Rect
from repro.netlist import CellSpec, Netlist, NetSpec, PGRailSpec, PinSpec
from repro.place.config import auto_grid_dim
from repro.place.initial import initial_placement
from repro.synth import toy_design
from repro.viz import (
    ascii_heatmap,
    placement_svg,
    save_heatmap_ppm,
    save_placement_svg,
)


@pytest.fixture(scope="module")
def placed150():
    nl = toy_design(150, seed=5)
    initial_placement(nl, 0)
    return nl


def _rows():
    return [
        MetricRow("d1", "ref", {"DRWL": 100.0, "#DRVs": 10.0}),
        MetricRow("d1", "new", {"DRWL": 90.0, "#DRVs": 5.0}),
        MetricRow("d2", "ref", {"DRWL": 200.0, "#DRVs": 4.0}),
        MetricRow("d2", "new", {"DRWL": 220.0, "#DRVs": 2.0}),
    ]


class TestReportEdgeCases:
    def test_metric_row_get_coerces_to_float(self):
        row = MetricRow("d", "p", {"DRWL": np.float64(1.5), "n": 3})
        assert row.get("DRWL") == 1.5
        assert isinstance(row.get("n"), float)

    def test_ratio_row_basic(self):
        ratios = ratio_row(_rows(), "ref", keys=("DRWL", "#DRVs"))
        assert ratios["ref"]["DRWL"] == pytest.approx(1.0)
        assert ratios["new"]["DRWL"] == pytest.approx((0.9 + 1.1) / 2)
        assert ratios["new"]["#DRVs"] == pytest.approx((0.5 + 0.5) / 2)

    def test_ratio_row_skips_designs_missing_either_placer(self):
        rows = _rows() + [MetricRow("d3", "new", {"DRWL": 1.0, "#DRVs": 1.0})]
        ratios = ratio_row(rows, "ref", keys=("DRWL",))
        # d3 has no reference row, so the new-placer mean is unchanged
        assert ratios["new"]["DRWL"] == pytest.approx((0.9 + 1.1) / 2)

    def test_ratio_row_zero_reference_yields_nan(self):
        rows = [
            MetricRow("d", "ref", {"#DRVs": 0.0}),
            MetricRow("d", "new", {"#DRVs": 3.0}),
        ]
        ratios = ratio_row(rows, "ref", keys=("#DRVs",))
        assert np.isnan(ratios["new"]["#DRVs"])

    def test_ratio_row_exclusion(self):
        exclude = {"DRWL": {("d2", "new")}}
        ratios = ratio_row(_rows(), "ref", keys=("DRWL",), exclude=exclude)
        assert ratios["new"]["DRWL"] == pytest.approx(0.9)

    def test_format_table_marks_missing_pairs(self):
        rows = _rows()[:3]  # d2 has no "new" row
        text = format_table(rows, keys=("DRWL",))
        d2_line = next(ln for ln in text.splitlines() if ln.startswith("d2"))
        assert "-" in d2_line

    def test_format_table_footer_only_with_reference(self):
        keys = ("DRWL", "#DRVs")
        assert "Avg. Ratio" not in format_table(_rows(), keys=keys)
        with_ref = format_table(_rows(), keys=keys, reference_placer="ref")
        assert "Avg. Ratio" in with_ref.splitlines()[-1]


class TestEvaluatorPlumbing:
    def test_as_row_keys(self, placed150):
        ev = evaluate_routing(placed150)
        row = ev.as_row()
        assert set(row) == {"DRWL", "#DRVias", "#DRVs", "RT"}
        assert row["DRWL"] == ev.drwl

    def test_evaluation_grid_follows_design_size(self, placed150):
        cfg = EvalConfig()
        grid = evaluation_grid(placed150, cfg)
        expected = min(
            auto_grid_dim(placed150.n_cells) * cfg.grid_dim_factor, 512
        )
        assert grid.nx == grid.ny == expected

    def test_explicit_grid_is_used(self, placed150):
        grid = Grid2D(placed150.die, 24, 24)
        ev = evaluate_routing(placed150, grid=grid)
        assert ev.routing.grid.h_cap.shape == (24, 24)

    def test_drv_composition(self, placed150):
        ev = evaluate_routing(placed150)
        recomposed = (
            ev.overflow_drvs
            + COVERED_PIN_DRV_WEIGHT * ev.pin_report.covered_pin_drvs
            + CROWDING_DRV_WEIGHT * ev.pin_report.crowding_drvs
        )
        assert ev.n_drvs == pytest.approx(round(recomposed))
        assert ev.overflow_drvs >= 0.0

    def test_pin_access_report_total(self):
        report = PinAccessReport(
            covered_pin_drvs=1.5, crowding_drvs=2.5, n_covered_pins=3
        )
        assert report.total == pytest.approx(4.0)


class TestPinAccessBands:
    def _netlist_with_rails(self, rails):
        die = Rect(0, 0, 10, 10)
        cells = [
            CellSpec("a", 1.0, 1.0, x=2.0, y=1.0),
            CellSpec("b", 1.0, 1.0, x=2.0, y=5.0),
        ]
        nets = [NetSpec("n", [PinSpec("a"), PinSpec("b")])]
        return Netlist.from_specs("r", die, cells, nets, pg_rails=rails)

    def test_overlapping_rails_merge_into_one_band(self):
        # two horizontal rails overlapping around y=1; parity search
        # over unmerged bands would wrongly report the overlap as "out"
        rails = [
            PGRailSpec(rect=Rect(0, 0.8, 10, 1.1), horizontal=True),
            PGRailSpec(rect=Rect(0, 1.0, 10, 1.3), horizontal=True),
        ]
        nl = self._netlist_with_rails(rails)
        covered = pins_under_rails(nl, margin_fraction=0.0)
        assert covered[0]  # pin at y=1.0 inside the merged band
        assert not covered[1]

    def test_vertical_rails_cover_by_x(self):
        rails = [PGRailSpec(rect=Rect(1.8, 0, 2.2, 10), horizontal=False)]
        nl = self._netlist_with_rails(rails)
        covered = pins_under_rails(nl, margin_fraction=0.0)
        assert covered.all()  # both pins sit at x=2.0

    def test_no_pins_short_circuits(self):
        die = Rect(0, 0, 10, 10)
        nl = Netlist.from_specs(
            "empty", die, [CellSpec("a", 1.0, 1.0, x=5.0, y=5.0)], []
        )
        grid = Grid2D(die, 4, 4)
        report = pin_access_violations(nl, grid, grid.zeros())
        assert report.total == 0.0 and report.n_covered_pins == 0


class TestVizSmoke:
    def test_ascii_heatmap_flat_map_renders_blank(self):
        art = ascii_heatmap(np.zeros((8, 8)), width=8)
        assert set("".join(art.splitlines())) <= {" "}

    def test_ascii_heatmap_title_and_vmax(self):
        art = ascii_heatmap(np.ones((8, 8)), width=8, vmax=2.0, title="T")
        lines = art.splitlines()
        assert lines[0] == "T"
        assert "@" not in art  # saturation point is vmax, map sits at half

    def test_ppm_header_matches_scaled_dims(self, tmp_path):
        path = tmp_path / "m.ppm"
        save_heatmap_ppm(np.random.default_rng(0).random((6, 4)),
                         str(path), pixel_scale=3)
        data = path.read_bytes()
        header, _, rest = data.partition(b"\n")
        assert header == b"P6 18 12 255"
        assert len(rest) == 18 * 12 * 3

    def test_ppm_flat_map_does_not_divide_by_zero(self, tmp_path):
        path = tmp_path / "flat.ppm"
        save_heatmap_ppm(np.zeros((4, 4)), str(path))
        assert path.read_bytes().startswith(b"P6")

    def test_svg_draws_every_cell_and_rail(self, placed150):
        svg = placement_svg(placed150, show_rails=True)
        n_rects = svg.count("<rect")
        # background + cells + rails (no congestion overlay)
        assert n_rects == 1 + placed150.n_cells + len(placed150.pg_rails)
        assert svg.rstrip().endswith("</svg>")

    def test_svg_rails_toggle(self, placed150):
        with_r = placement_svg(placed150, show_rails=True)
        without = placement_svg(placed150, show_rails=False)
        assert with_r.count("<rect") - without.count("<rect") == len(
            placed150.pg_rails
        )

    def test_svg_congestion_overlay_adds_shading(self, placed150):
        grid = Grid2D(placed150.die, 8, 8)
        cong = grid.zeros()
        cong[3, 3] = 2.0
        base = placement_svg(placed150, show_rails=False)
        shaded = placement_svg(
            placed150, congestion=cong, grid=grid, show_rails=False
        )
        assert shaded.count("<rect") == base.count("<rect") + 1

    def test_save_placement_svg_writes_file(self, placed150, tmp_path):
        path = tmp_path / "p.svg"
        save_placement_svg(placed150, str(path), width_px=200)
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_render_is_deterministic(self, placed150):
        assert placement_svg(placed150) == placement_svg(placed150)
