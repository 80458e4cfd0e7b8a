"""Incremental / ECO placement tests.

Fast unit coverage of the netlist differ, the warm-start planner and
the dirty-region analysis runs in tier-1; the end-to-end flow test
(QoR vs a cold full re-place) carries the ``eco`` marker and runs in
its own CI job.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.rd_placer import RDConfig, RoutabilityDrivenPlacer
from repro.detail import detailed_place
from repro.eco import (
    EcoConfig,
    FixedCellOutsideDieError,
    apply_warm_start,
    baseline_positions,
    diff_netlists,
    dirty_region,
    eco_place,
    full_replace,
)
from repro.geometry import Grid2D, Rect
from repro.io.bookshelf import dumps_design, loads_design
from repro.legalize import check_legal, legalize
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec
from repro.place.config import GPConfig
from repro.synth import toy_design
from repro.utils.metrics import MemorySink, MetricsRegistry, validate_stream
from repro.wirelength import hpwl


def _quad() -> Netlist:
    """Four movable cells and one fixed macro on a 10x10 die."""
    die = Rect(0, 0, 10, 10)
    cells = [
        CellSpec("a", 1.0, 1.0, x=2.0, y=2.0),
        CellSpec("b", 1.0, 1.0, x=8.0, y=2.0),
        CellSpec("c", 1.0, 1.0, x=2.0, y=8.0),
        CellSpec("d", 1.0, 1.0, x=8.0, y=8.0),
        CellSpec("m", 2.0, 2.0, x=5.0, y=5.0, fixed=True, macro=True),
    ]
    nets = [
        NetSpec("n_ab", [PinSpec("a"), PinSpec("b")]),
        NetSpec("n_cd", [PinSpec("c"), PinSpec("d")]),
        NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
    ]
    return Netlist.from_specs("quad", die, cells, nets)


def _resize_cell(text: str, cell: str, factor: float) -> str:
    """Scale one cell's width in a serialized design."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "cell" and parts[1] == cell:
            parts[2] = str(float(parts[2]) * factor)
            line = " ".join(parts)
        out.append(line)
    return "\n".join(out) + "\n"


def _edge_macro_quad(x: float = 9.0) -> Netlist:
    """:func:`_quad` with the fixed macro ``m`` centred at ``(x, 5)``;
    the default puts its right edge exactly on the die boundary."""
    nl = _quad()
    nl.x[nl.cell_names.index("m")] = x
    return loads_design(dumps_design(nl))


class TestFixedCellEdits:
    """Edits that would push a fixed cell out of the die are rejected
    before any placement work, naming the cell."""

    def test_resized_fixed_cell_leaving_die_rejected(self):
        old = _edge_macro_quad()
        new = loads_design(_resize_cell(dumps_design(old), "m", 1.5))
        with pytest.raises(FixedCellOutsideDieError, match="'m'") as exc:
            diff_netlists(old, new)
        assert exc.value.cell == "m"
        assert isinstance(exc.value, ValueError)

    def test_added_fixed_cell_leaving_die_rejected(self):
        old = _quad()
        cells = [
            CellSpec("a", 1.0, 1.0, x=2.0, y=2.0),
            CellSpec("b", 1.0, 1.0, x=8.0, y=2.0),
            CellSpec("c", 1.0, 1.0, x=2.0, y=8.0),
            CellSpec("d", 1.0, 1.0, x=8.0, y=8.0),
            CellSpec("m", 2.0, 2.0, x=5.0, y=5.0, fixed=True, macro=True),
            CellSpec("pad", 1.0, 1.0, x=5.0, y=9.75, fixed=True),
        ]
        nets = [
            NetSpec("n_ab", [PinSpec("a"), PinSpec("b")]),
            NetSpec("n_cd", [PinSpec("c"), PinSpec("d")]),
            NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
        ]
        new = Netlist.from_specs("quad", old.die, cells, nets)
        with pytest.raises(FixedCellOutsideDieError, match="'pad'"):
            diff_netlists(old, new)

    @pytest.mark.parametrize("x,cell", [
        pytest.param(5.0, "m", id="fixed-inside"),
        pytest.param(9.0, "d", id="movable-at-edge"),
    ])
    def test_edits_that_stay_legal_are_accepted(self, x, cell):
        # a fixed macro that still fits, and a movable cell (placement
        # moves it back inside), are ordinary resizes
        old = _edge_macro_quad(x)
        text = dumps_design(old).replace("cell d 1.0 1.0 8.0", "cell d 1.0 1.0 9.5")
        old = loads_design(text)
        new = loads_design(_resize_cell(text, cell, 1.5))
        assert diff_netlists(old, new).resized_cells == [cell]

    def test_eco_place_rejects_before_moving_anything(self):
        old = _edge_macro_quad()
        new = loads_design(_resize_cell(dumps_design(old), "m", 1.5))
        x0, y0 = new.x.copy(), new.y.copy()
        with pytest.raises(FixedCellOutsideDieError):
            eco_place(new, old, EcoConfig(rd=RDConfig(max_rounds=1)))
        assert np.array_equal(new.x, x0) and np.array_equal(new.y, y0)

    def test_cli_prints_error_for_fft_b_pad(self, tmp_path, capsys):
        """The pad resize that used to end "cell io9 outside die"."""
        from repro.cli import main
        from repro.synth import suite_design

        base = suite_design("fft_b", 1.0, 0)
        text = dumps_design(base)
        (tmp_path / "base.bl").write_text(text)
        (tmp_path / "edit.bl").write_text(_resize_cell(text, "io9", 1.5))
        out = tmp_path / "eco.bl"
        with pytest.raises(SystemExit) as exc:
            main(["eco", str(tmp_path / "base.bl"), str(tmp_path / "edit.bl"),
                  "--out", str(out)])
        message = str(exc.value.code)
        assert message.startswith("error: ")
        assert "'io9'" in message and "die" in message
        assert not out.exists()


class TestNetlistDiff:
    def test_identical_designs_null_diff(self):
        old, new = _quad(), _quad()
        diff = diff_netlists(old, new)
        assert diff.is_null
        assert diff.n_edits == 0
        assert (diff.cell_old_to_new == np.arange(old.n_cells)).all()
        assert (diff.cell_new_to_old == np.arange(new.n_cells)).all()
        assert (diff.net_new_to_old == np.arange(new.n_nets)).all()

    def test_resize_detected(self):
        old = _quad()
        new = loads_design(_resize_cell(dumps_design(old), "b", 2.0))
        diff = diff_netlists(old, new)
        assert diff.resized_cells == ["b"]
        assert diff.n_edits == 1
        assert not diff.is_null

    def test_added_and_removed_cells(self):
        old = _quad()
        die = old.die
        cells = [
            CellSpec("a", 1.0, 1.0, x=2.0, y=2.0),
            CellSpec("b", 1.0, 1.0, x=8.0, y=2.0),
            CellSpec("c", 1.0, 1.0, x=2.0, y=8.0),
            CellSpec("e", 1.0, 1.0),  # new cell, d removed
            CellSpec("m", 2.0, 2.0, x=5.0, y=5.0, fixed=True, macro=True),
        ]
        nets = [
            NetSpec("n_ab", [PinSpec("a"), PinSpec("b")]),
            NetSpec("n_ce", [PinSpec("c"), PinSpec("e")]),  # n_cd removed
            NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
        ]
        new = Netlist.from_specs("quad", die, cells, nets)
        diff = diff_netlists(old, new)
        assert diff.added_cells == ["e"]
        assert diff.removed_cells == ["d"]
        assert diff.added_nets == ["n_ce"]
        assert diff.removed_nets == ["n_cd"]
        # surviving cells keep a two-way mapping
        i_old = old.cell_names.index("c")
        i_new = new.cell_names.index("c")
        assert diff.cell_old_to_new[i_old] == i_new
        assert diff.cell_new_to_old[i_new] == i_old
        # the removed cell maps nowhere
        assert diff.cell_old_to_new[old.cell_names.index("d")] == -1

    def test_rewired_net_detected(self):
        old = _quad()
        die = old.die
        cells = [
            CellSpec("a", 1.0, 1.0, x=2.0, y=2.0),
            CellSpec("b", 1.0, 1.0, x=8.0, y=2.0),
            CellSpec("c", 1.0, 1.0, x=2.0, y=8.0),
            CellSpec("d", 1.0, 1.0, x=8.0, y=8.0),
            CellSpec("m", 2.0, 2.0, x=5.0, y=5.0, fixed=True, macro=True),
        ]
        nets = [
            NetSpec("n_ab", [PinSpec("a"), PinSpec("d")]),  # b -> d
            NetSpec("n_cd", [PinSpec("c"), PinSpec("d")]),
            NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
        ]
        new = Netlist.from_specs("quad", die, cells, nets)
        diff = diff_netlists(old, new)
        assert diff.rewired_nets == ["n_ab"]
        assert diff.added_nets == [] and diff.removed_nets == []

    def test_pin_order_does_not_count_as_rewire(self):
        old = _quad()
        die = old.die
        cells = [
            CellSpec("a", 1.0, 1.0, x=2.0, y=2.0),
            CellSpec("b", 1.0, 1.0, x=8.0, y=2.0),
            CellSpec("c", 1.0, 1.0, x=2.0, y=8.0),
            CellSpec("d", 1.0, 1.0, x=8.0, y=8.0),
            CellSpec("m", 2.0, 2.0, x=5.0, y=5.0, fixed=True, macro=True),
        ]
        nets = [
            NetSpec("n_ab", [PinSpec("b"), PinSpec("a")]),  # order flipped
            NetSpec("n_cd", [PinSpec("c"), PinSpec("d")]),
            NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
        ]
        new = Netlist.from_specs("quad", die, cells, nets)
        assert diff_netlists(old, new).is_null


class TestWarmStart:
    def test_surviving_cells_keep_positions(self):
        old, new = _quad(), _quad()
        new.x[:] = 0.0
        new.y[:] = 0.0
        diff = diff_netlists(old, new)
        warm = apply_warm_start(new, diff, old.x, old.y)
        assert warm.n_mapped == old.n_cells
        assert warm.n_seeded == 0
        assert np.array_equal(new.x, old.x)
        assert np.array_equal(new.y, old.y)

    def test_added_cell_seeded_at_neighbor_centroid(self):
        old = _quad()
        die = old.die
        cells = [
            CellSpec("a", 1.0, 1.0),
            CellSpec("b", 1.0, 1.0),
            CellSpec("c", 1.0, 1.0),
            CellSpec("d", 1.0, 1.0),
            CellSpec("m", 2.0, 2.0, fixed=True, macro=True),
            CellSpec("z", 1.0, 1.0),  # new, tied to a and b
        ]
        nets = [
            NetSpec("n_ab", [PinSpec("a"), PinSpec("b")]),
            NetSpec("n_cd", [PinSpec("c"), PinSpec("d")]),
            NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
            NetSpec("n_z", [PinSpec("z"), PinSpec("a"), PinSpec("b")]),
        ]
        new = Netlist.from_specs("quad", die, cells, nets)
        diff = diff_netlists(old, new)
        warm = apply_warm_start(new, diff, old.x, old.y)
        assert warm.n_seeded == 1
        z = new.cell_names.index("z")
        # centroid of a=(2,2) and b=(8,2)
        assert new.x[z] == pytest.approx(5.0)
        assert new.y[z] == pytest.approx(2.0)

    def test_isolated_added_cell_falls_back_to_die_center(self):
        old = _quad()
        die = old.die
        cells = [
            CellSpec("a", 1.0, 1.0),
            CellSpec("b", 1.0, 1.0),
            CellSpec("c", 1.0, 1.0),
            CellSpec("d", 1.0, 1.0),
            CellSpec("m", 2.0, 2.0, fixed=True, macro=True),
            CellSpec("lone", 1.0, 1.0),
        ]
        nets = [
            NetSpec("n_ab", [PinSpec("a"), PinSpec("b")]),
            NetSpec("n_cd", [PinSpec("c"), PinSpec("d")]),
            NetSpec("n_am", [PinSpec("a"), PinSpec("m")]),
        ]
        new = Netlist.from_specs("quad", die, cells, nets)
        diff = diff_netlists(old, new)
        apply_warm_start(new, diff, old.x, old.y)
        lone = new.cell_names.index("lone")
        cx, cy = die.center
        assert new.x[lone] == pytest.approx(cx)
        assert new.y[lone] == pytest.approx(cy)


class TestDirtyRegion:
    def _grid(self, netlist: Netlist) -> Grid2D:
        return Grid2D(netlist.die, 8, 8)

    def test_resized_cell_and_bin_neighbors_dirty(self):
        old = _quad()
        new = loads_design(_resize_cell(dumps_design(old), "b", 2.0))
        diff = diff_netlists(old, new)
        region = dirty_region(new, old, diff, self._grid(new), halo_bins=0)
        b = new.cell_names.index("b")
        assert region.dirty_cells[b]
        assert region.n_bins >= 1
        # every net with a pin on a dirty cell is dirty
        for e in range(new.n_nets):
            pins = new.net_pins(e)
            touches = bool(region.dirty_cells[new.pin_cell[pins]].any())
            assert bool(region.dirty_nets[e]) == touches

    def test_fixed_cells_never_dirty(self):
        old = _quad()
        new = loads_design(_resize_cell(dumps_design(old), "m", 1.5))
        diff = diff_netlists(old, new)
        region = dirty_region(new, old, diff, self._grid(new), halo_bins=2)
        assert not region.dirty_cells[new.cell_names.index("m")]
        assert not (region.dirty_cells & new.cell_fixed).any()

    def test_halo_grows_the_region(self):
        old = _quad()
        new = loads_design(_resize_cell(dumps_design(old), "b", 2.0))
        diff = diff_netlists(old, new)
        grid = self._grid(new)
        r0 = dirty_region(new, old, diff, grid, halo_bins=0)
        r2 = dirty_region(new, old, diff, grid, halo_bins=2)
        assert r2.n_bins > r0.n_bins
        assert r2.n_dirty_cells >= r0.n_dirty_cells

    def test_null_diff_empty_region(self):
        old, new = _quad(), _quad()
        diff = diff_netlists(old, new)
        region = dirty_region(new, old, diff, self._grid(new))
        assert region.n_dirty_cells == 0
        assert region.n_dirty_nets == 0


class TestEcoFlowUnit:
    @pytest.mark.parametrize("with_snapshot", [False, True],
                             ids=["design-file", "snapshot"])
    def test_null_edit_keeps_baseline_positions(self, tmp_path, with_snapshot):
        """A null edit returns the baseline file's positions, 0 rounds.

        With a snapshot, its best positions are GP output, not the
        file's; the clean region still comes back as the file has it.
        """
        rd = RDConfig(gp=GPConfig(max_iters=30), max_rounds=1, iters_per_round=5)
        old = toy_design(80, seed=9)
        snapshot = None
        if with_snapshot:
            snapshot = str(tmp_path / "base.npz")
            RoutabilityDrivenPlacer(old, rd).run(checkpoint_path=snapshot)
            legalize(old)
        text = dumps_design(old)
        new = loads_design(text)
        old = loads_design(text)
        result = eco_place(
            new, old, EcoConfig(rd=rd), baseline_checkpoint=snapshot
        )
        assert result.warm.source == ("checkpoint" if with_snapshot else "design")
        if with_snapshot:
            snap_x, _, _ = baseline_positions(old, snapshot)
            assert not np.array_equal(snap_x, old.x)
        assert result.n_rounds == 0
        assert result.region.n_dirty_cells == 0
        assert np.array_equal(new.x, old.x)
        assert np.array_equal(new.y, old.y)

    def test_telemetry_stream_valid_and_complete(self):
        rd = RDConfig(gp=GPConfig(max_iters=30), max_rounds=1, iters_per_round=5)
        old = toy_design(80, seed=9)
        text = dumps_design(old)
        new = loads_design(_resize_cell(text, "c10", 2.0))
        old = loads_design(text)
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        eco_place(new, old, EcoConfig(rd=rd), metrics=metrics)
        metrics.close()
        events = [json.loads(line) for line in sink.lines]
        validate_stream(events)
        kinds = [e["kind"] for e in events]
        for kind in ("eco.diff", "eco.warm", "eco.region", "eco.place"):
            assert kind in kinds, f"missing {kind} in {kinds}"


@pytest.mark.eco
class TestEcoEndToEnd:
    """Slow flow-level guarantees; own CI job (``-m eco``)."""

    RD = dict(max_rounds=4, iters_per_round=15)

    def _baseline(self, tmp_path, n_cells=150, seed=5, utilization=0.8):
        """Place a toy design through the full RD flow + finishing."""
        rd = RDConfig(gp=GPConfig(max_iters=100), **self.RD)
        netlist = toy_design(n_cells, seed=seed, utilization=utilization)
        placer = RoutabilityDrivenPlacer(netlist, rd)
        checkpoint = str(tmp_path / "base.npz")
        result = placer.run(checkpoint_path=checkpoint)
        legalize(netlist)
        detailed_place(
            netlist,
            passes=2,
            grid=placer.gp.grid,
            congestion=result.final_routing.congestion_map,
        )
        return netlist, rd, checkpoint

    def test_single_resize_beats_cold_full_replace(self, tmp_path):
        """The acceptance run: a <=5%-cells edit must match full QoR.

        ECO must finish in strictly fewer RD rounds than the cold full
        re-place while keeping HPWL within 1% and overflow no worse.
        """
        netlist, rd, checkpoint = self._baseline(tmp_path)
        text = dumps_design(netlist)
        edited = _resize_cell(text, "c10", 2.0)

        eco = loads_design(edited)
        result = eco_place(
            eco,
            loads_design(text),
            EcoConfig(rd=rd),
            baseline_checkpoint=checkpoint,
        )
        assert result.region.n_dirty_cells <= 0.05 * eco.n_cells + 10
        assert check_legal(eco) == []

        full_nl = loads_design(edited)
        full = full_replace(full_nl, rd)

        assert result.n_rounds < full["rounds"], (
            f"eco took {result.n_rounds} rounds, full {full['rounds']}"
        )
        assert result.hpwl <= 1.01 * full["hpwl"], (
            f"eco hpwl {result.hpwl} vs full {full['hpwl']}"
        )
        assert result.total_overflow <= full["total_overflow"] + 1e-9
        assert result.hpwl == pytest.approx(hpwl(eco))
