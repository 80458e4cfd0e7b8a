"""Fault injection, divergence guards, rollback and the flow snapshot.

The `faultinject`-marked tests install deterministic
:class:`~repro.utils.faults.FaultPlan` entries at named sites inside
the flow and assert that every recovery path fires: the solver backs
off NaN gradients, the routability loop scrubs poisoned congestion
maps, a failing routing chunk is retried one segment at a time
bit-identically, a failed routing pass surfaces as a round rollback,
and a crashed round rolls back to the best snapshot.  The snapshot
tests pin down what ``run(checkpoint_path=)`` writes: the positions
the ECO warm start reads, nothing the flow itself reads back.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines.flows import make_gp_seed
from repro.core import RDConfig, RoutabilityDrivenPlacer, rd_placer
from repro.core.rd_placer import MAX_ROUND_FAILURES
from repro.geometry import Grid2D
from repro.place import GPConfig
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from repro.utils import faults
from repro.utils.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.utils.faults import FaultPlan, InjectedFault
from repro.utils.guards import (
    BLOWUP_FACTOR,
    WARMUP,
    WINDOW,
    DivergenceSentinel,
    all_finite,
    scrub_nonfinite,
)
from repro.utils.metrics import MemorySink, MetricsRegistry


@pytest.fixture(autouse=True)
def _loop_runs_every_round(monkeypatch):
    """Neither a stall nor a quiet map ends the loop early here."""
    monkeypatch.setattr(rd_placer, "PATIENCE", 10)
    monkeypatch.setattr(rd_placer, "STOP_MEAN_CONGESTION", 0.0)


def _rd_config(**kw):
    base = dict(
        gp=GPConfig(max_iters=40, seed=1),
        max_rounds=3,
        iters_per_round=8,
    )
    base.update(kw)
    return RDConfig(**base)


def _placed(cells=150, seed=5):
    """``toy_design(cells, seed)`` at the wirelength-driven seed the
    routability loop starts from."""
    return make_gp_seed(toy_design(cells, seed=seed), _rd_config().gp).netlist


def _run_streamed(netlist, cfg):
    """Run the flow with a memory-sink registry; (result, series)."""
    metrics = MetricsRegistry(sink=MemorySink())
    metrics.start_run(command="test")
    result = RoutabilityDrivenPlacer(netlist, cfg, metrics=metrics).run()
    return result, metrics.series


def _assert_legal_positions(netlist):
    assert all_finite(netlist.x) and all_finite(netlist.y)
    die = netlist.die
    assert (netlist.x >= die.xlo - 1e-9).all()
    assert (netlist.x <= die.xhi + 1e-9).all()
    assert (netlist.y >= die.ylo - 1e-9).all()
    assert (netlist.y <= die.yhi + 1e-9).all()


# ---------------------------------------------------------------------------
# unit level: guards / faults / checkpoint primitives
# ---------------------------------------------------------------------------


class TestGuardPrimitives:
    def test_scrub_nonfinite(self):
        a = np.array([1.0, np.nan, np.inf, -np.inf, 2.0])
        out, n_bad = scrub_nonfinite(a, fill=0.5)
        assert n_bad == 3
        assert out is a  # in place
        assert np.array_equal(a, [1.0, 0.5, 0.5, 0.5, 2.0])

    def test_scrub_clean_is_noop(self):
        a = np.array([1.0, 2.0])
        out, n_bad = scrub_nonfinite(a)
        assert n_bad == 0 and out is a

    def test_sentinel_trips_on_blowup(self):
        s = DivergenceSentinel()
        # no trip before WARMUP healthy observations
        assert s.observe(100.0) == "ok"
        for _ in range(WARMUP - 2):
            assert s.observe(101.0) == "ok"
        assert s.observe(BLOWUP_FACTOR * 100.0 * 1.5) == "ok"
        assert s.baseline == 100.0
        assert s.observe(BLOWUP_FACTOR * 100.0 * 1.01) == "diverging"
        # unhealthy values never enter the baseline
        assert s.observe(103.0) == "ok"
        assert s.baseline == 100.0

    def test_sentinel_baseline_is_rolling_window(self):
        s = DivergenceSentinel()
        for v in [1.0] + [2.0] * WINDOW:
            assert s.observe(v) == "ok"
        # the 1.0 left the window of the last WINDOW healthy points
        assert s.baseline == 2.0

    def test_sentinel_nonfinite(self):
        s = DivergenceSentinel()
        assert s.observe(float("nan")) == "nonfinite"
        s.observe(1.0)
        assert s.observe(float("inf")) == "nonfinite"
        assert s.trips == 2


class TestFaultPlans:
    def test_trigger_and_count_window(self):
        plan = FaultPlan("s", trigger=2, count=2)
        assert [plan.active_at(h) for h in range(5)] == [
            False, False, True, True, False,
        ]

    def test_forever(self):
        plan = FaultPlan("s", trigger=1, count=-1)
        assert not plan.active_at(0)
        assert plan.active_at(10_000)

    def test_fire_identity_without_injector(self):
        arr = np.ones(3)
        assert faults.fire("anything", arr) is arr

    def test_nan_injection_is_deterministic(self):
        with faults.injected(FaultPlan("s", mode="nan", stride=2)):
            out1 = faults.fire("s", np.ones(6))
        with faults.injected(FaultPlan("s", mode="nan", stride=2)):
            out2 = faults.fire("s", np.ones(6))
        assert np.array_equal(np.isnan(out1), np.isnan(out2))
        assert np.isnan(out1[::2]).all() and np.isfinite(out1[1::2]).all()

    def test_raise_mode(self):
        with faults.injected(FaultPlan("s", mode="raise")):
            with pytest.raises(InjectedFault, match="'s'"):
                faults.fire("s")


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        path = str(tmp_path / "c.npz")
        arr = rng.standard_normal(100)
        meta = {"k": 1, "f": 0.1 + 0.2, "nested": {"a": [1, 2]}}
        write_checkpoint(path, meta, {"arr": arr})
        meta2, arrays = read_checkpoint(path)
        assert meta2 == meta
        assert np.array_equal(arrays["arr"], arr)

    def test_numpy_scalars_in_meta(self, tmp_path):
        path = str(tmp_path / "c.npz")
        write_checkpoint(
            path,
            {"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)},
            {},
        )
        meta, _ = read_checkpoint(path)
        assert meta == {"a": 1.5, "b": 3, "c": True}

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz payload")
        with pytest.raises(CheckpointError, match="bad.npz"):
            read_checkpoint(str(path))

    def test_foreign_npz_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, x=np.ones(3))
        with pytest.raises(CheckpointError, match="missing meta"):
            read_checkpoint(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "c.npz")
        write_checkpoint(path, {"v": 1}, {"a": np.ones(2)})
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]


# ---------------------------------------------------------------------------
# flow level: injected faults must be survived, recovery must be reported
# ---------------------------------------------------------------------------


@pytest.mark.faultinject
class TestGradientFaults:
    def test_nesterov_backs_off_nan_gradient(self):
        from repro.optim.nesterov import NesterovOptimizer

        def grad(p):
            return faults.fire("optim.gradient", 2.0 * p)

        trips = []
        opt = NesterovOptimizer(
            np.linspace(-1.0, 1.0, 10), grad, initial_step=0.1,
            on_guard=lambda *trip: trips.append(trip),
        )
        with faults.injected(FaultPlan("optim.gradient", trigger=1, count=1)):
            opt.do_step()
            opt.do_step()  # corrupted gradient -> backoff + retry
            opt.do_step()
        assert all_finite(opt.u)
        assert len(trips) >= 1
        assert any(action == "backoff" for _, _, action in trips)

    def test_flow_survives_nan_gradients(self, inject_faults):
        """Two NaN gradients: the flow backs off and finishes legal, and
        each backoff is one ``gp.guard`` event, counted once in the
        round record and in ``n_guard_events``."""
        nl = toy_design(150, seed=5)
        # no wirelength-driven seed, so the fault hits the flow's own
        # solver (a seed GP runs separate placer instances whose
        # recovery would not show up in this flow's records)
        injector = inject_faults(
            FaultPlan("optim.gradient", mode="nan", trigger=3, count=2)
        )
        result, series = _run_streamed(nl, _rd_config(max_rounds=2))
        assert injector.count_fired("optim.gradient") == 2
        _assert_legal_positions(nl)
        guards = series["gp.guard"]
        assert [(e["guard"], e["action"]) for e in guards] == [
            ("nonfinite", "backoff"), ("nonfinite", "backoff")
        ]
        assert result.series("guard_trips") == [0, 2]
        assert result.n_guard_events == len(guards)
        assert "rd.recovery" not in series


@pytest.mark.faultinject
class TestCongestionFaults:
    def test_poisoned_map_is_scrubbed_and_reported(self, inject_faults):
        nl = _placed()
        inject_faults(FaultPlan("rd.congestion", mode="poison", trigger=0))
        placer = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=2))
        result = placer.run()
        _assert_legal_positions(nl)
        assert any("congestion" in note for r in result.rounds for r_ in [r]
                   for note in r_.recovery)
        # inflation must have stayed in its legal range despite the poison
        rates = placer.inflation.rates
        assert all_finite(rates)
        assert (rates >= placer.config.inflation.r_min - 1e-12).all()
        assert (rates <= placer.config.inflation.r_max + 1e-12).all()

    def test_crashing_round_rolls_back(self, inject_faults):
        nl = _placed()
        # raising at the congestion site aborts round 1 itself ->
        # the loop must roll back and keep going
        inject_faults(FaultPlan("rd.congestion", mode="raise", trigger=1, count=1))
        result, series = _run_streamed(nl, _rd_config())
        _assert_legal_positions(nl)
        assert any(e["action"] == "rollback" for e in series["rd.recovery"])
        assert result.n_guard_events >= len(series["rd.recovery"])
        # the flow continued past the failed round
        assert result.n_rounds >= 1

    def test_persistent_failure_returns_best_snapshot(self, inject_faults):
        nl = _placed()
        inject_faults(FaultPlan("rd.congestion", mode="raise", trigger=1, count=-1))
        cfg = _rd_config()
        _, series = _run_streamed(nl, cfg)
        _assert_legal_positions(nl)
        rollbacks = [e for e in series["rd.recovery"] if e["action"] == "rollback"]
        # gives up after MAX_ROUND_FAILURES consecutive failures
        assert len(rollbacks) == MAX_ROUND_FAILURES


@pytest.mark.faultinject
class TestRouterFaults:
    def test_failed_pass_raises(self, toy300):
        grid = Grid2D(toy300.die, 24, 24)
        router = GlobalRouter(grid, RouterConfig())
        with faults.injected(FaultPlan("route.batched", mode="raise")):
            with pytest.raises(InjectedFault, match="route.batched"):
                router.route(toy300)

    def test_chunk_failure_falls_back_bit_identical(self, toy300):
        dim = 24
        grid = Grid2D(toy300.die, dim, dim)
        clean = GlobalRouter(grid, RouterConfig()).route(toy300)
        plan = FaultPlan("route.batched_chunk", mode="raise", trigger=1, count=2)
        with faults.injected(plan) as injector:
            degraded = GlobalRouter(grid, RouterConfig()).route(toy300)
        assert injector.count_fired("route.batched_chunk") == 2
        assert degraded.n_fallbacks == 2
        assert np.array_equal(clean.grid.h_demand, degraded.grid.h_demand)
        assert np.array_equal(clean.grid.v_demand, degraded.grid.v_demand)

    def test_chunk_faults_keep_flow_bit_identical(self, inject_faults):
        clean = _placed()
        RoutabilityDrivenPlacer(clean, _rd_config(max_rounds=2)).run()

        nl = _placed()
        inject_faults(FaultPlan("route.batched_chunk", mode="raise", count=-1))
        result = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=2)).run()
        assert result.rounds
        assert all(r.router_fallbacks >= 1 for r in result.rounds)
        assert np.array_equal(clean.x, nl.x)
        assert np.array_equal(clean.y, nl.y)

    def test_failed_pass_rolls_back_round(self, inject_faults):
        nl = _placed()
        # pass 0 is the initial routing; pass 1 closes round 0
        injector = inject_faults(
            FaultPlan("route.batched", mode="raise", trigger=1, count=1)
        )
        _, series = _run_streamed(nl, _rd_config(max_rounds=2))
        assert injector.count_fired("route.batched") == 1
        rollbacks = [e for e in series["rd.recovery"] if e["action"] == "rollback"]
        assert len(rollbacks) == 1
        assert "InjectedFault" in rollbacks[0]["detail"]
        _assert_legal_positions(nl)


# ---------------------------------------------------------------------------
# the write-only best-placement snapshot
# ---------------------------------------------------------------------------


class TestFlowCheckpoint:
    def test_fresh_run_when_no_checkpoint_exists(self, tmp_path):
        path = str(tmp_path / "missing.npz")
        nl = _placed()
        result = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=1)).run(
            checkpoint_path=path
        )
        assert result.n_rounds >= 1
        assert os.path.exists(path)

    def test_snapshot_holds_only_warm_start_fields(self, tmp_path):
        path = str(tmp_path / "flow.npz")
        nl = _placed()
        RoutabilityDrivenPlacer(nl, _rd_config()).run(checkpoint_path=path)
        meta, arrays = read_checkpoint(path)
        assert meta == {
            "design": {
                "name": nl.name,
                "n_cells": nl.n_cells,
                "n_nets": nl.n_nets,
                "n_pins": nl.n_pins,
            },
            "has_best": True,
        }
        assert set(arrays) == {"x", "y", "best_x", "best_y"}

    def test_snapshot_does_not_change_the_flow(self, tmp_path):
        ref = _placed()
        RoutabilityDrivenPlacer(ref, _rd_config()).run()
        nl = _placed()
        RoutabilityDrivenPlacer(nl, _rd_config()).run(
            checkpoint_path=str(tmp_path / "flow.npz")
        )
        assert np.array_equal(ref.x, nl.x)
        assert np.array_equal(ref.y, nl.y)

    def test_snapshot_holds_the_returned_placement(self, tmp_path):
        """The last round's routing wins here: the snapshot written
        after that round already holds the placement ``run()`` returns."""
        path = str(tmp_path / "flow.npz")
        cfg = RDConfig(
            gp=GPConfig(max_iters=60, seed=1), max_rounds=3, iters_per_round=15
        )
        nl = make_gp_seed(toy_design(300, seed=3), cfg.gp).netlist
        result = RoutabilityDrivenPlacer(nl, cfg).run(checkpoint_path=path)
        assert result.best_round == 3
        meta, arrays = read_checkpoint(path)
        assert meta["has_best"]
        assert np.array_equal(arrays["best_x"], nl.x)
        assert np.array_equal(arrays["best_y"], nl.y)

    def test_existing_file_is_overwritten_not_resumed(self, tmp_path):
        """A snapshot of another design at the path is replaced (kept
        as ``.bak``), never read."""
        path = str(tmp_path / "flow.npz")
        RoutabilityDrivenPlacer(
            _placed(120, 7), _rd_config(max_rounds=1)
        ).run(checkpoint_path=path)
        nl = _placed()
        result = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=1)).run(
            checkpoint_path=path
        )
        assert result.n_rounds == 1
        meta, _ = read_checkpoint(path)
        assert meta["design"]["n_cells"] == nl.n_cells
        assert os.path.exists(path + ".bak")
