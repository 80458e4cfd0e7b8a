"""StageProfiler behaviour: timers, counters, merge, serialisation.

Timing assertions inject a :class:`~repro.utils.clock.FakeClock`
instead of sleeping, so they are exact and instantaneous.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Grid2D
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from repro.utils.clock import FakeClock, SystemClock
from repro.utils.profile import StageProfiler, StageStats
from repro.utils.timer import Timer


class TestClocks:
    def test_fake_clock_advances_exactly(self):
        clock = FakeClock(start=5.0)
        assert clock.now() == 5.0
        clock.advance(0.25)
        assert clock.now() == 5.25

    def test_fake_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_system_clock_is_monotonic(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_timer_uses_injected_clock(self):
        clock = FakeClock()
        timer = Timer(clock=clock).start()
        clock.advance(1.5)
        timer.stop()
        clock.advance(100.0)  # after stop: no effect
        assert timer.elapsed == pytest.approx(1.5)


class TestAccumulation:
    def test_timer_accumulates_time_and_calls(self):
        clock = FakeClock()
        prof = StageProfiler(clock=clock)
        for _ in range(3):
            with prof.timer("a.b"):
                clock.advance(0.002)
        st = prof.stages["a.b"]
        assert st.calls == 3
        assert st.time == pytest.approx(0.006)
        assert prof.time_of("a.b") == st.time
        assert prof.time_of("missing") == 0.0

    def test_nested_timers_attribute_time_to_each_stage(self):
        clock = FakeClock()
        prof = StageProfiler(clock=clock)
        with prof.timer("outer"):
            clock.advance(1.0)
            with prof.timer("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        assert prof.time_of("inner") == pytest.approx(2.0)
        assert prof.time_of("outer") == pytest.approx(3.5)

    def test_timer_records_on_exception(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.timer("boom"):
                raise RuntimeError("x")
        assert prof.stages["boom"].calls == 1

    def test_counters(self):
        prof = StageProfiler()
        prof.count("segments", 10)
        prof.count("segments", 5)
        prof.count("calls")
        assert prof.counters == {"segments": 15, "calls": 1}

    def test_total_by_prefix(self):
        prof = StageProfiler()
        prof.add_time("route.initial", 1.0)
        prof.add_time("route.rrr", 2.0)
        prof.add_time("gp.step", 4.0)
        assert prof.total("route.") == pytest.approx(3.0)
        assert prof.total() == pytest.approx(7.0)

    def test_reset(self):
        prof = StageProfiler()
        prof.add_time("x", 1.0)
        prof.count("y")
        prof.reset()
        assert not prof.stages and not prof.counters


class TestMergeAndSerialise:
    def test_merge(self):
        a = StageProfiler()
        a.add_time("s", 1.0, calls=2)
        a.count("c", 3)
        b = StageProfiler()
        b.add_time("s", 0.5)
        b.add_time("t", 0.25)
        b.count("c", 1)
        a.merge(b)
        assert a.stages["s"] == StageStats(time=1.5, calls=3)
        assert a.stages["t"].time == 0.25
        assert a.counters["c"] == 4

    def test_dict_round_trip(self):
        prof = StageProfiler()
        prof.add_time("route.total", 1.25, calls=2)
        prof.count("route.segments", 99)
        data = prof.as_dict()
        assert data["stages"]["route.total"] == {
            "time_s": 1.25, "calls": 2, "errors": 0,
        }
        back = StageProfiler.from_dict(data)
        assert back.as_dict() == data

    def test_report_contains_stages_and_counters(self):
        prof = StageProfiler()
        prof.add_time("slow", 2.0)
        prof.add_time("fast", 0.5)
        prof.count("things", 7)
        text = prof.report("my title")
        lines = text.splitlines()
        assert lines[0] == "my title"
        # sorted by time descending
        assert lines[1].split()[0] == "slow"
        assert lines[2].split()[0] == "fast"
        assert any("things" in ln and "7" in ln for ln in lines)

    def test_report_empty(self):
        assert "(no stages recorded)" in StageProfiler().report()


class TestRouterIntegration:
    def test_router_records_stages(self):
        netlist = toy_design(150, seed=5)
        prof = StageProfiler()
        grid = Grid2D(netlist.die, 16, 16)
        router = GlobalRouter(grid, RouterConfig(), profiler=prof)
        result = router.route(netlist)
        assert prof.counters["route.calls"] == 1
        assert prof.counters["route.segments"] == result.n_segments
        for stage in ("route.total", "route.initial", "route.rrr"):
            assert prof.stages[stage].calls >= 1
        # the stage clock covers real work
        assert prof.time_of("route.total") > 0.0
        assert np.isfinite(prof.total())


class TestExceptionSafety:
    def test_raising_stage_keeps_partial_breakdown(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError, match="boom"):
            with prof.timer("flaky"):
                raise RuntimeError("boom")
        assert prof.stages["flaky"].calls == 1
        assert prof.stages["flaky"].errors == 1
        assert prof.stages["flaky"].time >= 0.0
        assert prof.open_stages == []

    def test_nested_raise_closes_all_timers(self):
        prof = StageProfiler()
        with pytest.raises(ValueError):
            with prof.timer("outer"):
                with prof.timer("inner"):
                    assert prof.open_stages == ["outer", "inner"]
                    raise ValueError("inner died")
        assert prof.open_stages == []
        assert prof.stages["inner"].errors == 1
        assert prof.stages["outer"].errors == 1
        assert prof.stages["inner"].calls == 1
        assert prof.stages["outer"].calls == 1

    def test_open_stages_tracks_stack(self):
        prof = StageProfiler()
        with prof.timer("a"):
            with prof.timer("b"):
                assert prof.open_stages == ["a", "b"]
            assert prof.open_stages == ["a"]
        assert prof.open_stages == []

    def test_errors_survive_roundtrip_and_merge(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.timer("s"):
                raise RuntimeError
        back = StageProfiler.from_dict(prof.as_dict())
        assert back.stages["s"].errors == 1
        merged = StageProfiler().merge(back).merge(back)
        assert merged.stages["s"].errors == 2

    def test_report_marks_errors(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.timer("bad.stage"):
                raise RuntimeError
        assert "!1" in prof.report()

    def test_old_snapshots_still_load(self):
        back = StageProfiler.from_dict(
            {"stages": {"s": {"time_s": 1.0, "calls": 2}}, "counters": {}}
        )
        assert back.stages["s"].errors == 0
