"""StageProfiler behaviour: timers, nesting, errors, serialisation.

Timing assertions inject a :class:`~repro.utils.clock.FakeClock`
instead of sleeping, so they are exact and instantaneous.
"""

from __future__ import annotations

import pytest

from repro.geometry import Grid2D
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from repro.utils.clock import FakeClock, SystemClock
from repro.utils.profile import StageProfiler


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
        prof = StageProfiler(clock=clock)
        with prof.timer("s"):
            clock.advance(1.5)
        clock.advance(100.0)  # after the stage closed: no effect
        assert prof.stages["s"].time == pytest.approx(1.5)


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
        assert "missing" not in prof.stages

    def test_nested_timers_attribute_time_to_each_stage(self):
        clock = FakeClock()
        prof = StageProfiler(clock=clock)
        with prof.timer("outer"):
            clock.advance(1.0)
            with prof.timer("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        assert prof.stages["inner"].time == pytest.approx(2.0)
        assert prof.stages["outer"].time == pytest.approx(3.5)

    def test_timer_records_on_exception(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.timer("boom"):
                raise RuntimeError("x")
        assert prof.stages["boom"].calls == 1


class TestSerialise:
    def test_as_dict(self):
        clock = FakeClock()
        prof = StageProfiler(clock=clock)
        for _ in range(2):
            with prof.timer("route.total"):
                clock.advance(0.625)
        assert prof.as_dict() == {
            "stages": {"route.total": {"time_s": 1.25, "calls": 2, "errors": 0}},
        }

    def test_report_sorts_stages_by_time(self):
        prof = StageProfiler()
        prof.add_time("slow", 2.0)
        prof.add_time("fast", 0.5)
        text = prof.report("my title")
        lines = text.splitlines()
        assert lines[0] == "my title"
        # sorted by time descending
        assert lines[1].split()[0] == "slow"
        assert lines[2].split()[0] == "fast"
        assert len(lines) == 3

    def test_report_empty(self):
        assert "(no stages recorded)" in StageProfiler().report()


class TestRouterIntegration:
    def test_router_records_stages(self):
        netlist = toy_design(150, seed=5)
        prof = StageProfiler()
        grid = Grid2D(netlist.die, 16, 16)
        router = GlobalRouter(grid, RouterConfig(), profiler=prof)
        router.route(netlist)
        assert prof.stages["route.total"].calls == 1
        for stage in ("route.total", "route.initial", "route.rrr"):
            assert prof.stages[stage].calls >= 1
        # the stage clock covers real work
        assert prof.stages["route.total"].time > 0.0


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

    def test_errors_reach_as_dict(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.timer("s"):
                raise RuntimeError
        assert prof.as_dict()["stages"]["s"]["errors"] == 1

    def test_report_marks_errors(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.timer("bad.stage"):
                raise RuntimeError
        assert "!1" in prof.report()
