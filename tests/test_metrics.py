"""Metrics subsystem: registry, sinks, schema, report, CLI integration.

Covers the telemetry contract end to end: JSONL streaming, schema
validation (including multi-segment streams), report rendering,
the near-zero disabled-overhead guarantee (micro-benchmark) and a full
CLI ``place --routability --metrics-out`` run whose stream is
schema-checked.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.io import save_design
from repro.place.config import GPConfig
from repro.place.global_placer import GlobalPlacer
from repro.place.initial import initial_placement
from repro.synth import toy_design
from repro.utils import metrics as metrics_mod
from repro.utils.metrics import (
    EVENT_FIELDS,
    NULL,
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    MetricsError,
    MetricsRegistry,
    MetricsReport,
    NullMetrics,
    read_jsonl,
    validate_event,
    validate_stream,
)


def events_of(sink: MemorySink) -> list:
    return [json.loads(line) for line in sink.lines]


class TestSinks:
    def test_memory_sink_keeps_lines(self):
        sink = MemorySink()
        sink.write("a")
        sink.write("b")
        sink.flush()
        sink.close()
        assert sink.lines == ["a", "b"]

    def test_jsonl_sink_buffers_until_threshold(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink = JsonlSink(str(path), buffer_lines=3)
        sink.write("one")
        sink.write("two")
        assert path.read_text() == ""  # still buffered
        sink.write("three")  # hits the threshold
        assert path.read_text() == "one\ntwo\nthree\n"
        sink.write("four")
        sink.close()
        assert path.read_text() == "one\ntwo\nthree\nfour\n"

    def test_jsonl_sink_truncates_existing_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write("first")
        with JsonlSink(str(path)) as sink:
            sink.write("fresh")
        assert path.read_text() == "fresh\n"

    def test_jsonl_sink_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "m.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write("x")
        assert path.read_text() == "x\n"

    def test_jsonl_sink_rejects_bad_buffer(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "m.jsonl"), buffer_lines=0)

    def test_jsonl_sink_close_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "m.jsonl"))
        sink.close()
        sink.close()


class TestRegistry:
    def test_emit_envelope_and_seq(self):
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.start_run(design="d")
        m.emit("custom.kind", value=1)
        ev = events_of(sink)
        assert [e["seq"] for e in ev] == [0, 1]
        assert ev[0] == {"v": SCHEMA_VERSION, "seq": 0, "kind": "run.start",
                         "design": "d"}
        assert ev[1]["kind"] == "custom.kind" and ev[1]["value"] == 1

    def test_lazy_run_start(self):
        """Ad-hoc emit without start_run still yields a valid stream."""
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.emit("custom.kind", value=1)
        ev = events_of(sink)
        assert ev[0]["kind"] == "run.start" and ev[0]["seq"] == 0
        assert ev[1]["seq"] == 1
        validate_stream(ev)

    def test_start_run_resets_sequence(self):
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.start_run()
        m.emit("a.b", x=1)
        m.start_run(design="d2")
        m.emit("a.b", x=2)
        ev = events_of(sink)
        assert [e["seq"] for e in ev] == [0, 1, 0, 1]
        assert ev[2]["design"] == "d2"
        validate_stream(ev)

    def test_no_timestamp_by_default(self):
        m = MetricsRegistry(sink=MemorySink())
        assert "t" not in m.emit("a.b")

    def test_series_cap_bounds_memory_not_stream(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "MAX_SERIES", 3)
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.start_run()
        for k in range(10):
            m.emit("a.b", k=k)
        assert len(m.series["a.b"]) == 3
        assert len(sink.lines) == 11  # run.start + 10, all streamed

    def test_close_emits_bare_run_end(self):
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.start_run()
        m.emit("a.b", x=1)
        m.close()
        end = events_of(sink)[-1]
        assert end == {"v": SCHEMA_VERSION, "seq": 2, "kind": "run.end"}
        validate_stream(events_of(sink))
        # streams written when run.end carried aggregates still validate
        validate_event({**end, "counters": {"n": 4}, "gauges": {},
                        "histograms": {}})

    def test_close_idempotent_and_emit_after_close_raises(self):
        m = MetricsRegistry(sink=MemorySink())
        m.start_run()
        m.close()
        m.close()
        with pytest.raises(MetricsError):
            m.emit("a.b")

    def test_null_registry_is_inert(self):
        assert NULL.enabled is False
        assert isinstance(NULL, NullMetrics)
        # every operation is a no-op that returns None
        assert NULL.emit("gp.iter", anything=1) is None
        assert NULL.start_run() is None
        NULL.flush()
        NULL.close()
        NULL.emit("still.works.after.close")


class TestValidation:
    def test_validate_event_ok(self):
        validate_event({"v": 1, "seq": 0, "kind": "run.start"})
        validate_event({"v": 1, "seq": 3, "kind": "unknown.kind", "extra": 1})

    @pytest.mark.parametrize("event,match", [
        ("not a dict", "not an object"),
        ({"seq": 0, "kind": "x"}, "envelope"),
        ({"v": 99, "seq": 0, "kind": "x"}, "version"),
        ({"v": 1, "seq": -1, "kind": "x"}, "seq"),
        ({"v": 1, "seq": 0.5, "kind": "x"}, "seq"),
        ({"v": 1, "seq": 0, "kind": ""}, "kind"),
        ({"v": 1, "seq": 1, "kind": "gp.iter"}, "missing fields"),
    ])
    def test_validate_event_failures(self, event, match):
        with pytest.raises(MetricsError, match=match):
            validate_event(event)

    def test_known_kinds_require_their_fields(self):
        for kind, fields in EVENT_FIELDS.items():
            event = {"v": 1, "seq": 1, "kind": kind}
            event.update({f: 0 for f in fields})
            validate_event(event)
            if fields:
                incomplete = dict(event)
                del incomplete[fields[0]]
                with pytest.raises(MetricsError):
                    validate_event(incomplete)

    def test_validate_stream_rejects_empty(self):
        with pytest.raises(MetricsError, match="empty"):
            validate_stream([])

    def test_validate_stream_requires_run_start_first(self):
        with pytest.raises(MetricsError, match="begin with run.start"):
            validate_stream([{"v": 1, "seq": 0, "kind": "a.b"}])

    def test_validate_stream_rejects_seq_gap(self):
        events = [
            {"v": 1, "seq": 0, "kind": "run.start"},
            {"v": 1, "seq": 2, "kind": "a.b"},
        ]
        with pytest.raises(MetricsError, match="seq gap"):
            validate_stream(events)

    def test_validate_stream_accepts_appended_segments(self):
        events = [
            {"v": 1, "seq": 0, "kind": "run.start"},
            {"v": 1, "seq": 1, "kind": "a.b"},
            {"v": 1, "seq": 0, "kind": "run.start", "resumed": True},
            {"v": 1, "seq": 1, "kind": "a.b"},
            {"v": 1, "seq": 2, "kind": "a.b"},
        ]
        validate_stream(events)

    def test_validate_stream_rejects_misplaced_run_start(self):
        events = [
            {"v": 1, "seq": 0, "kind": "run.start"},
            {"v": 1, "seq": 1, "kind": "run.start"},
        ]
        with pytest.raises(MetricsError, match="run.start at seq"):
            validate_stream(events)


class TestJsonlRoundTrip:
    def test_registry_stream_reads_back(self, tmp_path):
        path = tmp_path / "m.jsonl"
        m = MetricsRegistry(sink=JsonlSink(str(path)))
        m.start_run(command="test")
        m.emit("a.b", x=1.5)
        m.close()
        events = read_jsonl(str(path))
        validate_stream(events)
        assert events[1]["x"] == 1.5

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"v":1,"seq":0,"kind":"run.start"}\n\n')
        assert len(read_jsonl(str(path))) == 1

    def test_read_jsonl_names_the_bad_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"v":1,"seq":0,"kind":"run.start"}\nnot json\n')
        with pytest.raises(MetricsError, match=r"m\.jsonl:2"):
            read_jsonl(str(path))


class TestReport:
    def _stream(self):
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.start_run(command="t")
        for k in range(4):
            m.emit("gp.iter", iter=k + 1, hpwl=100.0 - k, overflow=0.5,
                   density_weight=0.1, step=1.0, grad_norm=2.0)
        m.emit("rd.round", round=0, total_overflow=12.0)
        m.close()
        return events_of(sink)

    def test_as_dict_summarises_series(self):
        data = MetricsReport(events=self._stream()).as_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["segments"] == 1
        assert data["kinds"]["gp.iter"] == 4
        hpwl = data["series"]["gp.iter"]["hpwl"]
        assert hpwl == {"first": 100.0, "last": 97.0, "min": 97.0, "max": 100.0}
        # envelope keys and strings never appear as series
        assert "seq" not in data["series"]["gp.iter"]
        assert "command" not in data["series"].get("run.start", {})
        assert data["kinds"]["rd.round"] == 1
        assert data["series"]["rd.round"]["total_overflow"]["max"] == 12.0

    def test_from_registry_keeps_emission_order(self):
        """Two segments come back segment by segment, not merged by seq."""
        m = MetricsRegistry(sink=MemorySink())
        m.start_run()
        m.emit("a.b", x=1)
        m.start_run()
        m.emit("a.b", x=2)
        events = MetricsReport.from_registry(m).events
        assert [(e["kind"], e.get("x")) for e in events] == [
            ("run.start", None), ("a.b", 1), ("run.start", None), ("a.b", 2),
        ]
        validate_stream(events)
        assert MetricsReport.from_registry(m).as_dict()["series"]["a.b"]["x"][
            "last"
        ] == 2

    def test_render_mentions_kinds_and_aggregates(self):
        text = MetricsReport(events=self._stream()).render("title here")
        assert text.splitlines()[0] == "title here"
        assert "gp.iter" in text
        assert "hpwl" in text
        assert "rd.round.total_overflow" in text
        assert not any(ln.lstrip().startswith(("counter", "gauge", "hist"))
                       for ln in text.splitlines())

    def test_to_json_writes_payload(self, tmp_path):
        path = tmp_path / "report.json"
        payload = MetricsReport(events=self._stream()).to_json(str(path))
        assert json.loads(path.read_text()) == payload


class TestDisabledOverhead:
    def test_disabled_hot_loop_overhead_is_negligible(self):
        """With metrics disabled, the hot-loop guard costs ~one attribute
        read per iteration.

        The placer guards every emission with ``if metrics.enabled:``,
        so a disabled run must never pack kwargs or serialise JSON.  We
        time the exact guarded pattern against an empty loop; the bound
        is deliberately generous (10x + slack) so the assertion only
        fires on a real regression (e.g. someone making ``enabled`` a
        property doing work, or dropping the guard).
        """
        import timeit

        metrics = NULL
        n = 200_000

        def guarded():
            for _ in range(n):
                if metrics.enabled:
                    metrics.emit("gp.iter", iter=1, hpwl=0.0, overflow=0.0,
                                 density_weight=0.0, step=0.0, grad_norm=0.0)

        def bare():
            for _ in range(n):
                pass

        t_guard = min(timeit.repeat(guarded, number=1, repeat=3))
        t_bare = min(timeit.repeat(bare, number=1, repeat=3))
        # well under a microsecond per iteration, absolute backstop for
        # noisy CI machines where t_bare is tiny and the ratio unstable
        assert t_guard < max(10 * t_bare, 0.25), (
            f"disabled-metrics guard too slow: {t_guard:.4f}s for {n} iters "
            f"(bare loop {t_bare:.4f}s)"
        )

    def test_placer_without_metrics_uses_null(self, toy120):
        initial_placement(toy120, 0)
        placer = GlobalPlacer(toy120, GPConfig(max_iters=5))
        placer.run()
        assert placer.metrics is NULL


class TestFlowIntegration:
    def test_gp_emits_one_event_per_iteration(self, toy120):
        initial_placement(toy120, 0)
        sink = MemorySink()
        m = MetricsRegistry(sink=sink)
        m.start_run()
        placer = GlobalPlacer(toy120, GPConfig(max_iters=12), metrics=m)
        placer.run()
        m.close()
        events = events_of(sink)
        validate_stream(events)
        iters = [e for e in events if e["kind"] == "gp.iter"]
        assert len(iters) == len(placer.history)
        assert [e["iter"] for e in iters] == list(range(1, len(iters) + 1))
        assert all(e["hpwl"] > 0 for e in iters)

    def test_cli_place_routability_metrics_out(self, tmp_path):
        design = tmp_path / "toy.bl"
        out = tmp_path / "placed.bl"
        mpath = tmp_path / "metrics.jsonl"
        save_design(toy_design(90, seed=2), str(design))
        rc = cli_main([
            "place", str(design), "--routability", "--iters", "40",
            "--out", str(out), "--metrics-out", str(mpath),
        ])
        assert rc == 0
        events = read_jsonl(str(mpath))
        validate_stream(events)  # schema-checked end to end
        kinds = {e["kind"] for e in events}
        # the stream covers placer iterations, RD rounds and router passes
        assert {"run.start", "rd.start", "gp.iter", "rd.round",
                "route.pass", "run.end"} <= kinds
        start = events[0]
        assert start["kind"] == "run.start"
        assert start["command"] == "place" and "resumed" not in start
        rounds = [e for e in events if e["kind"] == "rd.round"]
        assert [e["round"] for e in rounds] == list(range(len(rounds)))
        for e in rounds:  # every schema field present and finite
            for name in EVENT_FIELDS["rd.round"]:
                assert name in e
        passes = [e for e in events if e["kind"] == "route.pass"]
        # streams written before the engine field was retired validate
        validate_event({**passes[0], "engine": "scalar"})
        assert all(e["h_cap"] > 0 and e["v_cap"] > 0 for e in passes)
        end = events[-1]
        assert end["kind"] == "run.end"
        kinds = MetricsReport(events=events).as_dict()["kinds"]
        assert kinds["rd.round"] == len(rounds)
        assert kinds["route.pass"] == len(passes)
        assert all(e["n_rerouted"] >= 0 for e in passes)

    def test_cli_route_metrics_out(self, tmp_path):
        design = tmp_path / "toy.bl"
        mpath = tmp_path / "metrics.jsonl"
        save_design(toy_design(90, seed=2), str(design))
        assert cli_main([
            "route", str(design), "--metrics-out", str(mpath),
        ]) == 0
        events = read_jsonl(str(mpath))
        validate_stream(events)
        assert any(e["kind"] == "route.pass" for e in events)

    def test_cli_gp_iter_rows_carry_gamma(self, tmp_path):
        """Every ``gp.iter`` row records the WA gamma that
        ``update_gamma`` just set from that iteration's overflow."""
        design = tmp_path / "toy.bl"
        mpath = tmp_path / "metrics.jsonl"
        save_design(toy_design(90, seed=2), str(design))
        assert cli_main([
            "place", str(design), "--iters", "40",
            "--out", str(tmp_path / "p.bl"), "--metrics-out", str(mpath),
        ]) == 0
        rows = [e for e in read_jsonl(str(mpath)) if e["kind"] == "gp.iter"]
        assert rows
        gamma = np.array([e["gamma"] for e in rows])
        assert np.isfinite(gamma).all() and (gamma > 0).all()
        # gamma = c * 10**(20/9 * clip(overflow, 0, 1)) with one constant c
        # for the whole run (same die, same bin grid)
        overflow = np.clip([e["overflow"] for e in rows], 0.0, 1.0)
        scale = gamma / 10.0 ** (20.0 / 9.0 * overflow)
        np.testing.assert_allclose(scale, scale[0], rtol=1e-12)
        # optional: rows recorded before the field existed still validate
        assert "gamma" not in EVENT_FIELDS["gp.iter"]
        validate_event({k: v for k, v in rows[0].items() if k != "gamma"})

    def test_cli_rerun_rewrites_snapshot_and_stream(self, tmp_path, capsys):
        """``--checkpoint`` is write-only: a second run with the same
        file starts over, writes a byte-identical snapshot and a fresh
        one-segment stream."""
        design = tmp_path / "toy.bl"
        ckpt = tmp_path / "flow.npz"
        mpath = tmp_path / "metrics.jsonl"
        save_design(toy_design(90, seed=2), str(design))
        args = ["place", str(design), "--routability", "--iters", "30",
                "--out", str(tmp_path / "p.bl"),
                "--checkpoint", str(ckpt), "--metrics-out", str(mpath)]
        assert cli_main(args) == 0
        first_ckpt = ckpt.read_bytes()
        first_stream = mpath.read_bytes()
        capsys.readouterr()
        assert cli_main(args) == 0
        assert "resumed" not in capsys.readouterr().out
        assert ckpt.read_bytes() == first_ckpt
        assert mpath.read_bytes() == first_stream
        events = read_jsonl(str(mpath))
        validate_stream(events)
        assert [e["kind"] for e in events].count("run.start") == 1
        assert not any(e["kind"] == "rd.resume" for e in events)


class TestBenchTelemetry:
    def test_bench_payload_embeds_report(self):
        from repro.bench.harness import bench_payload

        m = MetricsRegistry(sink=MemorySink())
        m.start_run()
        m.emit("a.b", x=1)
        payload = bench_payload([], metrics=m)
        assert payload["telemetry"]["kinds"]["a.b"] == 1
        assert "telemetry" not in bench_payload([], metrics=None)
        assert "telemetry" not in bench_payload([], metrics=NULL)


class TestAbortFlush:
    """SIGTERM/atexit flushing keeps a killed run's stream valid."""

    def _registry(self, tmp_path):
        from repro.utils.metrics import install_abort_flush

        path = str(tmp_path / "m.jsonl")
        m = MetricsRegistry(sink=JsonlSink(path))
        m.start_run(command="test")
        m.emit("gp.guard", iter=1, guard="g", detail="d")
        return m, install_abort_flush(m), path

    def test_sigterm_writes_aborted_marker_and_exits(self, tmp_path):
        import signal

        m, abort, path = self._registry(tmp_path)
        try:
            with pytest.raises(SystemExit) as excinfo:
                abort._signal_hook(signal.SIGTERM, None)
            assert excinfo.value.code == 128 + signal.SIGTERM
            events = read_jsonl(path)
            validate_stream(events)
            assert events[-1]["kind"] == "run.aborted"
            assert events[-1]["reason"] == "signal:sigterm"
        finally:
            abort.uninstall()

    def test_aborted_event_carries_open_stages(self, tmp_path):
        import signal

        from repro.utils.metrics import install_abort_flush
        from repro.utils.profile import StageProfiler

        path = str(tmp_path / "m.jsonl")
        profiler = StageProfiler()
        m = MetricsRegistry(sink=JsonlSink(path))
        m.start_run(command="test")
        abort = install_abort_flush(m, profiler=profiler)
        try:
            profiler.open_stages.append("rd.route")
            with pytest.raises(SystemExit):
                abort._signal_hook(signal.SIGTERM, None)
            events = read_jsonl(path)
            assert events[-1]["open_stages"] == ["rd.route"]
        finally:
            abort.uninstall()

    def test_atexit_hook_flushes_unclosed_registry(self, tmp_path):
        m, abort, path = self._registry(tmp_path)
        try:
            abort._atexit_hook()
            events = read_jsonl(path)
            validate_stream(events)
            assert events[-1]["kind"] == "run.aborted"
            assert events[-1]["reason"] == "exit-without-close"
        finally:
            abort.uninstall()

    def test_noop_after_normal_close(self, tmp_path):
        m, abort, path = self._registry(tmp_path)
        m.close()
        abort.uninstall()
        assert abort.trigger("too-late") is False
        events = read_jsonl(path)
        validate_stream(events)
        assert events[-1]["kind"] == "run.end"
        assert all(e["kind"] != "run.aborted" for e in events)

    def test_fires_at_most_once(self, tmp_path):
        m, abort, path = self._registry(tmp_path)
        try:
            assert abort.trigger("first") is True
            assert abort.trigger("second") is False
            events = read_jsonl(path)
            aborted = [e for e in events if e["kind"] == "run.aborted"]
            assert [e["reason"] for e in aborted] == ["first"]
        finally:
            abort.uninstall()

    def test_install_uninstall_restores_handler(self):
        import signal

        from repro.utils.metrics import AbortFlush

        m = MetricsRegistry(sink=MemorySink())
        m.start_run()
        before = signal.getsignal(signal.SIGTERM)
        abort = AbortFlush(m).install()
        assert signal.getsignal(signal.SIGTERM) == abort._signal_hook
        abort.uninstall()
        assert signal.getsignal(signal.SIGTERM) == before
