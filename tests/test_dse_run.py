"""End-to-end sweep runs: determinism, supervision, isolation, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import ABLATION_ROWS, table_spec
from repro.cli import main
from repro.dse.grid import make_units, parse_spec
from repro.dse.runner import run_grid, run_unit
from repro.dse.store import RunDB
from repro.utils.faults import FaultPlan
from repro.utils.metrics import read_jsonl, validate_stream

#: Minutes-not-hours settings: one tiny design, short flows.
RAW = {
    "name": "e2e",
    "designs": ["des_perf_1"],
    "grid": {"inflation.alpha": [0.2, 0.6]},
    "paired": {"rd.max_rounds": [1], "rd.iters_per_round": [10],
               "gp.max_iters": [20]},
    "scale": 0.1,
    "placers": ["Xplace"],
}

TIME_METRICS = {"PT", "RT"}

#: Table-I-shaped sweep: one knob point, one short flow per design.
SWEEP = {
    "name": "sweep",
    "designs": ["des_perf_1", "des_perf_a", "des_perf_b"],
    "paired": {"gp.max_iters": [20]},
    "scale": 0.12,
    "placers": ["Xplace"],
}
DESIGNS = SWEEP["designs"]
ABLATION_LABELS = [label for label, _ in ABLATION_ROWS]


def sweep_spec(designs=DESIGNS):
    """The three-design sweep, or a prefix of it."""
    return parse_spec({**SWEEP, "designs": list(designs)})


def segments(events: list, kind: str = "run.start") -> list:
    """Split a stream at each ``kind`` event (events before the first
    one are dropped); each segment starts with its opening event."""
    out: list = []
    for event in events:
        if event["kind"] == kind:
            out.append([])
        if out:
            out[-1].append(event)
    return out


def comparable_rows(payloads: list) -> list:
    """Unit rows with wall-clock metrics stripped (determinism compares)."""
    return [
        {
            "unit_id": p["unit_id"],
            "error": p["error"],
            "rows": [
                {"design": r["design"], "placer": r["placer"],
                 "metrics": {k: v for k, v in r["metrics"].items()
                             if k not in TIME_METRICS}}
                for r in p["rows"]
            ],
        }
        for p in payloads
    ]


@pytest.fixture(scope="module")
def inprocess_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("dse_run")
    spec = parse_spec(RAW)
    return run_grid(spec, jobs=1, out_dir=out / "out", db_path=out / "db.sqlite"), out


class TestRunGrid:
    def test_no_errors_and_outputs_written(self, inprocess_result):
        result, out = inprocess_result
        assert result.errors == []
        assert (out / "out" / "manifest.json").exists()
        assert (out / "out" / "sweep.jsonl").exists()
        assert len(list((out / "out" / "units").glob("*.json"))) == 2

    def test_sweep_events_emitted(self, inprocess_result):
        result, _ = inprocess_result
        kinds = [e["kind"] for e in result.events]
        assert kinds.count("dse.sweep") == 1
        assert kinds.count("dse.shard") == 2

    def test_db_ingested_deterministically(self, inprocess_result, tmp_path):
        result, out = inprocess_result
        again = run_grid(parse_spec(RAW), jobs=1, db_path=tmp_path / "db.sqlite")
        assert comparable_rows(result.payloads) == comparable_rows(again.payloads)
        with RunDB(out / "db.sqlite") as db:
            assert db.summary()["counts"]["units"] == 2
            trend = db.trend("inflation.alpha", "DRWL")
            assert [t["value"] for t in trend] == [0.2, 0.6]

    def test_supervised_matches_inprocess(self, inprocess_result):
        result, _ = inprocess_result
        supervised = run_grid(parse_spec(RAW), jobs=2)
        assert comparable_rows(supervised.payloads) == \
            comparable_rows(result.payloads)
        kinds = {e["kind"] for e in supervised.events}
        assert {"dse.sweep", "dse.shard", "job.submit", "job.end"} <= kinds

    def test_failed_unit_is_captured_not_raised(self):
        spec = parse_spec({**RAW, "grid": {}})
        result = run_grid(spec, jobs=1, fault_plans=(
            FaultPlan("bench.design.des_perf_1", mode="raise"),))
        assert len(result.errors) == 1
        assert "InjectedFault" in result.errors[0][1]
        assert result.payloads[0]["rows"] == []

    def test_run_unit_respects_knobs(self, inprocess_result):
        result, _ = inprocess_result
        payload = run_unit(result.units[0])
        assert payload["knobs"]["inflation.alpha"] == 0.2
        assert payload["rows"] and payload["error"] is None


class TestSequentialSweep:
    def test_rows_and_order(self):
        result = run_grid(sweep_spec(DESIGNS[:2]), jobs=1)
        assert [p["design"] for p in result.payloads] == DESIGNS[:2]
        assert result.errors == []
        assert [row["design"] for row in result.rows] == DESIGNS[:2]
        assert all(row["placer"] == "Xplace" for row in result.rows)
        assert all({"DRWL", "#DRVias", "#DRVs", "PT", "RT"} <= set(row["metrics"])
                   for row in result.rows)
        assert all(p["attempts"] == 1 and p["job_state"] is None
                   for p in result.payloads)

    def test_merged_stream_is_schema_valid(self):
        events = run_grid(sweep_spec(DESIGNS[:2]), jobs=1).unit_events
        validate_stream(events)
        # one segment per design, opened in unit order
        starts = [e for e in events if e["kind"] == "run.start"]
        assert [s["design"] for s in starts] == DESIGNS[:2]
        assert [s["shard"] for s in starts] == [0, 1]

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            table_spec(3)
        with pytest.raises(ValueError, match="unknown design"):
            table_spec(1, ["no_such_design"])


@pytest.fixture(scope="module")
def pooled_sweep():
    """One pooled sweep with a fault injected into the middle design.

    Module-scoped: the pool spin-up and three placements are the
    expensive part, and every assertion below reads the same result.
    """
    return run_grid(sweep_spec(), jobs=2, fault_plans=(
        FaultPlan("bench.design.des_perf_a", mode="raise"),))


@pytest.mark.faultinject
class TestPoolIsolation:
    def test_results_stay_in_input_order(self, pooled_sweep):
        assert [p["design"] for p in pooled_sweep.payloads] == DESIGNS
        assert [p["unit_index"] for p in pooled_sweep.payloads] == [0, 1, 2]

    def test_faulted_design_reports_error_entry(self, pooled_sweep):
        [(unit_id, error)] = pooled_sweep.errors
        assert unit_id == "sweep:p000:des_perf_a"
        assert "InjectedFault" in error
        failed = pooled_sweep.payloads[1]
        assert failed["rows"] == []
        # an exception is terminal: one attempt, the job itself is done
        assert failed["attempts"] == 1 and failed["job_state"] == "done"

    def test_surviving_designs_complete(self, pooled_sweep):
        ok = [p for p in pooled_sweep.payloads if not p["error"]]
        assert [p["design"] for p in ok] == ["des_perf_1", "des_perf_b"]
        assert [row["design"] for row in pooled_sweep.rows] == \
            ["des_perf_1", "des_perf_b"]

    def test_merged_metrics_ordering_across_workers(self, pooled_sweep):
        """Segments land in unit order even with jobs=2 racing."""
        events = pooled_sweep.unit_events
        validate_stream(events)
        segs = segments(events)
        assert [seg[0]["design"] for seg in segs] == DESIGNS
        # the faulted design still contributes a well-formed (short)
        # segment: run.start then run.end, nothing in between
        assert [e["kind"] for e in segs[1]] == ["run.start", "run.end"]


class TestSupervisedIdentity:
    """The supervised pool changes *where* units run, never the output."""

    def test_no_fault_sweep_matches_in_process_bit_for_bit(self):
        seq = run_grid(sweep_spec(DESIGNS[:2]), jobs=1)
        sup = run_grid(sweep_spec(DESIGNS[:2]), jobs=2)
        # per-unit telemetry: bit-identical
        assert seq.unit_events == sup.unit_events
        # rows: identical up to wall-clock timings
        assert comparable_rows(seq.payloads) == comparable_rows(sup.payloads)
        # supervisor lifecycle telemetry stays in the sweep-level stream
        assert not any(e["kind"].startswith("job.") for e in seq.events)
        assert not any(e["kind"].startswith("job.") for e in sup.unit_events)
        kinds = {e["kind"] for e in sup.events}
        assert {"job.submit", "job.start", "job.end"} <= kinds
        validate_stream(sup.events)
        assert all(p["job_state"] == "done" and p["attempts"] == 1
                   for p in sup.payloads)


@pytest.mark.faultinject
class TestInProcessFaults:
    def test_jobs1_fault_is_isolated_and_uninstalled(self):
        """The in-process path installs/uninstalls the injector cleanly."""
        from repro.utils import faults

        [unit] = make_units(sweep_spec(DESIGNS[:1]))
        payload = run_unit(unit, fault_plans=(
            FaultPlan("bench.design.des_perf_1", mode="raise"),))
        assert payload["error"] and "InjectedFault" in payload["error"]
        assert faults.active() is None
        validate_stream(payload["events"])


class TestTables:
    """Tables I and II are grid specs on the same runner."""

    def test_table_specs(self):
        t1 = table_spec(1)
        assert t1.placers == ("Xplace", "Xplace-Route", "Ours")
        assert len(t1.designs) == 20 and t1.grid == {} and t1.paired == {}
        t2 = table_spec(2, ["fft_1"], scale=0.5, seed=3)
        assert list(t2.placers) == ABLATION_LABELS
        assert (t2.designs, t2.scale, t2.seed) == (("fft_1",), 0.5, 3)
        assert len(table_spec(2).designs) == 8

    def test_bench_table2_emits_flow_telemetry(self, tmp_path, capsys):
        out = tmp_path / "t2.json"
        stream = tmp_path / "nested" / "t2.jsonl"
        assert main(["bench", "--table", "2", "--designs", "des_perf_1",
                     "--scale", "0.1", "--out", str(out),
                     "--metrics-out", str(stream)]) == 0
        assert "1 designs, jobs=1, 0 failed" in capsys.readouterr().out
        events = read_jsonl(str(stream))
        validate_stream(events)
        kinds = [e["kind"] for e in events]
        assert kinds.count("rd.start") == len(ABLATION_LABELS)
        assert "gp.iter" in kinds
        payload = json.loads(out.read_text())
        assert {"kind", "jobs", "elapsed_s", "rows", "errors",
                "supervisor"} <= set(payload)
        assert payload["kind"] == "table2" and payload["errors"] == []
        assert [r["placer"] for r in payload["rows"]] == ABLATION_LABELS
        assert payload["supervisor"]["designs"] == [
            {"design": "des_perf_1", "attempts": 1, "job_state": None}]

    def test_table2_payload_ingests_rounds(self):
        [unit] = make_units(table_spec(2, ["des_perf_1"], scale=0.1))
        payload = run_unit(unit)
        assert payload["error"] is None
        flows = [[e for e in seg if e["kind"] == "rd.round"]
                 for seg in segments(payload["events"], "rd.start")]
        assert len(flows) == len(ABLATION_LABELS)
        assert all(flows)
        with RunDB() as db:
            db.ingest_unit_payload(payload)
            for flow, rounds in enumerate(flows):
                stored = db.unit_rounds(unit.unit_id, flow)
                assert [r["round"] for r in stored] == \
                    [e["round"] for e in rounds]


class TestCli:
    def test_run_query_report_round_trip(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(RAW))
        db = tmp_path / "runs.sqlite"
        assert main(["dse", "run", "--grid", str(grid), "--jobs", "1",
                     "--out-dir", str(tmp_path / "out"),
                     "--db", str(db)]) == 0
        assert main(["dse", "query", "summary", "--db", str(db)]) == 0
        assert '"units": 2' in capsys.readouterr().out
        assert main(["dse", "query", "trend", "--db", str(db),
                     "--knob", "inflation.alpha", "--metric", "DRWL"]) == 0
        assert main(["dse", "ingest", "--db", str(db),
                     str(tmp_path / "out"),
                     "--metrics-out", str(tmp_path / "ingest.jsonl")]) == 0
        lines = (tmp_path / "ingest.jsonl").read_text().splitlines()
        assert any('"kind": "dse.ingest"' in ln or '"kind":"dse.ingest"' in ln
                   for ln in lines)
        assert main(["dse", "report", "--db", str(db),
                     "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "index.html").exists()
