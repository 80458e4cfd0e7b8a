"""End-to-end sweep runs: determinism, the unit pool, isolation, CLI."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench.harness import ABLATION_ROWS, table_spec
from repro.cli import main
from repro.dse.grid import DseUnit, make_units, parse_spec
from repro.dse.runner import _run_pool, run_grid, run_unit
from repro.dse.store import RunDB
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


def unknown_design_unit(index: int = 0) -> DseUnit:
    """A unit naming no suite design: its flow raises at once."""
    return DseUnit(unit_id=f"bad:p000:no_such_design{index}", index=index,
                   point=0, design=f"no_such_design{index}", knobs={},
                   scale=0.1, seed=0, placers=("Xplace",))


def exit_on_second_unit(unit: DseUnit) -> dict:
    """Pool body whose second unit's process dies without a result."""
    if unit.index == 1:
        os._exit(3)
    return run_unit(unit)


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
        pooled = run_grid(parse_spec(RAW), jobs=2)
        assert comparable_rows(pooled.payloads) == \
            comparable_rows(result.payloads)
        assert {e["kind"] for e in pooled.events} == \
            {"run.start", "dse.sweep", "dse.shard", "run.end"}

    def test_jobs1_and_jobs2_dumps_differ_only_in_wall_clock(
            self, inprocess_result, tmp_path):
        """Same rows, same order; only elapsed_s and PT/RT values differ."""
        _, out = inprocess_result
        run_grid(parse_spec(RAW), jobs=2, db_path=tmp_path / "db.sqlite")
        with RunDB(out / "db.sqlite") as db:
            seq = db.dump()
        with RunDB(tmp_path / "db.sqlite") as db:
            pooled = db.dump()
        assert seq.keys() == pooled.keys()
        assert len(seq["units"]) == 2 and seq["metrics"]
        for table, rows in seq.items():
            assert len(rows) == len(pooled[table]), table
            for a, b in zip(rows, pooled[table]):
                assert a.keys() == b.keys()
                diff = {k for k in a if a[k] != b[k]}
                if table == "metrics" and a["name"] in TIME_METRICS:
                    assert diff <= {"value"}
                elif table == "units":
                    assert diff <= {"elapsed_s"}
                else:
                    assert not diff, (table, a, b)

    def test_failed_unit_is_captured_not_raised(self):
        spec = dataclasses.replace(parse_spec({**RAW, "grid": {}}),
                                   designs=("no_such_design",))
        result = run_grid(spec, jobs=1)
        assert len(result.errors) == 1
        assert "unknown suite design" in result.errors[0][1]
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
        assert not any({"attempts", "job_state"} & set(p)
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


#: The three-design sweep with its middle design replaced by one that
#: names no suite design, so that unit's flow raises.
FAULTED = ["des_perf_1", "no_such_design", "des_perf_b"]


@pytest.fixture(scope="module")
def pooled_sweep():
    """One pooled sweep whose middle unit raises.

    Module-scoped: the pool spin-up and two placements are the
    expensive part, and every assertion below reads the same result.
    """
    spec = dataclasses.replace(sweep_spec(), designs=tuple(FAULTED))
    return run_grid(spec, jobs=2)


class TestPoolIsolation:
    def test_results_stay_in_input_order(self, pooled_sweep):
        assert [p["design"] for p in pooled_sweep.payloads] == FAULTED
        assert [p["unit_index"] for p in pooled_sweep.payloads] == [0, 1, 2]

    def test_faulted_design_reports_error_entry(self, pooled_sweep):
        [(unit_id, error)] = pooled_sweep.errors
        assert unit_id == "sweep:p000:no_such_design"
        assert "unknown suite design" in error
        failed = pooled_sweep.payloads[1]
        assert failed["rows"] == []

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
        assert [seg[0]["design"] for seg in segs] == FAULTED
        # the faulted design still contributes a well-formed (short)
        # segment: run.start then run.end, nothing in between
        assert [e["kind"] for e in segs[1]] == ["run.start", "run.end"]


class TestUnitPool:
    """One process per unit: a dead or raising unit is one error payload."""

    def test_dead_unit_reports_exit_code_others_finish_in_order(self):
        units = make_units(sweep_spec())
        payloads = _run_pool(exit_on_second_unit, units, jobs=2)
        assert [p["design"] for p in payloads] == DESIGNS
        assert [p["unit_index"] for p in payloads] == [0, 1, 2]
        dead = payloads[1]
        assert "exited with code 3" in dead["error"]
        assert dead["rows"] == [] and dead["events"] == []
        for payload in (payloads[0], payloads[2]):
            assert payload["error"] is None and payload["rows"]
            validate_stream(payload["events"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_unit_gives_error_payload(self, jobs):
        units = [unknown_design_unit(0), unknown_design_unit(1)]
        if jobs == 1:
            payloads = [run_unit(unit) for unit in units]
        else:
            payloads = _run_pool(run_unit, units, jobs)
        assert [p["design"] for p in payloads] == \
            ["no_such_design0", "no_such_design1"]
        for payload in payloads:
            assert "unknown suite design" in payload["error"]
            assert payload["rows"] == []
            assert [e["kind"] for e in payload["events"]] == \
                ["run.start", "run.end"]


class TestSupervisedIdentity:
    """The unit pool changes *where* units run, never the output."""

    def test_no_fault_sweep_matches_in_process_bit_for_bit(self):
        seq = run_grid(sweep_spec(DESIGNS[:2]), jobs=1)
        pooled = run_grid(sweep_spec(DESIGNS[:2]), jobs=2)
        # per-unit telemetry: bit-identical
        assert seq.unit_events == pooled.unit_events
        # rows: identical up to wall-clock timings
        assert comparable_rows(seq.payloads) == comparable_rows(pooled.payloads)
        # the sweep-level stream is the same dse.* segment either way
        assert seq.events == pooled.events
        validate_stream(pooled.events)


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
        assert set(payload) == {"kind", "jobs", "elapsed_s", "rows", "errors"}
        assert payload["kind"] == "table2" and payload["errors"] == []
        assert [r["placer"] for r in payload["rows"]] == ABLATION_LABELS

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
