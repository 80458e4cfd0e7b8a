"""End-to-end sweep runs: determinism, supervision, CLI, service overrides."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dse.grid import parse_spec
from repro.dse.runner import run_grid, run_unit
from repro.dse.store import RunDB

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
        spec = parse_spec({**RAW, "grid": {}, "paired": {},
                           "placers": ["NoSuchPlacer"]})
        result = run_grid(spec, jobs=1)
        assert len(result.errors) == 1
        assert "NoSuchPlacer" in result.errors[0][1]

    def test_run_unit_respects_knobs(self, inprocess_result):
        result, _ = inprocess_result
        payload = run_unit(result.units[0])
        assert payload["knobs"]["inflation.alpha"] == 0.2
        assert payload["rows"] and payload["error"] is None


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


class TestServiceOverrides:
    def test_payload_validation_accepts_known_knobs(self):
        from repro.service.runner import validate_job_payload

        payload = {"kind": "place", "request": {
            "input": "x.bl", "routability": True,
            "overrides": {"inflation.alpha": 0.3}}}
        assert validate_job_payload(payload) == "place"

    @pytest.mark.parametrize("kind,request_extra,match", [
        ("place", {"overrides": {"bogus.knob": 1}}, "bad 'overrides'"),
        # the kernel-backend knob and request field no longer exist
        ("place", {"overrides": {"kernel.backend": "fastnp"}},
         "unknown knob 'kernel.backend'"),
        ("place", {"kernel_backend": "fastnp"},
         "unknown request field.*kernel_backend"),
        ("route", {"kernel_backend": "fastnp"},
         "unknown request field.*kernel_backend"),
        ("eco", {"baseline": "b.bl", "kernel_backend": "fastnp"},
         "unknown request field.*kernel_backend"),
        # neither does the routing-engine field nor its knob
        ("route", {"engine": "scalar"}, "unknown request field.*engine"),
        ("place", {"overrides": {"router.engine": "scalar"}},
         "unknown knob 'router.engine'"),
    ])
    def test_payload_validation_rejects_unknown_knobs(
        self, kind, request_extra, match
    ):
        from repro.service.runner import validate_job_payload

        payload = {"kind": kind, "request": {"input": "x.bl", **request_extra}}
        with pytest.raises(ValueError, match=match):
            validate_job_payload(payload)

    def test_place_request_applies_overrides(self, tmp_path):
        from repro.io.bookshelf import save_design
        from repro.service.runner import PlaceRequest, run_place_job
        from repro.synth.suite import suite_design

        design = tmp_path / "tiny.bl"
        save_design(suite_design("des_perf_1", scale=0.1, seed=0), str(design))
        req = PlaceRequest(
            input=str(design), out=str(tmp_path / "placed.bl"),
            routability=True, iters=20, rounds=1, iters_per_round=10,
            overrides={"inflation.alpha": 0.3, "rd.iters_per_round": 5},
        )
        outcome = run_place_job(req)
        assert outcome.n_rounds >= 1
        assert (tmp_path / "placed.bl").exists()
