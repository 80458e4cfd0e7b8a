"""CLI conformance: crossing the process boundary must not change a byte.

``repro place/route/eco`` are thin wrappers over
:mod:`repro.run`.  Each test runs the command as a real subprocess
(its own interpreter, the way a user's shell invokes it) and the
matching ``run_*_job`` in-process on the same input, then compares
every output file byte for byte: placed positions, the metrics
stream, and the checkpoint with its ``.bak`` predecessor.

The second half pins the surface the placement daemon and the
supervised job runtime left behind: their commands, options and
modules are gone, and streams recorded while they existed still read.
Their keyword options are rejected in
``test_kernel_backends.py::test_removed_keywords_rejected``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.io import save_design
from repro.io.bookshelf import loads_design
from repro.run import (
    EcoRequest,
    PlaceRequest,
    RouteRequest,
    run_eco_job,
    run_place_job,
    run_route_job,
)
from repro.synth import SynthConfig, generate_design
from repro.utils.checkpoint import backup_path
from repro.utils.metrics import read_jsonl, validate_stream

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A short routability flow: two rounds, so the checkpoint is written
#: twice and a ``.bak`` predecessor exists to compare.
FLOW = dict(iters=40, rounds=2, iters_per_round=10)


def make_design(path: Path, n_cells: int = 300, seed: int = 1) -> str:
    """Write a congested synthetic design; returns its absolute path."""
    netlist = generate_design(SynthConfig(
        name="toy", n_cells=n_cells, seed=seed,
        utilization=0.75, nets_per_cell=1.6,
    ))
    save_design(netlist, str(path))
    return os.path.abspath(path)


def run_cli(args, cwd: Path) -> None:
    """Run ``python -m repro <args>`` as a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *map(str, args)],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (
        f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
    )


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def dirs(tmp_path: Path) -> tuple:
    cli, api = tmp_path / "cli", tmp_path / "api"
    cli.mkdir()
    api.mkdir()
    return cli, api


class TestCliConformance:
    def test_place_bytes_match_in_process(self, tmp_path):
        design = make_design(tmp_path / "design.bl")
        cli, api = dirs(tmp_path)
        run_cli(
            ["place", design, "--routability", "--iters", FLOW["iters"],
             "--rounds", FLOW["rounds"],
             "--iters-per-round", FLOW["iters_per_round"],
             "--out", cli / "placed.bl", "--checkpoint", cli / "flow.npz",
             "--metrics-out", cli / "metrics.jsonl"],
            cwd=cli,
        )
        outcome = run_place_job(PlaceRequest(
            input=design, out=str(api / "placed.bl"), routability=True,
            checkpoint=str(api / "flow.npz"),
            metrics_out=str(api / "metrics.jsonl"), **FLOW,
        ))
        assert outcome.n_rounds == FLOW["rounds"]
        for name in ("placed.bl", "metrics.jsonl", "flow.npz"):
            assert read(api / name) == read(cli / name), name
        assert read(backup_path(str(api / "flow.npz"))) == read(
            backup_path(str(cli / "flow.npz"))
        )
        validate_stream(read_jsonl(str(api / "metrics.jsonl")))

    def test_route_stream_matches_in_process(self, tmp_path):
        design = make_design(tmp_path / "design.bl", n_cells=110, seed=5)
        cli, api = dirs(tmp_path)
        run_cli(["route", design, "--metrics-out", cli / "metrics.jsonl"],
                cwd=cli)
        outcome = run_route_job(RouteRequest(
            input=design, metrics_out=str(api / "metrics.jsonl"),
        ))
        assert outcome.n_segments > 0
        assert read(api / "metrics.jsonl") == read(cli / "metrics.jsonl")

    def test_eco_bytes_match_in_process(self, tmp_path):
        design = make_design(tmp_path / "design.bl", n_cells=150, seed=2)
        base = tmp_path / "base.bl"
        run_place_job(PlaceRequest(input=design, out=str(base), iters=60))
        baseline = loads_design(base.read_text())
        cell = next(
            name for name, fixed in zip(baseline.cell_names, baseline.cell_fixed)
            if not fixed
        )
        lines = []
        for line in base.read_text().splitlines():
            parts = line.split()
            if parts[:2] == ["cell", cell]:
                parts[2] = repr(float(parts[2]) * 1.5)
                line = " ".join(parts)
            lines.append(line)
        edited = tmp_path / "edited.bl"
        edited.write_text("\n".join(lines) + "\n")

        cli, api = dirs(tmp_path)
        run_cli(
            ["eco", base, edited, "--rounds", 1, "--iters-per-round", 10,
             "--out", cli / "eco.bl", "--metrics-out", cli / "metrics.jsonl"],
            cwd=cli,
        )
        outcome = run_eco_job(EcoRequest(
            input=str(edited), baseline=str(base), out=str(api / "eco.bl"),
            rounds=1, iters_per_round=10,
            metrics_out=str(api / "metrics.jsonl"),
        ))
        assert outcome.n_edits == 1
        for name in ("eco.bl", "metrics.jsonl"):
            assert read(api / name) == read(cli / name), name


class TestRemovedDaemonSurface:
    @pytest.mark.parametrize("argv", [
        pytest.param(["serve", "--root", "r"], id="serve"),
        pytest.param(["submit", "d.bl", "--root", "r"], id="submit"),
        pytest.param(["status", "--root", "r"], id="status"),
        pytest.param(["cancel", "--root", "r", "job"], id="cancel"),
        pytest.param(["dse", "submit", "--grid", "g.json", "--root", "r"],
                     id="dse-submit"),
    ])
    def test_parser_rejects_daemon_commands(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_service_package_is_gone(self):
        with pytest.raises(ImportError):
            __import__("repro.service")

    def test_daemon_era_stream_still_validates_and_ingests(self, tmp_path):
        """``service.*``, ``job.queued`` and ``job.cancel`` are unknown
        kinds now; a stream carrying them validates and ingests."""
        from repro.dse.store import RunDB
        from repro.utils.metrics import EVENT_FIELDS

        kinds = ("service.start", "service.recover", "job.queued",
                 "job.cancel", "service.stop")
        assert not set(kinds) & set(EVENT_FIELDS)
        events = [{"v": 2, "seq": 0, "kind": "run.start", "sweep": "old"}]
        events += [
            {"v": 2, "seq": k, "kind": kind, "job": f"j{k}"}
            for k, kind in enumerate(kinds, start=1)
        ]
        validate_stream(events)
        path = tmp_path / "service.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with RunDB(str(tmp_path / "runs.sqlite")) as db:
            assert db.ingest_jsonl(path)
            rows = db.conn.execute(
                "SELECT kind FROM supervisor_events ORDER BY seq"
            ).fetchall()
        assert [r[0] for r in rows] == list(kinds)


class TestRemovedJobRuntime:
    @pytest.mark.parametrize("argv", [
        pytest.param(["bench", "--job-timeout", "5"], id="bench-job-timeout"),
        pytest.param(["bench", "--heartbeat-timeout", "5"],
                     id="bench-heartbeat-timeout"),
        pytest.param(["bench", "--job-retries", "2"], id="bench-job-retries"),
        pytest.param(["bench", "--checkpoint-dir", "ck"],
                     id="bench-checkpoint-dir"),
        pytest.param(["dse", "run", "--grid", "g.json", "--job-timeout", "5"],
                     id="dse-run-job-timeout"),
        pytest.param(["dse", "run", "--grid", "g.json",
                      "--heartbeat-timeout", "5"],
                     id="dse-run-heartbeat-timeout"),
        pytest.param(["dse", "run", "--grid", "g.json", "--job-retries", "2"],
                     id="dse-run-job-retries"),
    ])
    def test_parser_rejects_supervisor_options(self, argv, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        parser.parse_args(argv[:-2])  # the command itself still parses
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("module", [
        "repro.jobs", "repro.utils.heartbeat", "repro.optim.adam"])
    def test_job_runtime_is_gone(self, module):
        with pytest.raises(ImportError):
            __import__(module)

    def test_supervised_sweep_stream_still_validates_and_ingests(self, tmp_path):
        """``job.*`` are unknown kinds now; a sweep stream the supervised
        runtime wrote still validates and ingests."""
        from repro.dse.store import RunDB
        from repro.utils.metrics import EVENT_FIELDS

        kinds = ("job.submit", "job.start", "job.crashed", "job.retry",
                 "job.end", "job.degrade")
        assert not any(k.startswith("job.") for k in EVENT_FIELDS)
        events = [{"v": 2, "seq": 0, "kind": "run.start",
                   "command": "dse.supervise", "sweep": "old"}]
        events += [
            {"v": 2, "seq": k, "kind": kind, "job": f"old:p000:d{k}",
             "attempt": 0}
            for k, kind in enumerate(kinds, start=1)
        ]
        validate_stream(events)
        path = tmp_path / "supervised.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with RunDB(str(tmp_path / "runs.sqlite")) as db:
            assert db.ingest_jsonl(path)
            rows = db.conn.execute(
                "SELECT kind, job FROM supervisor_events ORDER BY seq"
            ).fetchall()
        assert [r[0] for r in rows] == list(kinds)
        assert rows[0][1] == "old:p000:d1"
