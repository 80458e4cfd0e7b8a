"""CLI conformance: each command runs the library recipe, byte for byte.

``repro place`` runs the bench recipes of :mod:`repro.baselines.flows`
(``run_flow("Ours", ...)`` with ``--routability``, ``make_gp_seed`` +
``run_xplace`` without), ``eco --compare`` adds
:func:`repro.eco.full_replace`, and ``route`` is one
:class:`~repro.route.GlobalRouter` pass.  Each test runs the command as
a real subprocess (its own interpreter, the way a user's shell invokes
it) and the recipe in-process on the same input, then compares the
output files byte for byte and the printed numbers exactly.

The second half pins the surface the placement daemon and the
supervised job runtime left behind: their commands, options and
modules are gone, and streams recorded while they existed still read.
The job runtime's keyword options are rejected in
``test_kernel_backends.py::test_removed_keywords_rejected``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import make_gp_seed, run_flow, run_xplace
from repro.core import RDConfig
from repro.eco import EcoConfig, eco_place, full_replace
from repro.geometry import Grid2D
from repro.io import load_design, save_design
from repro.place import GPConfig
from repro.place.config import auto_grid_dim
from repro.route import GlobalRouter, RouterConfig
from repro.synth import SynthConfig, generate_design
from repro.utils.checkpoint import backup_path
from repro.utils.metrics import (
    JsonlSink,
    MetricsRegistry,
    read_jsonl,
    validate_stream,
)
from repro.wirelength import hpwl

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A short routability flow: two rounds, so the snapshot is written
#: more than once and a ``.bak`` predecessor exists to compare.
ITERS, ROUNDS, ITERS_PER_ROUND = 40, 2, 10


def make_design(path: Path, n_cells: int = 300, seed: int = 1) -> str:
    """Write a congested synthetic design; returns its absolute path."""
    netlist = generate_design(SynthConfig(
        name="toy", n_cells=n_cells, seed=seed,
        utilization=0.75, nets_per_cell=1.6,
    ))
    save_design(netlist, str(path))
    return os.path.abspath(path)


def run_cli(args, cwd: Path) -> str:
    """Run ``python -m repro <args>`` as a real subprocess; its stdout."""
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
    return proc.stdout


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def dirs(tmp_path: Path) -> tuple:
    cli, api = tmp_path / "cli", tmp_path / "api"
    cli.mkdir()
    api.mkdir()
    return cli, api


def open_stream(path: Path, command: str, design: str) -> MetricsRegistry:
    """The registry the CLI opens for ``--metrics-out``."""
    metrics = MetricsRegistry(sink=JsonlSink(str(path)))
    metrics.start_run(command=command, design=design)
    return metrics


class TestCliConformance:
    def test_routability_place_is_the_ours_recipe(self, tmp_path):
        design = make_design(tmp_path / "design.bl")
        cli, api = dirs(tmp_path)
        out = run_cli(
            ["place", design, "--routability", "--iters", ITERS,
             "--rounds", ROUNDS, "--iters-per-round", ITERS_PER_ROUND,
             "--out", cli / "placed.bl", "--checkpoint", cli / "flow.npz",
             "--metrics-out", cli / "metrics.jsonl"],
            cwd=cli,
        )
        metrics = open_stream(api / "metrics.jsonl", "place", design)
        flow = run_flow(
            "Ours", load_design(design),
            RDConfig(gp=GPConfig(max_iters=ITERS), max_rounds=ROUNDS,
                     iters_per_round=ITERS_PER_ROUND),
            metrics=metrics, checkpoint_path=str(api / "flow.npz"),
        )
        save_design(flow.netlist, str(api / "placed.bl"))
        metrics.close()
        rd = flow.rd_result
        assert rd.n_rounds == ROUNDS
        assert f"routability rounds: {rd.n_rounds} (best round " \
               f"{rd.best_round})" in out
        for name in ("placed.bl", "metrics.jsonl", "flow.npz"):
            assert read(api / name) == read(cli / name), name
        assert read(backup_path(str(api / "flow.npz"))) == read(
            backup_path(str(cli / "flow.npz"))
        )
        validate_stream(read_jsonl(str(cli / "metrics.jsonl")))

    def test_wirelength_place_is_the_xplace_recipe(self, tmp_path):
        design = make_design(tmp_path / "design.bl", n_cells=150, seed=2)
        cli, api = dirs(tmp_path)
        out = run_cli(
            ["place", design, "--iters", 60, "--out", cli / "placed.bl",
             "--metrics-out", cli / "metrics.jsonl"],
            cwd=cli,
        )
        netlist = load_design(design)
        metrics = open_stream(api / "metrics.jsonl", "place", design)
        seed = make_gp_seed(netlist, GPConfig(max_iters=60), metrics=metrics)
        flow = run_xplace(netlist, seed_gp=seed)
        save_design(flow.netlist, str(api / "placed.bl"))
        metrics.close()
        assert f"hpwl={hpwl(flow.netlist):.0f} legality=CLEAN" in out
        assert "routability rounds" not in out
        for name in ("placed.bl", "metrics.jsonl"):
            assert read(api / name) == read(cli / name), name

    def test_checkpoint_without_routability_is_rejected(self, tmp_path):
        """The wirelength-only recipe writes no snapshot: exit 2, no file."""
        design = make_design(tmp_path / "design.bl", n_cells=60, seed=2)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "place", design, "--iters", "5",
             "--checkpoint", "ck.npz", "--out", "placed.bl"],
            cwd=str(tmp_path), env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert proc.returncode == 2
        assert "--checkpoint requires --routability" in proc.stderr
        assert not (tmp_path / "ck.npz").exists()
        assert not (tmp_path / "placed.bl").exists()

    def test_eco_compare_is_full_replace(self, tmp_path):
        design = make_design(tmp_path / "design.bl", n_cells=150, seed=2)
        base = tmp_path / "base.bl"
        placed = run_xplace(load_design(design), GPConfig(max_iters=60))
        save_design(placed.netlist, str(base))
        cell = next(
            name for name, fixed in zip(placed.netlist.cell_names,
                                        placed.netlist.cell_fixed)
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
        out = run_cli(
            ["eco", base, edited, "--rounds", 1, "--iters-per-round", 10,
             "--compare", "--out", cli / "eco.bl",
             "--metrics-out", cli / "metrics.jsonl"],
            cwd=cli,
        )
        rd = RDConfig(gp=GPConfig(), max_rounds=1, iters_per_round=10)
        eco_nl = load_design(str(edited))
        eco = eco_place(eco_nl, load_design(str(base)), EcoConfig(rd=rd))
        save_design(eco_nl, str(api / "eco.bl"))
        assert read(api / "eco.bl") == read(cli / "eco.bl")
        assert eco.diff.n_edits == 1

        ref = full_replace(load_design(str(edited)), rd)
        match = re.search(
            r"vs full re-place: hpwl_ratio=(\S+) overflow (\S+) -> (\S+) "
            r"rounds (\d+) -> (\d+)", out,
        )
        assert match, out
        assert match.groups() == (
            f"{eco.hpwl / ref['hpwl']:.4f}",
            f"{ref['total_overflow']:.0f}", f"{eco.total_overflow:.0f}",
            str(ref["rounds"]), str(eco.n_rounds),
        )
        events = read_jsonl(str(cli / "metrics.jsonl"))
        validate_stream(events)
        (compare,) = [e for e in events if e["kind"] == "eco.compare"]
        assert compare["full_hpwl"] == ref["hpwl"]
        assert compare["full_overflow"] == ref["total_overflow"]
        assert compare["full_rounds"] == ref["rounds"]
        assert compare["eco_hpwl"] == eco.hpwl

    def test_route_segments_match_one_router_pass(self, tmp_path):
        design = make_design(tmp_path / "design.bl", n_cells=110, seed=5)
        out = run_cli(["route", design], cwd=tmp_path)
        netlist = load_design(design)
        dim = auto_grid_dim(netlist.n_cells)
        result = GlobalRouter(
            Grid2D(netlist.die, dim, dim), RouterConfig()
        ).route(netlist)
        assert result.n_segments > 0
        assert out.splitlines()[0] == (
            f"segments={result.n_segments} "
            f"wirelength={result.wirelength:.0f} vias={result.n_vias:.0f}"
        )


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
        "repro.jobs", "repro.utils.heartbeat", "repro.optim.adam",
        "repro.run"])
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
