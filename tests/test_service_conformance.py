"""Service-vs-CLI conformance: the API must not change a single byte.

The service's core promise is that it is *only* an execution vehicle:
a job submitted over the HTTP API runs the same code as ``repro
place`` and therefore produces bit-identical positions, telemetry
stream rows and checkpoint bytes.  The CLI side runs as a real
subprocess (its own interpreter) so the comparison crosses the same
process boundary a user's shell invocation would — extending the
``TestSupervisedIdentity`` pattern from ``test_bench_parallel.py`` to
the service layer.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.io import save_design
from repro.service import PlacementService, ServiceClient, ServiceConfig
from repro.synth import SynthConfig, generate_design
from repro.utils.checkpoint import backup_path
from repro.utils.metrics import read_jsonl, validate_stream

pytestmark = pytest.mark.service

SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_design(path: str, n_cells: int = 110, seed: int = 9,
                congested: bool = False) -> str:
    """Write a small synthetic design file; returns its absolute path.

    ``congested=True`` raises the net count so the routability loop
    actually iterates (multiple rounds -> multiple checkpoint writes
    -> a ``.bak`` predecessor exists to compare).
    """
    kwargs = dict(n_cells=n_cells, seed=seed)
    if congested:
        kwargs.update(utilization=0.75, nets_per_cell=1.6)
    netlist = generate_design(SynthConfig(name="toy", **kwargs))
    save_design(netlist, path)
    return os.path.abspath(path)


def run_cli(args, cwd: str) -> None:
    """Run ``python -m repro <args>`` as a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (
        f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
    )


class TestServiceConformance:
    def test_api_run_bit_identical_to_cli(self, tmp_path):
        """Same design via CLI subprocess and via the service API:
        positions, metrics rows and checkpoint bytes all byte-equal."""
        design = make_design(
            str(tmp_path / "design.bl"), n_cells=300, seed=1, congested=True
        )
        flow = ["--routability", "--iters", "40",
                "--rounds", "2", "--iters-per-round", "10"]

        cli_dir = tmp_path / "cli"
        cli_dir.mkdir()
        cli_out = str(cli_dir / "placed.bl")
        cli_ckpt = str(cli_dir / "flow.npz")
        cli_metrics = str(cli_dir / "metrics.jsonl")
        run_cli(
            ["place", design, *flow, "--out", cli_out,
             "--checkpoint", cli_ckpt, "--metrics-out", cli_metrics],
            cwd=str(cli_dir),
        )

        root = str(tmp_path / "service")
        config = ServiceConfig(
            root=root, execution="supervised", poll_interval=0.02
        )
        with PlacementService(config):
            client = ServiceClient(root=root)
            entry = client.submit({
                "input": design, "routability": True, "iters": 40,
                "rounds": 2, "iters_per_round": 10,
            })
            job_id = entry["job_id"]
            final = client.wait(job_id, timeout=600)
        assert final["state"] == "DONE", final
        jobdir = Path(root) / "jobs" / job_id

        def read(path) -> bytes:
            with open(path, "rb") as fh:
                return fh.read()

        assert read(jobdir / "placed.bl") == read(cli_out)
        assert read(jobdir / "metrics.jsonl") == read(cli_metrics)
        assert read(jobdir / "flow.npz") == read(cli_ckpt)
        assert read(backup_path(str(jobdir / "flow.npz"))) == read(
            backup_path(cli_ckpt)
        )
        assert final["result"]["hpwl"] > 0

    def test_repeat_submission_identical_and_cached(self, tmp_path):
        """Inline mode: a repeated job serves the design from the warm
        cache and still produces byte-identical artifacts."""
        design = make_design(str(tmp_path / "design.bl"), seed=3)
        root = str(tmp_path / "service")
        config = ServiceConfig(
            root=root, execution="inline", poll_interval=0.02
        )
        with PlacementService(config) as service:
            client = ServiceClient(root=root)
            request = {"input": design, "iters": 30}
            first = client.submit(request)
            second = client.submit(request)
            entries = client.wait_all(
                [first["job_id"], second["job_id"]], timeout=600
            )
            assert [e["state"] for e in entries] == ["DONE", "DONE"]
            stats = service.cache.stats()
            assert stats["netlist_misses"] == 1
            assert stats["netlist_hits"] == 1
            assert stats["spectral_workspaces"] >= 1

        def job_bytes(entry, name: str) -> bytes:
            with open(
                Path(root) / "jobs" / entry["job_id"] / name, "rb"
            ) as fh:
                return fh.read()

        for name in ("placed.bl", "metrics.jsonl"):
            assert job_bytes(entries[0], name) == job_bytes(entries[1], name)
        assert entries[0]["result"]["hpwl"] == entries[1]["result"]["hpwl"]

    def test_route_job_matches_cli(self, tmp_path):
        """Route jobs conform too (same placed input, same stream)."""
        design = make_design(str(tmp_path / "design.bl"), seed=5)
        cli_dir = tmp_path / "cli"
        cli_dir.mkdir()
        cli_metrics = str(cli_dir / "metrics.jsonl")
        run_cli(
            ["route", design, "--metrics-out", cli_metrics],
            cwd=str(cli_dir),
        )
        root = str(tmp_path / "service")
        config = ServiceConfig(
            root=root, execution="supervised", poll_interval=0.02
        )
        with PlacementService(config):
            client = ServiceClient(root=root)
            entry = client.submit({"input": design}, kind="route")
            final = client.wait(entry["job_id"], timeout=600)
        assert final["state"] == "DONE", final
        jobdir = Path(root) / "jobs" / entry["job_id"]
        with open(jobdir / "metrics.jsonl", "rb") as fh:
            service_stream = fh.read()
        with open(cli_metrics, "rb") as fh:
            cli_stream = fh.read()
        assert service_stream == cli_stream
        assert final["result"]["kind"] == "route"
        validate_stream(read_jsonl(str(jobdir / "metrics.jsonl")))
