"""End-to-end determinism: same seed => bit-identical everything.

Runs the full routability-driven flow twice from identical inputs and
compares

* final cell positions (exact array equality, not approx),
* the emitted metrics JSONL streams (byte-for-byte),
* the on-disk flow checkpoint files (byte-for-byte — relies on the
  deterministic archive writer of :mod:`repro.utils.checkpoint`).

Nothing in the flow may consult wall-clock time, process ids or
unseeded randomness on the data path; this test is the tripwire.
"""

from __future__ import annotations

import numpy as np

from repro.core import RDConfig, RoutabilityDrivenPlacer
from repro.place.config import GPConfig
from repro.place.initial import initial_placement
from repro.synth import toy_design
from repro.utils.checkpoint import read_checkpoint, write_checkpoint
from repro.utils.metrics import JsonlSink, MetricsRegistry


def _run_flow(tmp_path, tag: str):
    """One complete instrumented RD flow; returns its artifacts."""
    netlist = toy_design(110, seed=9)
    initial_placement(netlist, 0)
    metrics_path = tmp_path / f"metrics_{tag}.jsonl"
    ckpt_path = tmp_path / f"flow_{tag}.npz"
    metrics = MetricsRegistry(sink=JsonlSink(str(metrics_path)))
    metrics.start_run(command="determinism")
    config = RDConfig(
        gp=GPConfig(max_iters=40),
        max_rounds=2,
        iters_per_round=10,
    )
    placer = RoutabilityDrivenPlacer(netlist, config, metrics=metrics)
    result = placer.run(checkpoint_path=str(ckpt_path))
    metrics.close()
    return {
        "x": netlist.x.copy(),
        "y": netlist.y.copy(),
        "result": result,
        "metrics_bytes": metrics_path.read_bytes(),
        "ckpt_bytes": ckpt_path.read_bytes(),
    }


class TestFlowDeterminism:
    def test_two_runs_bit_identical(self, tmp_path):
        a = _run_flow(tmp_path, "a")
        b = _run_flow(tmp_path, "b")
        # positions: exact, not approximate
        assert np.array_equal(a["x"], b["x"])
        assert np.array_equal(a["y"], b["y"])
        assert a["result"].n_rounds == b["result"].n_rounds
        assert a["result"].best_round == b["result"].best_round
        # the telemetry streams are byte-for-byte identical (no
        # timestamps by default; json float repr is deterministic)
        assert a["metrics_bytes"] == b["metrics_bytes"]
        # the checkpoint files are byte-for-byte identical (fixed zip
        # member timestamps, insertion-ordered members)
        assert a["ckpt_bytes"] == b["ckpt_bytes"]


class TestCheckpointBytes:
    def test_write_checkpoint_is_byte_deterministic(self, tmp_path):
        meta = {"round": 3, "score": 1.25, "flags": [1, 2, 3]}
        arrays = {
            "x": np.linspace(0.0, 1.0, 257),
            "mask": np.arange(16) % 3 == 0,
        }
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        write_checkpoint(str(p1), meta, arrays)
        write_checkpoint(str(p2), meta, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"x": rng.standard_normal(100), "n": np.array([7])}
        path = tmp_path / "c.npz"
        write_checkpoint(str(path), {"k": "v"}, arrays)
        meta, back = read_checkpoint(str(path))
        assert meta == {"k": "v"}
        assert np.array_equal(back["x"], arrays["x"])
        assert back["x"].dtype == arrays["x"].dtype
