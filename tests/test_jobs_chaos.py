"""Chaos harness: the supervised sweep under injected process faults.

Each test runs a real (small-scale) Table-I-shaped sweep through the
pooled :func:`repro.dse.runner.run_grid` path while a
:class:`~repro.utils.faults.FaultPlan` SIGKILLs or hangs one specific
design's worker.  The contract under test:

* unfaulted designs complete and report correct rows, in input order;
* the faulted design either succeeds via retry (warm- or cold-start)
  or reports a structured failure — never a lost entry;
* the merged per-unit telemetry stream stays schema-valid;
* the supervisor's own ``job.*`` stream records what happened.

Marked ``chaos`` — excluded from the tier-1 run and executed by the
dedicated CI job under a hard per-test timeout.
"""

from __future__ import annotations

import pytest

from repro.dse.grid import parse_spec
from repro.dse.runner import run_grid
from repro.jobs import CRASHED, DONE, HUNG
from repro.utils.faults import FaultPlan
from repro.utils.metrics import validate_stream

pytestmark = pytest.mark.chaos

DESIGNS = ["des_perf_1", "des_perf_a", "des_perf_b"]


def sweep(designs: list, fault: FaultPlan, **kwargs):
    """Run the small Xplace sweep over ``designs`` on two workers."""
    spec = parse_spec({"name": "chaos", "designs": designs,
                       "placers": ["Xplace"],
                       "paired": {"gp.max_iters": [20]}, "scale": 0.12})
    return run_grid(spec, jobs=2, fault_plans=(fault,), **kwargs)


def _kinds(events: list) -> list:
    return [e["kind"] for e in events]


def _starts(result) -> list:
    return [e for e in result.unit_events if e["kind"] == "run.start"]


class TestSigkillChaos:
    def test_sigkill_without_retry_is_isolated(self):
        """A SIGKILLed worker loses its design, never the sweep."""
        result = sweep(
            DESIGNS,
            FaultPlan("bench.design.des_perf_a", mode="sigkill"),
            max_retries=0,
        )
        # every design reports, in input order
        assert [p["design"] for p in result.payloads] == DESIGNS
        assert [p["unit_index"] for p in result.payloads] == [0, 1, 2]
        # the unfaulted designs completed with real rows
        survivors = [p for p in result.payloads if not p["error"]]
        assert [p["design"] for p in survivors] == ["des_perf_1", "des_perf_b"]
        assert [row["design"] for row in result.rows] == \
            ["des_perf_1", "des_perf_b"]
        # the faulted design carries a structured supervisor verdict
        dead = result.payloads[1]
        assert dead["job_state"] == CRASHED
        assert dead["attempts"] == 1
        assert dead["error"] and "without a result" in dead["error"]
        # merged unit stream is schema-valid (dead design has no segment)
        validate_stream(result.unit_events)
        assert [s["design"] for s in _starts(result)] == \
            ["des_perf_1", "des_perf_b"]
        # supervisor stream recorded the crash
        validate_stream(result.events)
        assert "job.crashed" in _kinds(result.events)
        assert "job.retry" not in _kinds(result.events)

    def test_sigkill_then_retry_recovers_the_design(self):
        """A first-attempt-only SIGKILL is healed by the retry."""
        result = sweep(
            DESIGNS,
            FaultPlan("bench.design.des_perf_a", mode="sigkill", attempts=1),
            max_retries=1,
        )
        assert [p["design"] for p in result.payloads] == DESIGNS
        assert result.errors == []
        assert [row["design"] for row in result.rows] == DESIGNS
        retried = result.payloads[1]
        assert retried["attempts"] == 2
        assert retried["job_state"] == DONE
        # the healed design's segment came from the retry attempt
        validate_stream(result.unit_events)
        starts = _starts(result)
        assert [s["design"] for s in starts] == DESIGNS
        assert starts[1]["attempt"] == 1
        assert "attempt" not in starts[0] and "attempt" not in starts[2]
        kinds = _kinds(result.events)
        assert "job.crashed" in kinds and "job.retry" in kinds


class TestHangChaos:
    def test_hung_worker_reaped_at_deadline_and_retried(self):
        """Silence past ``heartbeat_timeout`` is reaped; retry succeeds."""
        result = sweep(
            DESIGNS[:2],
            FaultPlan("bench.design.des_perf_a", mode="hang", attempts=1),
            heartbeat_timeout=4.0,
            max_retries=1,
        )
        assert [p["design"] for p in result.payloads] == DESIGNS[:2]
        assert result.errors == []
        retried = result.payloads[1]
        assert retried["attempts"] == 2 and retried["job_state"] == DONE
        kinds = _kinds(result.events)
        assert "job.hung" in kinds and "job.retry" in kinds
        validate_stream(result.unit_events)

    def test_hung_worker_without_retry_reports_hung(self):
        """With retries exhausted the design reports ``hung``."""
        result = sweep(
            DESIGNS[:2],
            FaultPlan("bench.design.des_perf_a", mode="hang"),
            heartbeat_timeout=4.0,
            max_retries=0,
        )
        assert [p["design"] for p in result.payloads] == DESIGNS[:2]
        assert not result.payloads[0]["error"]
        dead = result.payloads[1]
        assert dead["job_state"] == HUNG
        assert dead["error"] and "heartbeat" in dead["error"]
        assert result.errors == [("chaos:p000:des_perf_a", dead["error"])]


class TestCheckpointedRetry:
    def test_retry_with_checkpoint_dir_still_recovers(self, tmp_path):
        """Retry-with-resume path: checkpointed sweep heals a SIGKILL."""
        result = sweep(
            DESIGNS[:2],
            FaultPlan("bench.design.des_perf_a", mode="sigkill", attempts=1),
            max_retries=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert result.errors == []
        assert result.payloads[1]["attempts"] == 2
        validate_stream(result.unit_events)
        validate_stream(result.events)
        # each unit checkpointed its flows into its own directory
        assert (tmp_path / "ckpt" / "chaos__p000__des_perf_1").is_dir()
