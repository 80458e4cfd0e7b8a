"""Supervised job runtime: lifecycle, deadlines, retries, degradation.

Unit-level tests of :mod:`repro.jobs` using tiny module-level job
functions (no placement flows — the chaos tests in
``test_jobs_chaos.py`` exercise the runtime under the real sweep).
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.jobs import (
    CRASHED,
    DONE,
    FAILED,
    HUNG,
    TIMEOUT,
    JobSpec,
    Supervisor,
    SupervisorConfig,
    SupervisorError,
    compute_backoff,
    run_job_in_process,
    run_jobs,
)
from repro.utils import heartbeat
from repro.utils.faults import FaultPlan
from repro.utils.metrics import MemorySink, MetricsRegistry, validate_stream

#: Fast supervision policy for tests: tight polling, tiny backoff.
FAST = dict(heartbeat_interval=0.02, poll_interval=0.01, backoff_base=0.01)


def job_double(x):
    """Trivial job: returns its argument doubled."""
    return x * 2


def job_raise(x):
    """Deterministic failure: always raises."""
    raise ValueError(f"deliberate failure for {x}")


def job_sleep_silent(seconds):
    """A hung job: sleeps without ever beating."""
    time.sleep(seconds)
    return "woke"


def job_sleep_beating(seconds):
    """A slow-but-alive job: beats while it sleeps."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        heartbeat.beat()
        time.sleep(0.02)
    return "done-slow"


def job_flaky(x):
    """Fires the ``flaky.site`` fault site, then returns."""
    from repro.utils import faults

    heartbeat.beat()
    faults.fire("flaky.site")
    return x + 1


def job_with_ctx(base, ctx=None):
    """Context-aware job: reports its attempt number and checkpoint."""
    return {
        "base": base,
        "attempt": ctx.attempt,
        "is_retry": ctx.is_retry,
        "checkpoint": ctx.checkpoint_path,
    }


def job_sigterm_first_attempt(x, ctx=None):
    """SIGTERMs its own worker on attempt 0; returns on the retry."""
    if ctx.attempt == 0:
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(30.0)  # never reached: SIGTERM's default action kills
    return x + ctx.attempt


class TestHeartbeatHook:
    def test_beat_without_handler_is_noop(self):
        heartbeat.clear_handler()
        heartbeat.beat()  # must not raise
        assert heartbeat.active() is None

    def test_handler_receives_beats_and_can_raise(self):
        calls = []
        heartbeat.set_handler(lambda: calls.append(1))
        try:
            heartbeat.beat()
            heartbeat.beat()
        finally:
            heartbeat.clear_handler()
        assert calls == [1, 1]
        heartbeat.set_handler(lambda: (_ for _ in ()).throw(OSError("x")))
        try:
            with pytest.raises(OSError):
                heartbeat.beat()
        finally:
            heartbeat.clear_handler()


class TestLifecycle:
    def test_done_failed_and_order(self):
        specs = [
            JobSpec("a", fn=job_double, args=(3,), index=0),
            JobSpec("b", fn=job_raise, args=(1,), index=1),
            JobSpec("c", fn=job_double, args=(5,), index=2),
        ]
        results = run_jobs(specs, config=SupervisorConfig(max_workers=2, **FAST))
        assert [r.job_id for r in results] == ["a", "b", "c"]
        assert results[0].state == DONE and results[0].value == 6
        assert results[0].ok and results[0].attempts == 1
        assert results[1].state == FAILED
        assert "deliberate failure" in results[1].error
        assert not results[1].ok
        assert results[2].state == DONE and results[2].value == 10

    def test_failed_jobs_are_not_retried(self):
        results = run_jobs(
            [JobSpec("f", fn=job_raise, args=(0,), max_retries=3)],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].state == FAILED
        assert results[0].attempts == 1

    def test_context_passed_to_with_context_jobs(self):
        results = run_jobs(
            [
                JobSpec(
                    "ctx",
                    fn=job_with_ctx,
                    args=(7,),
                    with_context=True,
                    checkpoint_path="/tmp/nowhere.npz",
                )
            ],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].value == {
            "base": 7,
            "attempt": 0,
            "is_retry": False,
            "checkpoint": "/tmp/nowhere.npz",
        }

    def test_duplicate_job_ids_rejected(self):
        with Supervisor(SupervisorConfig(**FAST)) as sup:
            sup.submit(JobSpec("dup", fn=job_double, args=(1,)))
            with pytest.raises(ValueError, match="duplicate job id"):
                sup.submit(JobSpec("dup", fn=job_double, args=(2,)))


class TestDeadlines:
    def test_timeout_kills_and_reports(self):
        results = run_jobs(
            [
                JobSpec(
                    "slow",
                    fn=job_sleep_silent,
                    args=(30.0,),
                    timeout=0.4,
                    max_retries=0,
                )
            ],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].state == TIMEOUT
        assert "deadline" in results[0].error

    def test_hung_worker_reaped_but_beating_worker_survives(self):
        specs = [
            JobSpec(
                "hung",
                fn=job_sleep_silent,
                args=(30.0,),
                heartbeat_timeout=0.4,
                max_retries=0,
                index=0,
            ),
            JobSpec(
                "beating",
                fn=job_sleep_beating,
                args=(1.0,),
                heartbeat_timeout=0.4,
                index=1,
            ),
        ]
        results = run_jobs(
            specs, config=SupervisorConfig(max_workers=2, **FAST)
        )
        # same wall time, opposite outcomes: silence is hung, slow is fine
        assert results[0].state == HUNG
        assert "heartbeat" in results[0].error
        assert results[1].state == DONE and results[1].value == "done-slow"


class TestRetry:
    def test_sigkill_then_retry_succeeds(self):
        spec = JobSpec(
            "kill-once",
            fn=job_flaky,
            args=(10,),
            max_retries=2,
            fault_plans=(
                FaultPlan("flaky.site", mode="sigkill", attempts=1),
            ),
        )
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        results = run_jobs(
            [spec], config=SupervisorConfig(**FAST), metrics=metrics
        )
        metrics.close()
        assert results[0].state == DONE
        assert results[0].value == 11
        assert results[0].attempts == 2
        kinds = [e["kind"] for e in metrics.series.get("job.crashed", [])]
        assert kinds == ["job.crashed"]
        retries = metrics.series.get("job.retry", [])
        assert len(retries) == 1 and retries[0]["attempt"] == 1

    def test_crash_every_attempt_exhausts_retries(self):
        spec = JobSpec(
            "kill-always",
            fn=job_flaky,
            args=(0,),
            max_retries=1,
            fault_plans=(FaultPlan("flaky.site", mode="sigkill"),),
        )
        results = run_jobs([spec], config=SupervisorConfig(**FAST))
        assert results[0].state == CRASHED
        assert results[0].attempts == 2
        assert "without a result" in results[0].error

    def test_sigterm_is_a_crash_and_is_retried(self):
        """No worker SIGTERM handler: a terminated worker leaves no
        result, is classified ``crashed`` and gets a replacement."""
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        results = run_jobs(
            [JobSpec("term-once", fn=job_sigterm_first_attempt, args=(5,),
                     with_context=True, max_retries=1)],
            config=SupervisorConfig(**FAST),
            metrics=metrics,
        )
        metrics.close()
        assert results[0].state == DONE
        assert results[0].value == 6 and results[0].attempts == 2
        crashed = metrics.series.get("job.crashed", [])
        assert [e["exitcode"] for e in crashed] == [-signal.SIGTERM]
        ends = [e["state"] for e in metrics.series.get("job.end", [])]
        assert ends == [CRASHED, DONE]

    def test_backoff_is_deterministic_and_grows(self):
        cfg = SupervisorConfig(backoff_base=0.1, backoff_factor=2.0)
        first = compute_backoff(cfg, "job-a", 1)
        assert first == compute_backoff(cfg, "job-a", 1)
        assert compute_backoff(cfg, "job-a", 3) > first
        # different jobs get decorrelated jitter
        assert first != compute_backoff(cfg, "job-b", 1)


class TestDegradation:
    class _BrokenContext:
        """An mp context whose process starts always fail."""

        class Process:
            def __init__(self, *a, **kw):
                pass

            def start(self):
                raise OSError("no processes for you")

        def get_context(self):  # pragma: no cover — API compat shim
            return self

    def test_broken_supervisor_degrades_to_in_process(self):
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        results = run_jobs(
            [
                JobSpec("a", fn=job_double, args=(2,), index=0),
                JobSpec("b", fn=job_double, args=(3,), index=1),
            ],
            config=SupervisorConfig(**FAST),
            metrics=metrics,
            mp_context=self._BrokenContext(),
        )
        metrics.close()
        # every rung failed to spawn; the last rung still ran the jobs
        assert [r.value for r in results] == [4, 6]
        assert all(r.state == DONE for r in results)
        rungs = [e["rung"] for e in metrics.series.get("job.degrade", [])]
        assert rungs == ["fresh-supervisor", "in-process"]
        validate_stream([json.loads(line) for line in sink.lines])

    def test_run_job_in_process_captures_failure(self):
        result = run_job_in_process(JobSpec("x", fn=job_raise, args=(1,)))
        assert result.state == FAILED and "deliberate" in result.error
        ok = run_job_in_process(JobSpec("y", fn=job_double, args=(4,)))
        assert ok.state == DONE and ok.value == 8

    def test_supervisor_error_is_raised_not_swallowed(self):
        sup = Supervisor(SupervisorConfig(**FAST), mp_context=self._BrokenContext())
        try:
            with pytest.raises(SupervisorError, match="cannot start worker"):
                sup.run([JobSpec("x", fn=job_double, args=(1,))])
        finally:
            sup.close()
