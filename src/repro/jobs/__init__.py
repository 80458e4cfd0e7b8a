"""Supervised job runtime: specs, workers, and the supervisor.

Public API of the execution layer under :mod:`repro.bench.parallel`
and :mod:`repro.dse.runner`: build :class:`JobSpec` work orders, hand
them to :func:`run_jobs` (or a :class:`Supervisor`), and get
:class:`JobResult` outcomes
back in submission order — with timeouts, hung-worker reaping, retry
from checkpoint, and graceful degradation handled here rather than in
every caller.
"""

from repro.jobs.spec import (
    CRASHED,
    DONE,
    FAILED,
    HUNG,
    PENDING,
    RETRYABLE_STATES,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    JobContext,
    JobResult,
    JobSpec,
)
from repro.jobs.supervisor import (
    Supervisor,
    SupervisorConfig,
    SupervisorError,
    compute_backoff,
    run_job_in_process,
    run_jobs,
)

__all__ = [
    "CRASHED",
    "DONE",
    "FAILED",
    "HUNG",
    "PENDING",
    "RETRYABLE_STATES",
    "RUNNING",
    "TERMINAL_STATES",
    "TIMEOUT",
    "JobContext",
    "JobResult",
    "JobSpec",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorError",
    "compute_backoff",
    "run_job_in_process",
    "run_jobs",
]
