"""Supervised job runtime: specs, workers, and the supervisor.

Public API of the execution layer under the sweep runner,
:mod:`repro.dse.runner` (which runs both ``repro dse run`` and
``repro bench``): build :class:`JobSpec` work orders, hand them to
:func:`run_jobs` (or a :class:`Supervisor`), and get :class:`JobResult`
outcomes back in submission order — with timeouts, hung-worker
reaping, retry from checkpoint, and graceful degradation handled here
rather than in the caller.
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
