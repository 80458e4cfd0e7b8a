"""Job lifecycle types of the supervised execution runtime.

A *job* is one unit of flow work — one design placement/route, one
sweep shard — described by a :class:`JobSpec` and finishing as a
:class:`JobResult`.  The state machine (enforced by
:class:`~repro.jobs.supervisor.Supervisor`)::

    PENDING --start--> RUNNING --+--> DONE        (fn returned)
       ^                         +--> FAILED      (fn raised)
       |                         +--> CRASHED     (worker died: SIGKILL,
       |                         |                 SIGTERM, segfault,
       |                         |                 lost result)
       |                         +--> HUNG        (heartbeats stopped)
       |                         +--> TIMEOUT     (wall-clock deadline)
       +------- retry (CRASHED/HUNG/TIMEOUT, with backoff) ------+

``FAILED`` is deliberately terminal by default: an exception is a
deterministic outcome the caller wants reported, not masked by
recomputation; the involuntary deaths (``CRASHED``/``HUNG``/
``TIMEOUT``) are the retryable ones.  A retried job whose spec carries
``checkpoint_path`` warm-starts from its last atomic checkpoint (the
:class:`JobContext` tells the function it is attempt ``>= 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Lifecycle states (also the ``state`` field of ``job.end`` events).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CRASHED = "crashed"
HUNG = "hung"
TIMEOUT = "timeout"

#: States a job can end in.
TERMINAL_STATES = (DONE, FAILED, CRASHED, HUNG, TIMEOUT)
#: Involuntary-death states the supervisor retries by default.
RETRYABLE_STATES = (CRASHED, HUNG, TIMEOUT)


@dataclass
class JobContext:
    """What a context-aware job function learns about its execution.

    Passed as the ``ctx`` keyword argument when
    :attr:`JobSpec.with_context` is set.  ``attempt`` is 0-based;
    ``attempt > 0`` means this is a retry and the function should
    resume from ``checkpoint_path`` when one exists.
    """

    job_id: str
    attempt: int = 0
    checkpoint_path: str | None = None

    @property
    def is_retry(self) -> bool:
        """True on the second and later attempts."""
        return self.attempt > 0


@dataclass
class JobSpec:
    """One unit of work, small enough to pickle cheaply.

    Attributes
    ----------
    job_id:
        Stable identifier used in telemetry and for deterministic
        retry jitter.
    fn:
        Module-level callable executed in the worker.  Its return
        value becomes :attr:`JobResult.value` and must be picklable.
    args / kwargs:
        Positional/keyword payload for ``fn``.
    with_context:
        When True, ``fn`` additionally receives ``ctx=``
        :class:`JobContext` (attempt number, checkpoint path).
    timeout:
        Per-job wall-clock deadline in seconds, enforced by the
        supervisor (SIGKILL past the deadline).  ``None`` = no limit.
    heartbeat_timeout:
        Maximum silence (seconds since the worker's last progress
        beat) before the job counts as hung.  ``None`` disables hung
        detection; slow-but-beating workers are never reaped by this.
    max_retries:
        Replacement attempts after an involuntary death (the first
        attempt is not a retry).
    checkpoint_path:
        Warm-start location forwarded through :class:`JobContext`;
        retried attempts resume from it instead of recomputing.
    fault_plans:
        :class:`~repro.utils.faults.FaultPlan` tuple installed inside
        the worker for this job (chaos testing); plans with
        ``attempts >= 0`` stop firing on later attempts.
    index:
        Caller ordering hint carried through to :class:`JobResult`.
    """

    job_id: str
    fn: object = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    with_context: bool = False
    timeout: float | None = None
    heartbeat_timeout: float | None = None
    max_retries: int | None = None
    checkpoint_path: str | None = None
    fault_plans: tuple = ()
    index: int = 0


@dataclass
class JobResult:
    """Terminal outcome of one job across all its attempts."""

    job_id: str
    state: str = PENDING
    value: object = None
    error: str | None = None
    attempts: int = 0
    elapsed: float = 0.0
    exitcode: int | None = None
    index: int = 0

    @property
    def ok(self) -> bool:
        """True when the job finished with a returned value."""
        return self.state == DONE
