"""Supervised job execution: deadlines, heartbeats, retries, degradation.

The :class:`Supervisor` runs :class:`~repro.jobs.spec.JobSpec` work
orders in child processes (one process per attempt, up to
``max_workers`` concurrently) and enforces the lifecycle contract the
workers themselves cannot be trusted with:

* **wall-clock deadlines** — a job past its ``timeout`` is SIGKILLed
  by the supervisor; no cooperation required;
* **hung vs slow** — workers touch a heartbeat file at flow progress
  points (:mod:`repro.utils.heartbeat`); a worker that stops beating
  for ``heartbeat_timeout`` seconds is *hung* and reaped immediately,
  while a slow-but-progressing worker runs until its deadline;
* **retry with backoff** — involuntary deaths (crash/hang/timeout)
  are retried up to ``max_retries`` times with exponential backoff and
  deterministic jitter; a retried job whose spec names a
  ``checkpoint_path`` warm-starts from its last atomic checkpoint;
* **graceful degradation** — a dead worker gets a replacement process
  (retry); a supervisor that cannot run processes at all is rebuilt
  once by :func:`run_jobs`, and as the last rung the remaining jobs
  run in-process sequentially.  Every rung emits a ``job.degrade``
  telemetry event.

Results come back in submission order, every job reporting a
structured :class:`~repro.jobs.spec.JobResult` — the supervisor never
raises because of anything a *job* did.

This is the execution skeleton the sweep runner
(:mod:`repro.dse.runner`, behind ``repro dse run`` and
``repro bench``) sits on.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.jobs.spec import (
    CRASHED,
    DONE,
    FAILED,
    HUNG,
    PENDING,
    RETRYABLE_STATES,
    RUNNING,
    TIMEOUT,
    JobContext,
    JobResult,
    JobSpec,
)
from repro.jobs.worker import HEARTBEAT_FILE, read_result, worker_main
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL

logger = get_logger("jobs.supervisor")


class SupervisorError(RuntimeError):
    """The supervisor itself (not a job) cannot make progress.

    Raised when worker processes cannot be started at all;
    :func:`run_jobs` reacts by climbing the degradation ladder instead
    of failing the batch.
    """


@dataclass
class SupervisorConfig:
    """Supervision policy knobs (per-spec fields override the defaults).

    Attributes
    ----------
    max_workers:
        Concurrent worker processes.
    timeout / heartbeat_timeout:
        Defaults for specs that leave theirs ``None`` — see
        :class:`~repro.jobs.spec.JobSpec`.
    heartbeat_interval:
        Worker-side throttle between heartbeat file updates; keep well
        under ``heartbeat_timeout``.
    max_retries:
        Default replacement attempts after involuntary deaths.
    backoff_base / backoff_factor / backoff_jitter:
        Retry delay: ``base * factor**(attempt-1)``, stretched by up
        to ``jitter`` fraction using a jitter stream seeded from the
        job id (deterministic across runs, decorrelated across jobs).
    poll_interval:
        Supervisor tick period.
    """

    max_workers: int = 1
    timeout: float | None = None
    heartbeat_timeout: float | None = None
    heartbeat_interval: float = 0.1
    max_retries: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    poll_interval: float = 0.02


def compute_backoff(config: SupervisorConfig, job_id: str, attempt: int) -> float:
    """Deterministic exponential backoff with per-job jitter.

    ``attempt`` is the 1-based retry number.  Seeding the jitter from
    ``(job_id, attempt)`` keeps reruns reproducible while spreading
    simultaneous retries of different jobs apart.
    """
    base = config.backoff_base * config.backoff_factor ** max(0, attempt - 1)
    jitter = random.Random(f"{job_id}:{attempt}").random()
    return base * (1.0 + config.backoff_jitter * jitter)


@dataclass
class _Job:
    """Supervisor-internal tracking record of one submitted job."""

    spec: JobSpec
    order: int
    state: str = PENDING
    attempt: int = 0
    proc: object = None
    workdir: str = ""
    started: float = 0.0
    first_started: float | None = None
    not_before: float = 0.0
    last_beat: float = 0.0
    beat_stamp: str = ""
    result: JobResult | None = None

    @property
    def timeout(self) -> float | None:
        """Effective wall-clock limit (spec overrides config default)."""
        return self.spec.timeout

    @property
    def done(self) -> bool:
        """True once a terminal :class:`JobResult` is recorded."""
        return self.result is not None


class Supervisor:
    """Run job specs under deadlines, heartbeats and retry policy.

    Use as a context manager, or call :meth:`close` to reap any
    still-running workers and delete the scratch directory.
    :meth:`run` submits a batch and blocks; :meth:`submit` /
    :meth:`poll` / :meth:`wait` are its steps.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        metrics=NULL,
        mp_context=None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.metrics = metrics
        self._ctx = mp_context or multiprocessing.get_context()
        self._jobs: dict = {}
        self._order: list = []
        self._root = tempfile.mkdtemp(prefix="repro-jobs-")
        self._closed = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """SIGKILL any still-running workers and remove scratch files."""
        if self._closed:
            return
        self._closed = True
        for job in self._jobs.values():
            if job.proc is not None and job.proc.is_alive():
                job.proc.kill()
                job.proc.join(timeout=5)
        shutil.rmtree(self._root, ignore_errors=True)

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Queue one job; returns its id.  Ids must be unique."""
        if spec.job_id in self._jobs:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        job = _Job(spec=spec, order=len(self._order))
        self._jobs[spec.job_id] = job
        self._order.append(spec.job_id)
        if self.metrics.enabled:
            self.metrics.emit("job.submit", job=spec.job_id, index=spec.index)
        return spec.job_id

    def results(self) -> list:
        """Terminal :class:`JobResult` entries so far, submission order."""
        return [
            self._jobs[jid].result
            for jid in self._order
            if self._jobs[jid].result is not None
        ]

    def run(self, specs) -> list:
        """Submit ``specs`` and block until every job is terminal."""
        for spec in specs:
            self.submit(spec)
        return self.wait()

    def wait(self) -> list:
        """Drive the state machine until all submitted jobs finish."""
        while not all(job.done for job in self._jobs.values()):
            self.poll()
            time.sleep(self.config.poll_interval)
        return self.results()

    # ------------------------------------------------------------------
    # one scheduling tick
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Advance every job one step: reap, enforce, retry, start."""
        now = time.monotonic()
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state == RUNNING:
                self._check_running(job, now)
        self._start_pending(now)

    def _check_running(self, job: _Job, now: float) -> None:
        proc = job.proc
        if proc.exitcode is not None:
            self._reap(job)
            return
        self._refresh_beat(job, now)
        timeout = job.spec.timeout
        timeout = self.config.timeout if timeout is None else timeout
        if timeout is not None and now - job.started > timeout:
            if self.metrics.enabled:
                self.metrics.emit(
                    "job.timeout",
                    job=job.spec.job_id,
                    attempt=job.attempt,
                    timeout_s=timeout,
                )
            logger.warning(
                "%s exceeded its %.1fs deadline; killing worker",
                job.spec.job_id, timeout,
            )
            proc.kill()
            proc.join(timeout=5)
            self._attempt_ended(job, TIMEOUT, f"deadline exceeded ({timeout}s)")
            return
        hb_timeout = job.spec.heartbeat_timeout
        if hb_timeout is None:
            hb_timeout = self.config.heartbeat_timeout
        if hb_timeout is not None and now - job.last_beat > hb_timeout:
            silent = now - job.last_beat
            if self.metrics.enabled:
                self.metrics.emit(
                    "job.hung",
                    job=job.spec.job_id,
                    attempt=job.attempt,
                    silent_s=silent,
                )
            logger.warning(
                "%s silent for %.1fs (heartbeat limit %.1fs); killing "
                "hung worker", job.spec.job_id, silent, hb_timeout,
            )
            proc.kill()
            proc.join(timeout=5)
            self._attempt_ended(
                job, HUNG, f"no heartbeat for {silent:.1f}s"
            )

    def _refresh_beat(self, job: _Job, now: float) -> None:
        """Track progress via the heartbeat file's *content* change.

        Comparing content stamps instead of mtimes keeps the check in
        one clock domain (the supervisor's monotonic clock).
        """
        try:
            with open(os.path.join(job.workdir, HEARTBEAT_FILE)) as fh:
                stamp = fh.read()
        except OSError:
            return
        if stamp != job.beat_stamp:
            job.beat_stamp = stamp
            job.last_beat = now

    # ------------------------------------------------------------------
    # attempt/job termination
    # ------------------------------------------------------------------
    def _reap(self, job: _Job) -> None:
        """Classify a worker that exited on its own (or was killed)."""
        job.proc.join(timeout=5)
        payload = read_result(job.workdir)
        if payload is not None:
            self._attempt_ended(
                job, payload["state"], payload["error"], value=payload["value"]
            )
            return
        exitcode = job.proc.exitcode
        if self.metrics.enabled:
            self.metrics.emit(
                "job.crashed",
                job=job.spec.job_id,
                attempt=job.attempt,
                exitcode=exitcode,
            )
        logger.warning(
            "%s worker died without a result (exitcode %s)",
            job.spec.job_id, exitcode,
        )
        self._attempt_ended(
            job, CRASHED, f"worker died without a result (exitcode {exitcode})",
            exitcode=exitcode,
        )

    def _attempt_ended(
        self,
        job: _Job,
        state: str,
        error: str | None,
        value=None,
        exitcode: int | None = None,
    ) -> None:
        now = time.monotonic()
        if exitcode is None and job.proc is not None:
            exitcode = job.proc.exitcode
        if self.metrics.enabled:
            self.metrics.emit(
                "job.end",
                job=job.spec.job_id,
                attempt=job.attempt,
                state=state,
                elapsed_s=now - job.started,
            )
        job.proc = None
        max_retries = job.spec.max_retries
        if max_retries is None:
            max_retries = self.config.max_retries
        retryable = state in RETRYABLE_STATES and job.attempt < max_retries
        if retryable:
            backoff = compute_backoff(
                self.config, job.spec.job_id, job.attempt + 1
            )
            resume = bool(
                job.spec.checkpoint_path
                and os.path.exists(job.spec.checkpoint_path)
            )
            if self.metrics.enabled:
                self.metrics.emit(
                    "job.retry",
                    job=job.spec.job_id,
                    attempt=job.attempt + 1,
                    backoff_s=backoff,
                    resume=resume,
                )
            logger.warning(
                "replacing dead worker for %s (attempt %d, backoff %.2fs, "
                "%s)", job.spec.job_id, job.attempt + 1, backoff,
                "resuming from checkpoint" if resume else "cold restart",
            )
            job.attempt += 1
            job.state = PENDING
            job.not_before = now + backoff
            return
        self._finalize(job, state, error, value=value, exitcode=exitcode)

    def _finalize(
        self,
        job: _Job,
        state: str,
        error: str | None,
        value=None,
        exitcode: int | None = None,
    ) -> None:
        elapsed = 0.0
        if job.first_started is not None:
            elapsed = time.monotonic() - job.first_started
        job.state = state
        job.result = JobResult(
            job_id=job.spec.job_id,
            state=state,
            value=value,
            error=error,
            attempts=job.attempt + 1 if job.first_started is not None else 0,
            elapsed=elapsed,
            exitcode=exitcode,
            index=job.spec.index,
        )

    # ------------------------------------------------------------------
    # starting workers
    # ------------------------------------------------------------------
    def _start_pending(self, now: float) -> None:
        running = sum(
            1 for j in self._jobs.values() if j.state == RUNNING
        )
        for job_id in self._order:
            if running >= self.config.max_workers:
                return
            job = self._jobs[job_id]
            if job.done or job.state != PENDING or now < job.not_before:
                continue
            self._start(job, now)
            running += 1

    def _start(self, job: _Job, now: float) -> None:
        job.workdir = os.path.join(
            self._root, f"{job.spec.index}-{job.attempt}"
        )
        os.makedirs(job.workdir, exist_ok=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                job.spec,
                job.attempt,
                job.workdir,
                self.config.heartbeat_interval,
            ),
            daemon=True,
            name=f"repro-job-{job.spec.job_id}-{job.attempt}",
        )
        try:
            proc.start()
        except OSError as exc:
            raise SupervisorError(
                f"cannot start worker process for {job.spec.job_id!r}: {exc}"
            ) from exc
        job.proc = proc
        job.state = RUNNING
        job.started = now
        job.last_beat = now
        job.beat_stamp = ""
        if job.first_started is None:
            job.first_started = now
        if self.metrics.enabled:
            self.metrics.emit(
                "job.start",
                job=job.spec.job_id,
                attempt=job.attempt,
                pid=proc.pid,
            )


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
def run_job_in_process(spec: JobSpec) -> JobResult:
    """Last-rung execution: run ``spec`` in this process, no isolation.

    Deadlines and heartbeat reaping cannot be enforced here (there is
    no supervisor left to do the killing); the trade is availability —
    a sweep still completes on a host where processes cannot be
    spawned at all.
    """
    t0 = time.monotonic()
    kwargs = dict(spec.kwargs)
    if spec.with_context:
        kwargs["ctx"] = JobContext(
            job_id=spec.job_id, attempt=0, checkpoint_path=spec.checkpoint_path
        )
    try:
        value = spec.fn(*spec.args, **kwargs)
        state, error = DONE, None
    except Exception:
        import traceback

        state, error, value = FAILED, traceback.format_exc(), None
    return JobResult(
        job_id=spec.job_id,
        state=state,
        value=value,
        error=error,
        attempts=1,
        elapsed=time.monotonic() - t0,
        index=spec.index,
    )


def run_jobs(
    specs,
    max_workers: int = 1,
    config: SupervisorConfig | None = None,
    metrics=NULL,
    mp_context=None,
) -> list:
    """Run ``specs`` supervised, degrading gracefully, results in order.

    The ladder: a normal :class:`Supervisor` first; if it breaks (its
    own machinery, never a job), a **fresh supervisor** takes over the
    unfinished jobs; if that breaks too, the remainder runs
    **in-process sequentially**.  Each step emits a ``job.degrade``
    event, so a degraded sweep is visible in telemetry rather than
    silently slower.
    """
    specs = list(specs)
    cfg = config if config is not None else SupervisorConfig(
        max_workers=max_workers
    )
    results: dict = {}
    remaining = specs
    for rung in ("supervisor", "fresh-supervisor"):
        if not remaining:
            break
        sup = Supervisor(cfg, metrics=metrics, mp_context=mp_context)
        try:
            for result in sup.run(remaining):
                results[result.job_id] = result
            remaining = []
        except SupervisorError as exc:
            for result in sup.results():
                results[result.job_id] = result
            remaining = [s for s in remaining if s.job_id not in results]
            next_rung = (
                "fresh-supervisor" if rung == "supervisor" else "in-process"
            )
            if metrics.enabled:
                metrics.emit("job.degrade", rung=next_rung, reason=str(exc))
            logger.error(
                "supervisor broke (%s); degrading to %s for %d jobs",
                exc, next_rung, len(remaining),
            )
        finally:
            sup.close()
    if remaining:
        for spec in remaining:
            results[spec.job_id] = run_job_in_process(spec)
    return [results[s.job_id] for s in specs]
