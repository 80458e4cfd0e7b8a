"""Worker-side runtime of the supervised job executor.

:func:`worker_main` is the ``multiprocessing.Process`` target: it runs
one job attempt in a fresh process and communicates with the
supervisor through two files in the attempt's scratch directory —

``heartbeat``
    Touched (mtime-updated) whenever the job reaches a progress point
    (:func:`repro.utils.heartbeat.beat` sites in the flow loops).  The
    supervisor reads staleness off the mtime, so a SIGKILL'd or
    C-looping worker needs no cooperation to be detected.
``result``
    The attempt's outcome, pickled and written atomically (temp file +
    ``os.replace``), so a worker killed mid-write leaves *no* result
    file rather than a torn one — the supervisor treats absence as a
    crash.

Files survive where pipes do not: a SIGKILL'd worker cannot flush a
pipe, but everything it already wrote to disk remains observable.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback

from repro.jobs.spec import DONE, FAILED, JobContext, JobSpec
from repro.utils import faults, heartbeat

#: Scratch-file names inside one attempt directory.
HEARTBEAT_FILE = "heartbeat"
RESULT_FILE = "result"


class WorkerRuntime:
    """Per-attempt in-worker state: throttled progress beats."""

    def __init__(self, workdir: str, interval: float = 0.1) -> None:
        self.heartbeat_path = os.path.join(workdir, HEARTBEAT_FILE)
        self.interval = interval
        self._last = float("-inf")
        self._beats = 0

    def beat(self, force: bool = False) -> None:
        """Record progress in the heartbeat file (throttled).

        Installed as the process-wide :mod:`repro.utils.heartbeat`
        handler; the throttle keeps hot flow loops from paying a
        syscall per iteration.
        """
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        self._beats += 1
        with open(self.heartbeat_path, "w") as fh:
            fh.write(str(self._beats))


def write_result(workdir: str, payload: dict) -> None:
    """Atomically persist an attempt outcome for the supervisor."""
    path = os.path.join(workdir, RESULT_FILE)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def read_result(workdir: str):
    """Load an attempt outcome; ``None`` when absent or unreadable.

    An unreadable file is equivalent to a missing one — both mean the
    worker did not complete a clean handoff (crash semantics).
    """
    path = os.path.join(workdir, RESULT_FILE)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None


def worker_main(
    spec: JobSpec, attempt: int, workdir: str, heartbeat_interval: float
) -> None:
    """Process entry point: run one attempt of ``spec`` to completion.

    Never raises (the process exit code stays 0 whenever the job
    function returns or raises); the result file carries ``state`` =
    ``done`` | ``failed`` plus the value or traceback.  Involuntary
    deaths (SIGKILL, SIGTERM, hard timeouts) leave no result file at
    all — that is the supervisor's crash signal.
    """
    runtime = WorkerRuntime(workdir, interval=heartbeat_interval)
    heartbeat.set_handler(runtime.beat)
    runtime.beat(force=True)

    injector = None
    plans = faults.plans_for_attempt(spec.fault_plans, attempt)
    if plans:
        injector = faults.FaultInjector()
        for plan in plans:
            injector.add(plan)
        faults.install(injector)

    state, value, error = DONE, None, None
    try:
        kwargs = dict(spec.kwargs)
        if spec.with_context:
            kwargs["ctx"] = JobContext(
                job_id=spec.job_id,
                attempt=attempt,
                checkpoint_path=spec.checkpoint_path,
            )
        value = spec.fn(*spec.args, **kwargs)
    except BaseException:
        state, error = FAILED, traceback.format_exc()
    finally:
        if injector is not None:
            faults.uninstall()
        heartbeat.clear_handler()
    write_result(workdir, {"state": state, "value": value, "error": error})
