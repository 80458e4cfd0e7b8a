"""The placement service daemon: HTTP API + scheduler + recovery.

One :class:`PlacementService` owns a service root directory::

    <root>/service.json     daemon address file (pid/host/port)
    <root>/service.jsonl    the daemon's own telemetry stream
    <root>/queue/           persistent queue (one JSON file per job)
    <root>/jobs/<id>/       per-job artifacts: placed.bl, flow.npz
                            (+ .bak), metrics.jsonl

Jobs are accepted over a local HTTP API (JSON in, JSON out), ordered
by the persistent priority queue, and executed by the supervised job
runtime — one worker process per job (``execution="supervised"``, the
default: deadlines, heartbeats, retry-with-resume all enforced by
:class:`~repro.jobs.supervisor.Supervisor`) or inline in the daemon
process (``execution="inline"``: no process isolation, but jobs share
the daemon's warm netlist and spectral-workspace caches, and a daemon
death takes the running job down with it — which is exactly what the
chaos suite exercises).

Crash recovery is rescan-based: every queue mutation is persisted
atomically before it is visible, each flow checkpoints with a ``.bak``
predecessor, and job telemetry appends run segments.  A restarted
daemon re-queues entries found RUNNING (their next run warm-starts
from the checkpoint), emits ``service.recover``, and appends a new
segment to its own stream — so a SIGKILL costs at most the work since
the last checkpoint round, never an accepted job.

The daemon's own stream (``service.jsonl``) carries the queue/runtime
events (``job.queued``, ``job.submit``/``job.start``/``job.end``/...,
``service.*``); per-job *flow* telemetry goes to the job's own
``metrics.jsonl`` and stays byte-identical to a CLI run of the same
design (the conformance suite pins this).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.jobs.spec import (
    JobContext,
    JobSpec,
)
from repro.jobs.spec import (
    CANCELLED as JOB_CANCELLED,
)
from repro.jobs.spec import (
    DONE as JOB_DONE,
)
from repro.jobs.supervisor import Supervisor, SupervisorConfig
from repro.service.cache import ServiceCache
from repro.service.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    PersistentQueue,
)
from repro.service.runner import execute_service_job, validate_job_payload
from repro.utils.logging import get_logger
from repro.utils.metrics import JsonlSink, MetricsConfig, MetricsRegistry

logger = get_logger("service")

#: Daemon address file name under the service root.
ADDRESS_FILE = "service.json"
#: Daemon telemetry stream name under the service root.
SERVICE_STREAM = "service.jsonl"


@dataclass
class ServiceConfig:
    """Daemon policy knobs.

    Attributes
    ----------
    root:
        Service state directory (queue, job artifacts, telemetry).
    host / port:
        Bind address; port 0 picks a free port (read the resolved one
        from ``<root>/service.json``).
    max_workers:
        Concurrent supervised worker processes.
    execution:
        ``"supervised"`` (worker process per job) or ``"inline"``
        (jobs run serially in the daemon process, sharing its warm
        caches; no process isolation).
    job_timeout / heartbeat_timeout / max_retries:
        Supervision policy forwarded to the job runtime (see
        :class:`~repro.jobs.supervisor.SupervisorConfig`).
    poll_interval:
        Scheduler tick period in seconds.
    paused:
        Start with admission paused (jobs queue but do not run until
        :meth:`PlacementService.resume`); the ordering tests use this
        to stage a whole batch before any job starts.
    """

    root: str
    host: str = "127.0.0.1"
    port: int = 0
    max_workers: int = 1
    execution: str = "supervised"
    job_timeout: float | None = None
    heartbeat_timeout: float | None = None
    max_retries: int = 1
    poll_interval: float = 0.05
    paused: bool = False


class _LockedMetrics:
    """Thread-safe facade over a :class:`MetricsRegistry`.

    The daemon's stream is written from HTTP handler threads, the
    scheduler thread and (supervised mode) the supervisor's emissions
    inside scheduler ticks; one lock keeps ``seq`` contiguous.  Emits
    after :meth:`close` are dropped (a late handler thread must not
    raise into a shutdown).
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._lock = threading.RLock()
        self._closed = False

    def emit(self, kind: str, **fields) -> None:
        with self._lock:
            if not self._closed:
                self._registry.emit(kind, **fields)
                self._registry.flush()

    def start_run(self, **fields) -> None:
        with self._lock:
            self._registry.start_run(**fields)
            self._registry.flush()

    def inc(self, name: str, n: float = 1) -> None:
        with self._lock:
            if not self._closed:
                self._registry.inc(name, n)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            if not self._closed:
                self._registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            if not self._closed:
                self._registry.observe(name, value)

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._registry.flush()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._registry.close()


class PlacementService:
    """The long-running daemon behind ``repro serve``.

    Lifecycle: construct, :meth:`start` (binds, recovers the queue,
    spawns the HTTP + scheduler threads, returns immediately),
    :meth:`wait` (block until stopped), :meth:`stop`.  Also usable as
    a context manager (``with PlacementService(cfg) as svc:``) which
    starts on enter and stops on exit.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.root = os.path.abspath(config.root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.queue = PersistentQueue(os.path.join(self.root, "queue"))
        self.cache = ServiceCache()
        stream = os.path.join(self.root, SERVICE_STREAM)
        resumed = os.path.exists(stream)
        self.metrics = _LockedMetrics(
            MetricsRegistry(
                sink=JsonlSink(stream, append=resumed, buffer_lines=1),
                config=MetricsConfig(),
            )
        )
        self.metrics.start_run(command="serve", root=self.root, resumed=resumed)
        self.address: tuple | None = None
        self._paused = config.paused
        self._stop = threading.Event()
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._cancel_lock = threading.Lock()
        self._cancel_intents: set = set()
        self._inline_cancel: threading.Event | None = None
        self._inline_job: str | None = None
        self._draining = False
        self._supervisor: Supervisor | None = None
        self._active: set = set()
        self._httpd = None
        self._http_thread = None
        self._sched_thread = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "PlacementService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop("context-exit")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple:
        """Recover the queue, bind the API, spawn threads; returns
        the bound ``(host, port)``."""
        requeued = self.queue.requeue_incomplete()
        self.metrics.emit("service.recover", requeued=len(requeued))
        if requeued:
            logger.warning(
                "re-queued %d interrupted job(s): %s",
                len(requeued), ", ".join(e.job_id for e in requeued),
            )
        if self.config.execution == "supervised":
            self._supervisor = Supervisor(
                SupervisorConfig(
                    max_workers=self.config.max_workers,
                    timeout=self.config.job_timeout,
                    heartbeat_timeout=self.config.heartbeat_timeout,
                    max_retries=self.config.max_retries,
                ),
                metrics=self.metrics,
            )
        elif self.config.execution != "inline":
            raise ValueError(
                f"unknown execution mode {self.config.execution!r}"
            )
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = self
        self.address = (
            self._httpd.server_address[0], self._httpd.server_address[1]
        )
        self._write_address_file()
        self.metrics.emit(
            "service.start",
            root=self.root,
            address=f"{self.address[0]}:{self.address[1]}",
        )
        logger.info(
            "placement service listening on %s:%d (root %s, %s execution)",
            self.address[0], self.address[1], self.root,
            self.config.execution,
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="repro-service-http",
        )
        self._http_thread.start()
        self._sched_thread = threading.Thread(
            target=self._scheduler, daemon=True, name="repro-service-sched"
        )
        self._sched_thread.start()
        return self.address

    def wait(self) -> None:
        """Block until the daemon is stopped."""
        if self._sched_thread is not None:
            self._sched_thread.join()
        if self._http_thread is not None:
            self._http_thread.join()

    def stop(self, reason: str = "shutdown") -> None:
        """Graceful shutdown: drain, requeue running work, close streams.

        Running jobs are returned to the queue (``resume`` set) so the
        next daemon on this root warm-starts them from their last
        checkpoint; inline jobs are cooperatively interrupted at their
        next progress beat.  Idempotent.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self._draining = True
        self._stop.set()
        cancel = self._inline_cancel
        if cancel is not None:
            cancel.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._sched_thread is not None and (
            threading.current_thread() is not self._sched_thread
        ):
            self._sched_thread.join(timeout=60)
        if self._supervisor is not None:
            self._supervisor.close()
        self.queue.requeue_incomplete()
        self.metrics.emit("service.stop", reason=reason)
        self.metrics.close()
        try:
            os.remove(os.path.join(self.root, ADDRESS_FILE))
        except OSError:
            pass
        logger.info("placement service stopped (%s)", reason)

    def resume(self) -> None:
        """Un-pause admission (see :attr:`ServiceConfig.paused`)."""
        self._paused = False

    def _write_address_file(self) -> None:
        path = os.path.join(self.root, ADDRESS_FILE)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(
                {
                    "pid": os.getpid(),
                    "host": self.address[0],
                    "port": self.address[1],
                },
                fh,
            )
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # submission / cancellation (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def submit_job(self, payload: dict, priority: int = 0,
                   job_id: str | None = None):
        """Validate, persist and enqueue one job; returns its entry.

        The client's request is completed with the daemon-owned
        artifact paths (output, checkpoint, metrics stream) under
        ``<root>/jobs/<id>/`` before it is persisted.
        """
        kind = validate_job_payload(payload)
        entry = self.queue.submit(payload, priority=priority, job_id=job_id)
        prepared = self._prepare_payload(kind, payload, entry.job_id)
        self.queue.update(entry, payload=prepared)
        self.metrics.emit(
            "job.queued", job=entry.job_id, priority=entry.priority,
            queue_seq=entry.seq,
        )
        return entry

    def _prepare_payload(self, kind: str, payload: dict, job_id: str) -> dict:
        jobdir = os.path.join(self.jobs_dir, job_id)
        os.makedirs(jobdir, exist_ok=True)
        request = dict(payload["request"])
        request["input"] = os.path.abspath(request["input"])
        request["metrics_out"] = os.path.join(jobdir, "metrics.jsonl")
        # unbuffered stream so clients can follow a job's events live;
        # the final bytes are identical for any buffer size
        request["metrics_buffer_lines"] = 1
        if kind == "place":
            request.setdefault("out", os.path.join(jobdir, "placed.bl"))
            if request.get("routability"):
                request.setdefault(
                    "checkpoint", os.path.join(jobdir, "flow.npz")
                )
        elif kind == "eco":
            request["baseline"] = os.path.abspath(request["baseline"])
            if request.get("baseline_checkpoint"):
                request["baseline_checkpoint"] = os.path.abspath(
                    request["baseline_checkpoint"]
                )
            request.setdefault("out", os.path.join(jobdir, "eco_placed.bl"))
            # the ECO loop's own resume point: retries and daemon
            # restarts warm-start from it like place jobs do
            request.setdefault("checkpoint", os.path.join(jobdir, "flow.npz"))
        return {"kind": kind, "request": request}

    def request_cancel(self, job_id: str):
        """Request cancellation of one job; returns its (current) entry.

        Queued jobs are cancelled by the next scheduler tick; running
        supervised jobs get the runtime's cooperative-then-forced
        escalation; a running inline job is interrupted at its next
        progress beat.
        """
        entry = self.queue.get(job_id)
        if entry is None:
            raise KeyError(job_id)
        if entry.state in TERMINAL_STATES:
            return entry
        with self._cancel_lock:
            self._cancel_intents.add(job_id)
            if self._inline_job == job_id and self._inline_cancel is not None:
                self.metrics.emit("job.cancel", job=job_id)
                self._inline_cancel.set()
        return entry

    def stats(self) -> dict:
        """Daemon health snapshot for ``GET /stats``."""
        return {
            "queue": self.queue.counts(),
            "cache": self.cache.stats(),
            "execution": self.config.execution,
            "paused": self._paused,
            "pid": os.getpid(),
        }

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def _scheduler(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception:  # pragma: no cover — keep the daemon alive
                logger.exception("scheduler tick failed")
            self._stop.wait(self.config.poll_interval)

    def _take_cancel_intents(self) -> list:
        with self._cancel_lock:
            intents = sorted(self._cancel_intents)
            self._cancel_intents.clear()
        return intents

    def _tick(self) -> None:
        if self._supervisor is not None:
            self._tick_supervised()
        else:
            self._tick_inline()

    # -- supervised ----------------------------------------------------
    def _tick_supervised(self) -> None:
        sup = self._supervisor
        for job_id in self._take_cancel_intents():
            entry = self.queue.get(job_id)
            if entry is None or entry.state in TERMINAL_STATES:
                continue
            if job_id in self._active:
                sup.cancel(job_id)
            elif entry.state == QUEUED:
                self._cancel_queued(entry)
        if not self._paused:
            while len(self._active) < self.config.max_workers:
                entry = self.queue.next_ready()
                if entry is None:
                    break
                self._admit(entry)
        sup.poll()
        for job_id in sorted(self._active):
            entry = self.queue.get(job_id)
            pid = sup.worker_pid(job_id)
            if entry is not None and pid != entry.worker_pid:
                self.queue.update(entry, worker_pid=pid)
        for result in sup.take_completed():
            self._active.discard(result.job_id)
            entry = self.queue.get(result.job_id)
            if entry is None:  # pragma: no cover — queue is authoritative
                continue
            if result.state == JOB_DONE:
                state = DONE
            elif result.state == JOB_CANCELLED:
                state = CANCELLED
            else:
                state = FAILED
            self.queue.update(
                entry,
                state=state,
                job_state=result.state,
                error=result.error,
                result=result.value if isinstance(result.value, dict) else None,
                attempts=entry.attempts + max(0, result.attempts - 1),
                worker_pid=None,
            )

    def _admit(self, entry) -> None:
        request = entry.payload["request"]
        spec = JobSpec(
            job_id=entry.job_id,
            fn=execute_service_job,
            args=(entry.payload,),
            with_context=True,
            timeout=self.config.job_timeout,
            heartbeat_timeout=self.config.heartbeat_timeout,
            max_retries=self.config.max_retries,
            checkpoint_path=request.get("checkpoint"),
            index=entry.seq,
        )
        self.queue.update(
            entry, state=RUNNING, attempts=entry.attempts + 1
        )
        self._active.add(entry.job_id)
        self._supervisor.submit(spec)

    def _cancel_queued(self, entry) -> None:
        self.metrics.emit("job.cancel", job=entry.job_id)
        self.queue.update(
            entry, state=CANCELLED, job_state=JOB_CANCELLED,
            error="cancelled before start",
        )

    # -- inline --------------------------------------------------------
    def _tick_inline(self) -> None:
        from repro.utils import heartbeat

        for job_id in self._take_cancel_intents():
            entry = self.queue.get(job_id)
            if entry is not None and entry.state == QUEUED:
                self._cancel_queued(entry)
        if self._paused:
            return
        entry = self.queue.next_ready()
        if entry is None:
            return
        attempt = entry.attempts
        cancel = threading.Event()
        with self._cancel_lock:
            self._inline_job = entry.job_id
            self._inline_cancel = cancel
        self.queue.update(
            entry, state=RUNNING, attempts=attempt + 1,
            worker_pid=os.getpid(),
        )
        self.metrics.emit(
            "job.start", job=entry.job_id, attempt=attempt, pid=os.getpid()
        )

        def on_beat() -> None:
            if cancel.is_set():
                from repro.jobs.spec import JobCancelled

                raise JobCancelled("service cancel")

        ctx = JobContext(
            job_id=entry.job_id,
            attempt=attempt,
            checkpoint_path=entry.payload["request"].get("checkpoint"),
        )
        t0 = time.monotonic()
        heartbeat.set_handler(on_beat)
        try:
            value = execute_service_job(
                entry.payload, ctx=ctx, cache=self.cache
            )
            state, job_state, error = DONE, JOB_DONE, None
        except BaseException as exc:
            from repro.jobs.spec import FAILED as JOB_FAILED, JobCancelled

            if isinstance(exc, JobCancelled):
                state, job_state = CANCELLED, JOB_CANCELLED
                error, value = f"cancelled: {exc}", None
            else:
                import traceback

                state, job_state = FAILED, JOB_FAILED
                error, value = traceback.format_exc(), None
        finally:
            heartbeat.clear_handler()
            with self._cancel_lock:
                self._inline_job = None
                self._inline_cancel = None
        if state == CANCELLED and self._draining:
            # shutdown drain, not a user cancel: back to the queue so
            # the next daemon warm-starts it from the checkpoint
            self.queue.update(
                entry, state=QUEUED, resume=True, worker_pid=None
            )
        else:
            self.queue.update(
                entry, state=state, job_state=job_state, error=error,
                result=value if isinstance(value, dict) else None,
                worker_pid=None,
            )
        self.metrics.emit(
            "job.end", job=entry.job_id, attempt=attempt, state=job_state,
            elapsed_s=time.monotonic() - t0,
        )


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
def _read_events(path: str, offset: int) -> dict:
    """Parsed JSONL events from ``path`` starting at line ``offset``.

    A torn trailing line (the writer mid-append) is treated as not yet
    available rather than an error.
    """
    events = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    count = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            break
        count += 1
        if count > offset:
            events.append(event)
    return {"events": events, "next_offset": max(count, offset)}


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP request handler for :class:`PlacementService`."""

    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> PlacementService:
        """The owning daemon (attached to the server instance)."""
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        """Route access logs to the repro logger instead of stderr."""
        logger.debug("%s %s", self.address_string(), format % args)

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode())

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        """Serve the read-only routes (health, stats, jobs, events)."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        offset = int(query.get("offset", ["0"])[0])
        svc = self.service
        if parts == ["health"]:
            self._send(200, {"ok": True, **svc.stats()})
        elif parts == ["stats"]:
            self._send(200, svc.stats())
        elif parts == ["events"]:
            self._send(200, _read_events(
                os.path.join(svc.root, SERVICE_STREAM), offset
            ))
        elif parts == ["jobs"]:
            self._send(
                200,
                {"jobs": [e.as_dict() for e in svc.queue.entries()]},
            )
        elif len(parts) >= 2 and parts[0] == "jobs":
            entry = svc.queue.get(parts[1])
            if entry is None:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
            elif len(parts) == 2:
                self._send(200, entry.as_dict())
            elif parts[2] == "events":
                self._send(200, _read_events(
                    entry.payload["request"].get("metrics_out", ""), offset
                ))
            elif parts[2] == "result":
                if entry.state not in TERMINAL_STATES:
                    self._send(409, {
                        "error": f"job {entry.job_id!r} is {entry.state}",
                        "state": entry.state,
                    })
                else:
                    self._send(200, entry.as_dict())
            else:
                self._send(404, {"error": f"unknown route {url.path!r}"})
        else:
            self._send(404, {"error": f"unknown route {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — stdlib casing
        """Serve the mutating routes (submit, cancel, shutdown)."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        svc = self.service
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": f"bad request body: {exc}"})
            return
        if parts == ["jobs"]:
            try:
                entry = svc.submit_job(
                    {
                        "kind": body.get("kind", "place"),
                        "request": body.get("request"),
                    },
                    priority=int(body.get("priority", 0)),
                    job_id=body.get("job_id"),
                )
            except ValueError as exc:
                status = 409 if "duplicate" in str(exc) else 400
                self._send(status, {"error": str(exc)})
                return
            self._send(200, entry.as_dict())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            try:
                entry = svc.request_cancel(parts[1])
            except KeyError:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
                return
            self._send(200, entry.as_dict())
        elif parts == ["shutdown"]:
            self._send(200, {"stopping": True})
            # non-daemon on purpose: a `repro serve` process exits as
            # soon as its scheduler/http threads join, and a daemonic
            # stop would be killed mid-teardown (address file and
            # service.stop event lost)
            threading.Thread(
                target=svc.stop, args=("client-shutdown",), daemon=False
            ).start()
        else:
            self._send(404, {"error": f"unknown route {url.path!r}"})
