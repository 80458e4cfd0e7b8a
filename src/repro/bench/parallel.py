"""Sharded parallel experiment runner for the Table I / II sweeps.

Fans the designs of a sweep across a process pool
(:func:`run_sweep`), one design per task, with three contracts the
sequential scripts never had to state:

* **deterministic ordering** — results come back in input order no
  matter which worker finishes first, so the emitted rows, the merged
  metrics stream and the JSON payloads are byte-stable for a given
  design list;
* **per-design failure isolation** — a design that raises (or whose
  worker process dies) produces a :class:`DesignRun` carrying the
  traceback instead of killing the sweep; the remaining designs still
  run and report;
* **merged telemetry** — every worker records its design's events into
  a private in-memory :class:`~repro.utils.metrics.MetricsRegistry`
  segment (``run.start`` … ``run.end``); the parent concatenates the
  segments in input order into one schema-valid stream
  (:func:`merge_event_segments` — ``validate_stream`` accepts the
  result because sequence numbers restart per segment).

Workers regenerate their design from ``(name, scale, seed)`` instead
of receiving a pickled netlist, so task payloads stay tiny.  With
``jobs <= 1`` everything runs in-process (no pool, no pickling), which
is also the deterministic fallback when a pool breaks.

Supervision: the pooled path runs on the :mod:`repro.jobs` runtime —
one supervised process per design with wall-clock deadlines
(``job_timeout``), hung-worker detection (``heartbeat_timeout``
against the flow's progress beats) and retry-with-backoff for
involuntary deaths (``max_retries``); with a ``checkpoint_dir``,
retried designs warm-start their routability loop from the last
atomic checkpoint instead of recomputing.  Supervisor lifecycle
telemetry (``job.*`` events) lands in a *separate* stream
(:attr:`SweepResult.supervisor_events`), never inside the per-design
worker segments, so the merged design stream of an unfaulted sweep is
bit-identical whether or not it was supervised.

Fault-injection hook: each worker fires the ``bench.design.<name>``
fault site before running its design, and installs any
:class:`~repro.utils.faults.FaultPlan` objects carried by the task for
the duration of that design (plans with ``attempts=N`` stop firing on
retries).  Tests use this to crash, hang, SIGKILL or tear one specific
design of a pooled sweep and assert the isolation contract.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field

from repro.utils.logging import get_logger

logger = get_logger("bench.parallel")

#: Default design list of the Table II ablation sweep — the congested
#: half of the suite (congestion techniques only act where congestion
#: exists; see ``scripts/run_table2.py``).
TABLE2_DESIGNS = (
    "des_perf_1",
    "des_perf_a",
    "edit_dist_a",
    "fft_b",
    "matrix_mult_1",
    "matrix_mult_b",
    "superblue12",
    "superblue19",
)


@dataclass
class SweepTask:
    """One design's work order, small enough to pickle cheaply."""

    index: int
    kind: str  # "table1" | "table2"
    name: str
    scale: float = 1.0
    seed: int = 0
    placers: tuple = ()
    gp_config: object = None
    rd_config: object = None
    eval_config: object = None
    fault_plans: tuple = ()
    #: Per-design checkpoint directory (one file per flow); retried
    #: attempts resume from it.  ``None`` disables checkpointing.
    checkpoint_dir: str | None = None


@dataclass
class DesignRun:
    """Outcome of one design: rows + telemetry segment, or an error.

    ``attempts``/``job_state`` describe the supervised execution
    (how many worker attempts the design consumed and the terminal
    job state); ``job_state`` stays ``None`` for unsupervised
    (in-process) runs.
    """

    design: str
    index: int
    rows: list = field(default_factory=list)
    events: list = field(default_factory=list)
    error: str | None = None
    elapsed: float = 0.0
    attempts: int = 1
    job_state: str | None = None

    @property
    def ok(self) -> bool:
        """True when the design completed without an error."""
        return self.error is None


@dataclass
class SweepResult:
    """All design runs of one sweep, in input order.

    ``supervisor_events`` is the supervisor's own ``job.*`` lifecycle
    stream (submit/start/end/timeout/hung/crashed/retry/degrade) —
    kept separate from the per-design worker segments so the merged
    design stream stays bit-identical to an unsupervised run.
    """

    runs: list = field(default_factory=list)
    jobs: int = 1
    elapsed: float = 0.0
    supervisor_events: list = field(default_factory=list)

    def rows(self) -> list:
        """Metric-row dicts of the successful designs, input-ordered."""
        return [row for run in self.runs for row in run.rows]

    def errors(self) -> list:
        """The failed :class:`DesignRun` entries."""
        return [run for run in self.runs if not run.ok]

    def events(self) -> list:
        """One merged, schema-valid event stream across all designs."""
        return merge_event_segments([run.events for run in self.runs])

    def error_payload(self) -> list:
        """JSON-ready error entries for bench payloads."""
        return [
            {"design": run.design, "index": run.index, "error": run.error}
            for run in self.errors()
        ]


def merge_event_segments(segments: list) -> list:
    """Concatenate per-design event segments into one stream.

    Each segment is a complete registry run (``run.start`` at
    ``seq == 0`` through ``run.end``); concatenation in input order is
    exactly the multi-segment stream format the resume path already
    produces, so ``validate_stream`` accepts the result unchanged.
    """
    merged: list = []
    for segment in segments:
        merged.extend(segment)
    return merged


def write_events_jsonl(path: str, events: list) -> None:
    """Write a merged event stream as JSONL (one object per line)."""
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def _metric_rows_as_dicts(rows: list) -> list:
    return [
        {"design": r.design, "placer": r.placer, "metrics": dict(r.metrics)}
        for r in rows
    ]


def run_sweep_task(task: SweepTask, ctx=None) -> DesignRun:
    """Execute one design end to end; never raises.

    Runs in a supervised worker (or in-process for ``jobs <= 1``).
    Telemetry goes to a private in-memory registry whose parsed events
    ride back on the :class:`DesignRun`; any exception — including
    injected faults — is captured as a traceback string.

    ``ctx`` is the supervised runtime's
    :class:`~repro.jobs.spec.JobContext`: on a retry attempt the task's
    fault plans are re-filtered (``attempts``-limited plans stop
    firing), the flows resume from their checkpoints, and the design's
    ``run.start`` event carries an ``attempt`` field — first attempts
    emit the exact pre-supervision stream, bit for bit.
    """
    from repro.utils import faults
    from repro.utils.metrics import MemorySink, MetricsRegistry

    attempt = ctx.attempt if ctx is not None else 0
    t0 = time.perf_counter()
    sink = MemorySink()
    metrics = MetricsRegistry(sink=sink)
    start_fields = dict(
        command="bench", sweep=task.kind, design=task.name, shard=task.index
    )
    if attempt > 0:
        start_fields["attempt"] = attempt
    metrics.start_run(**start_fields)
    error = None
    rows: list = []
    injector = None
    try:
        plans = faults.plans_for_attempt(task.fault_plans, attempt)
        if plans:
            injector = faults.FaultInjector()
            for plan in plans:
                injector.add(plan)
            faults.install(injector)
        faults.fire(f"bench.design.{task.name}")
        rows = _run_design_task(task, metrics, resume=attempt > 0)
    except BaseException:
        error = traceback.format_exc()
    finally:
        if injector is not None:
            faults.uninstall()
    metrics.close()
    events = [json.loads(line) for line in sink.lines]
    return DesignRun(
        design=task.name,
        index=task.index,
        rows=rows,
        events=events,
        error=error,
        elapsed=time.perf_counter() - t0,
    )


def _run_design_task(task: SweepTask, metrics, resume: bool = False) -> list:
    """Generate the design and run the requested sweep kind on it."""
    from repro.bench.harness import (
        PLACERS,
        run_ablation_on_design,
        run_design,
        table_rows,
    )
    from repro.synth.suite import suite_design

    netlist = suite_design(task.name, scale=task.scale, seed=task.seed)
    if task.kind == "table1":
        outcome = run_design(
            netlist,
            placers=task.placers or PLACERS,
            gp_config=task.gp_config,
            rd_config=task.rd_config,
            eval_config=task.eval_config,
            metrics=metrics,
            checkpoint_dir=task.checkpoint_dir,
            resume=resume,
        )
        return _metric_rows_as_dicts(table_rows([outcome]))
    if task.kind == "table2":
        return _metric_rows_as_dicts(
            run_ablation_on_design(
                netlist,
                gp_config=task.gp_config,
                eval_config=task.eval_config,
                checkpoint_dir=task.checkpoint_dir,
                resume=resume,
            )
        )
    raise ValueError(f"unknown sweep kind {task.kind!r}")


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_sweep(
    names: list,
    kind: str = "table1",
    jobs: int = 1,
    scale: float = 1.0,
    seed: int = 0,
    placers: tuple = (),
    gp_config=None,
    rd_config=None,
    eval_config=None,
    fault_plans: tuple = (),
    metrics_path: str | None = None,
    job_timeout: float | None = None,
    heartbeat_timeout: float | None = None,
    max_retries: int = 1,
    checkpoint_dir: str | None = None,
) -> SweepResult:
    """Run a sweep over ``names``, fanning designs across ``jobs`` workers.

    Parameters
    ----------
    names:
        Design names (``repro.synth.suite``) in the order results are
        reported.
    kind:
        ``"table1"`` (placer comparison) or ``"table2"`` (ablation).
    jobs:
        Worker processes.  ``jobs <= 1`` runs in-process.  Wall-clock
        scales with physical cores — a single-core host sees parity,
        not a win.
    fault_plans:
        :class:`~repro.utils.faults.FaultPlan` tuple installed inside
        each worker for its design (tests target one design via the
        ``bench.design.<name>`` site).
    metrics_path:
        When set, the merged per-design telemetry stream is written
        there as JSONL after the sweep.
    job_timeout:
        Per-design wall-clock deadline in seconds, enforced by the
        supervisor (pooled runs only); ``None`` = no limit.
    heartbeat_timeout:
        Maximum silence (seconds without a flow progress beat) before
        a pooled design counts as hung and is reaped; ``None``
        disables hung detection.
    max_retries:
        Replacement attempts after an involuntary worker death
        (crash / hang / timeout).  Design *exceptions* are terminal —
        they are deterministic outcomes, not flakes.
    checkpoint_dir:
        When set, each design checkpoints its flows under
        ``<checkpoint_dir>/<index>_<name>/`` and supervised retries
        resume from there instead of recomputing.

    Returns
    -------
    SweepResult
        Per-design runs in input order; failed designs carry their
        traceback in :attr:`DesignRun.error` instead of raising, and
        designs whose *worker* died carry the supervisor's structured
        reason plus the terminal :attr:`DesignRun.job_state`.
    """
    if kind not in ("table1", "table2"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    tasks = [
        SweepTask(
            index=i,
            kind=kind,
            name=name,
            scale=scale,
            seed=seed,
            placers=tuple(placers),
            gp_config=gp_config,
            rd_config=rd_config,
            eval_config=eval_config,
            fault_plans=tuple(fault_plans),
            checkpoint_dir=(
                os.path.join(checkpoint_dir, f"{i:02d}_{name}")
                if checkpoint_dir
                else None
            ),
        )
        for i, name in enumerate(names)
    ]
    t0 = time.perf_counter()
    supervisor_events: list = []
    if jobs <= 1 or len(tasks) <= 1:
        runs = [run_sweep_task(task) for task in tasks]
    else:
        runs, supervisor_events = _run_supervised(
            tasks,
            jobs,
            job_timeout=job_timeout,
            heartbeat_timeout=heartbeat_timeout,
            max_retries=max_retries,
        )
    result = SweepResult(
        runs=runs,
        jobs=max(1, jobs),
        elapsed=time.perf_counter() - t0,
        supervisor_events=supervisor_events,
    )
    for run in result.runs:
        status = "ok" if run.ok else "FAILED"
        logger.info("%s %s in %.1fs", run.design, status, run.elapsed)
    if metrics_path:
        write_events_jsonl(metrics_path, result.events())
    return result


def _run_supervised(
    tasks: list,
    jobs: int,
    job_timeout: float | None = None,
    heartbeat_timeout: float | None = None,
    max_retries: int = 1,
) -> tuple:
    """Dispatch tasks to the supervised job runtime; returns
    ``(runs, supervisor_events)``.

    One :class:`~repro.jobs.spec.JobSpec` per design, executed by
    :func:`repro.jobs.run_jobs` — which owns deadlines, hung-worker
    reaping, retry-with-backoff (warm-starting from the task's
    checkpoint directory when it has one) and the degradation ladder
    (replacement worker -> fresh supervisor -> in-process).  A design
    exception is already captured *inside* :func:`run_sweep_task`; a
    job that ends in any other state than ``done`` gets a synthesized
    error entry carrying the supervisor's structured reason, so the
    sweep always reports every design in input order.
    """
    from repro.jobs import DONE, JobSpec, SupervisorConfig, run_jobs
    from repro.utils.metrics import MemorySink, MetricsRegistry

    sink = MemorySink()
    sup_metrics = MetricsRegistry(sink=sink)
    sup_metrics.start_run(command="bench.supervise", jobs=jobs)
    specs = [
        JobSpec(
            job_id=f"{task.name}@{task.index}",
            fn=run_sweep_task,
            args=(task,),
            with_context=True,
            checkpoint_path=task.checkpoint_dir,
            index=task.index,
        )
        for task in tasks
    ]
    config = SupervisorConfig(
        max_workers=jobs,
        timeout=job_timeout,
        heartbeat_timeout=heartbeat_timeout,
        max_retries=max_retries,
    )
    job_results = run_jobs(specs, config=config, metrics=sup_metrics)
    sup_metrics.close()

    runs: list = []
    for task, job in zip(tasks, job_results):
        if job is None:  # pragma: no cover — defensive (skipped job)
            runs.append(
                DesignRun(
                    design=task.name,
                    index=task.index,
                    error="job produced no result",
                    job_state="lost",
                )
            )
            continue
        if job.state == DONE and job.value is not None:
            run = job.value
            run.attempts = job.attempts
            run.job_state = job.state
        else:
            logger.warning(
                "design %s ended %s after %d attempt(s): %s",
                task.name, job.state, job.attempts, job.error,
            )
            run = DesignRun(
                design=task.name,
                index=task.index,
                error=job.error or f"job ended in state {job.state!r}",
                elapsed=job.elapsed,
                attempts=job.attempts,
                job_state=job.state,
            )
        runs.append(run)
    return runs, [json.loads(line) for line in sink.lines]
