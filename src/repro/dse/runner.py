"""Sweep execution: run grid units in-process or supervised.

This is the one sweep runner: ``repro dse run`` drives it with a spec
file and ``repro bench`` with the Table I / II specs of
:func:`repro.bench.harness.table_spec`.  Both execution paths share the
same deterministic unit list from :func:`repro.dse.grid.make_units`:

* ``jobs <= 1`` — plain in-process loop (bit-identical baseline);
* ``jobs > 1`` — one :class:`~repro.jobs.spec.JobSpec` per unit
  dispatched through :func:`repro.jobs.run_jobs`, inheriting the
  supervisor's deadlines, hung-worker reaping and retry-with-resume.

Every unit produces a JSON payload (``dse_unit: 1``) that
:class:`repro.dse.store.RunDB` ingests; :func:`run_grid` writes the
payloads plus a sweep manifest under ``out_dir`` and, when ``db_path``
is given, ingests them immediately.  A unit never raises: a failing
unit — an exception, or a worker the supervisor reaped — is a payload
with ``error`` set, so a sweep always reports every unit in order.

Fault-injection hook: each unit fires the ``bench.design.<design>``
fault site before running its flows, with the sweep's
:class:`~repro.utils.faults.FaultPlan` objects installed (plans with
``attempts=N`` stop firing on retries).  Tests use this to crash,
hang or SIGKILL one specific design of a supervised sweep.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.dse.grid import DseUnit, GridSpec, apply_knobs, make_units


def _unit_stem(unit_id: str) -> str:
    """Filesystem-safe name for a unit id (payload file, checkpoint dir)."""
    return unit_id.replace(":", "__").replace("/", "_")


def _unit_payload(unit: DseUnit, **fields) -> dict:
    """A unit payload: the unit's identity plus its outcome ``fields``."""
    return {
        "dse_unit": 1,
        "sweep": unit.unit_id.split(":", 1)[0],
        "unit_id": unit.unit_id,
        "unit_index": unit.index,
        "point": unit.point,
        "design": unit.design,
        "knobs": dict(unit.knobs),
        "placers": list(unit.placers),
        **fields,
    }


def run_unit(unit: DseUnit, ctx=None, fault_plans: tuple = (),
             checkpoint_dir: str | None = None) -> dict:
    """Execute one sweep unit; never raises.

    Telemetry goes to a private in-memory registry whose events ride
    back on the payload, and exceptions — injected faults included —
    become traceback strings.  ``fault_plans`` are installed for the
    unit's duration, filtered for the attempt.

    ``ctx`` is the supervised runtime's
    :class:`~repro.jobs.spec.JobContext`.  On a retry the flows resume
    from their checkpoints under ``checkpoint_dir`` and the unit's
    ``run.start`` carries an ``attempt`` field; first attempts emit
    the exact in-process stream.  The payload's ``attempts`` counts
    this attempt; ``job_state`` is set by the supervised path only.
    """
    from repro.utils import faults
    from repro.utils.metrics import MemorySink, MetricsRegistry

    attempt = ctx.attempt if ctx is not None else 0
    t0 = time.perf_counter()
    sink = MemorySink()
    metrics = MetricsRegistry(sink=sink)
    start_fields = dict(command="dse", sweep=unit.unit_id.split(":", 1)[0],
                        design=unit.design, shard=unit.index)
    if attempt > 0:
        start_fields["attempt"] = attempt
    metrics.start_run(**start_fields)
    error = None
    rows: list = []
    plans = faults.plans_for_attempt(fault_plans, attempt)
    try:
        with faults.injected(*plans) if plans else nullcontext():
            faults.fire(f"bench.design.{unit.design}")
            binding = apply_knobs(unit.knobs)
            rows = _run_unit_flow(unit, binding, metrics, checkpoint_dir,
                                  resume=attempt > 0)
    except BaseException:
        error = traceback.format_exc()
    metrics.close()
    return _unit_payload(
        unit,
        rows=rows,
        events=[json.loads(line) for line in sink.lines],
        error=error,
        elapsed_s=time.perf_counter() - t0,
        attempts=attempt + 1,
        job_state=None,
    )


def _run_unit_flow(unit: DseUnit, binding, metrics, checkpoint_dir,
                   resume: bool) -> list:
    """Generate the design and run the bench flow under the binding."""
    from repro.bench.harness import run_design, table_rows
    from repro.synth.suite import suite_design

    netlist = suite_design(unit.design, scale=unit.scale, seed=unit.seed)
    outcome = run_design(
        netlist,
        placers=unit.placers,
        gp_config=binding.gp_config,
        rd_config=binding.rd_config,
        metrics=metrics,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    return [
        {"design": row.design, "placer": row.placer, "metrics": dict(row.metrics)}
        for row in table_rows([outcome])
    ]


@dataclass
class GridResult:
    """Everything a finished sweep produced."""

    spec: GridSpec
    units: list
    payloads: list
    events: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def errors(self) -> list:
        """``(unit_id, error)`` pairs for units that failed."""
        return [(p["unit_id"], p["error"]) for p in self.payloads
                if p["error"]]

    @property
    def rows(self) -> list:
        """Metric-row dicts of every unit, in unit order."""
        return [row for p in self.payloads for row in p["rows"]]

    @property
    def unit_events(self) -> list:
        """The units' telemetry segments concatenated in unit order.

        Each segment is a complete registry run (``run.start`` at
        ``seq == 0`` through ``run.end``), so the concatenation is one
        schema-valid multi-segment stream.  A unit whose worker died
        contributes no segment.
        """
        return [event for p in self.payloads for event in p["events"]]


def _sweep_events(spec: GridSpec, units: list) -> list:
    """Emit the sweep-level ``dse.*`` telemetry segment."""
    from repro.utils.metrics import MemorySink, MetricsRegistry

    sink = MemorySink()
    metrics = MetricsRegistry(sink=sink)
    metrics.start_run(command="dse.sweep", sweep=spec.name)
    n_points = len({u.point for u in units})
    metrics.emit("dse.sweep", sweep=spec.name, n_units=len(units),
                 n_points=n_points, n_designs=len(spec.designs))
    for unit in units:
        metrics.emit("dse.shard", sweep=spec.name, unit=unit.unit_id,
                     index=unit.index, design=unit.design)
    metrics.close()
    return [json.loads(line) for line in sink.lines]


def run_grid(spec: GridSpec, jobs: int = 1, out_dir=None, db_path=None,
             job_timeout: float | None = None,
             heartbeat_timeout: float | None = None,
             max_retries: int = 1,
             checkpoint_dir: str | None = None,
             fault_plans: tuple = ()) -> GridResult:
    """Run every unit of a grid spec; optionally persist and ingest.

    With ``jobs > 1`` the units run under the supervised job runtime
    (one worker process per unit, ``jobs`` at a time); the supervisor's
    own ``job.*`` lifecycle segment is appended to the sweep events.
    Unit payload order always matches unit order, independent of worker
    completion order.

    ``job_timeout`` / ``heartbeat_timeout`` / ``max_retries`` configure
    the supervisor (pooled runs only): a per-unit wall-clock deadline,
    the silence after which a unit counts as hung, and the replacement
    attempts after an involuntary worker death.  Unit *exceptions* are
    terminal — deterministic outcomes, not flakes.  With
    ``checkpoint_dir`` each unit checkpoints its flows under
    ``<checkpoint_dir>/<unit>/`` and a retried unit resumes from there.
    ``fault_plans`` are installed inside every unit (see
    :func:`run_unit`).
    """
    t0 = time.perf_counter()
    units = make_units(spec)
    events = _sweep_events(spec, units)

    if jobs <= 1:
        payloads = [
            run_unit(unit, fault_plans=fault_plans,
                     checkpoint_dir=_unit_checkpoint_dir(checkpoint_dir, unit))
            for unit in units
        ]
    else:
        payloads, sup_events = _run_supervised(
            units, jobs, job_timeout, heartbeat_timeout, max_retries,
            checkpoint_dir, fault_plans)
        events = events + sup_events

    result = GridResult(spec=spec, units=units, payloads=payloads,
                        events=events, elapsed_s=time.perf_counter() - t0)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    if db_path is not None:
        from repro.dse.store import RunDB

        with RunDB(db_path) as db:
            for payload in payloads:
                db.ingest_unit_payload(payload, source=f"sweep:{spec.name}")
    return result


def _unit_checkpoint_dir(checkpoint_dir, unit: DseUnit) -> str | None:
    """The unit's own checkpoint directory under ``checkpoint_dir``."""
    if not checkpoint_dir:
        return None
    return os.path.join(checkpoint_dir, _unit_stem(unit.unit_id))


def _run_supervised(units: list, jobs: int, job_timeout, heartbeat_timeout,
                    max_retries, checkpoint_dir, fault_plans) -> tuple:
    """Dispatch units through :func:`repro.jobs.run_jobs`.

    A unit exception is already captured inside :func:`run_unit`; a job
    that ends in any other state than ``done`` (crashed, hung, timed
    out) gets an error payload carrying the supervisor's reason.
    """
    from repro.jobs import DONE, JobSpec, SupervisorConfig, run_jobs
    from repro.utils.metrics import MemorySink, MetricsRegistry

    sink = MemorySink()
    sup_metrics = MetricsRegistry(sink=sink)
    sup_metrics.start_run(command="dse.supervise", jobs=jobs)
    specs = []
    for unit in units:
        ckpt = _unit_checkpoint_dir(checkpoint_dir, unit)
        specs.append(JobSpec(
            job_id=unit.unit_id, fn=run_unit, args=(unit,),
            kwargs=dict(fault_plans=fault_plans, checkpoint_dir=ckpt),
            with_context=True, checkpoint_path=ckpt, index=unit.index))
    config = SupervisorConfig(max_workers=jobs, timeout=job_timeout,
                              heartbeat_timeout=heartbeat_timeout,
                              max_retries=max_retries)
    job_results = run_jobs(specs, config=config, metrics=sup_metrics)
    sup_metrics.close()

    payloads = []
    for unit, job in zip(units, job_results):
        if job.state == DONE:
            payload = job.value
        else:
            payload = _unit_payload(
                unit, rows=[], events=[],
                error=job.error or f"job ended in state {job.state!r}",
                elapsed_s=job.elapsed)
        payload.update(attempts=job.attempts, job_state=job.state)
        payloads.append(payload)
    return payloads, [json.loads(line) for line in sink.lines]


def _write_outputs(result: GridResult, out_dir) -> None:
    """Write unit payloads, the manifest, and the sweep event stream."""
    out = Path(out_dir)
    units_dir = out / "units"
    units_dir.mkdir(parents=True, exist_ok=True)
    for payload in result.payloads:
        path = units_dir / (_unit_stem(payload["unit_id"]) + ".json")
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest = {
        "spec": result.spec.as_dict(),
        "units": [u.as_dict() for u in result.units],
        "errors": [{"unit_id": u, "error": e} for u, e in result.errors],
        "elapsed_s": result.elapsed_s,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with (out / "sweep.jsonl").open("w") as fh:
        for event in result.events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
