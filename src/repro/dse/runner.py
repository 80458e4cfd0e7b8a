"""Sweep execution: run grid units in-process or supervised.

Both execution paths share the same deterministic unit list from
:func:`repro.dse.grid.make_units`:

* ``jobs <= 1`` — plain in-process loop (bit-identical baseline);
* ``jobs > 1`` — one :class:`~repro.jobs.spec.JobSpec` per unit
  dispatched through :func:`repro.jobs.run_jobs`, inheriting the
  supervisor's deadlines, hung-worker reaping and retry-with-resume.

Every unit produces a JSON payload (``dse_unit: 1``) that
:class:`repro.dse.store.RunDB` ingests; :func:`run_grid` writes the
payloads plus a sweep manifest under ``out_dir`` and, when ``db_path``
is given, ingests them immediately.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.dse.grid import DseUnit, GridSpec, apply_knobs, make_units


def _unit_filename(unit_id: str) -> str:
    """Filesystem-safe payload filename for a unit id."""
    return unit_id.replace(":", "__").replace("/", "_") + ".json"


def run_unit(unit: DseUnit, ctx=None) -> dict:
    """Execute one sweep unit; never raises.

    Mirrors :func:`repro.bench.parallel.run_sweep_task`: telemetry goes
    to a private in-memory registry whose events ride back on the
    payload, and exceptions become traceback strings.
    """
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
    try:
        binding = apply_knobs(unit.knobs)
        rows = _run_unit_flow(unit, binding, metrics)
    except BaseException:
        error = traceback.format_exc()
    metrics.close()
    events = [json.loads(line) for line in sink.lines]
    return {
        "dse_unit": 1,
        "sweep": unit.unit_id.split(":", 1)[0],
        "unit_id": unit.unit_id,
        "unit_index": unit.index,
        "point": unit.point,
        "design": unit.design,
        "knobs": dict(unit.knobs),
        "placers": list(unit.placers),
        "rows": rows,
        "events": events,
        "error": error,
        "elapsed_s": time.perf_counter() - t0,
    }


def _run_unit_flow(unit: DseUnit, binding, metrics) -> list:
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
                if p and p.get("error")]


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
             max_retries: int = 1) -> GridResult:
    """Run every unit of a grid spec; optionally persist and ingest.

    With ``jobs > 1`` the units run under the supervised job runtime
    (one worker process per unit, ``jobs`` at a time); the supervisor's
    own ``job.*`` lifecycle segment is appended to the sweep events.
    Unit payload order always matches unit order, independent of worker
    completion order.
    """
    t0 = time.perf_counter()
    units = make_units(spec)
    events = _sweep_events(spec, units)

    if jobs <= 1:
        payloads = [run_unit(unit) for unit in units]
    else:
        payloads, sup_events = _run_supervised(
            units, jobs, job_timeout, heartbeat_timeout, max_retries)
        events = events + sup_events

    result = GridResult(spec=spec, units=units, payloads=payloads,
                        events=events, elapsed_s=time.perf_counter() - t0)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    if db_path is not None:
        from repro.dse.store import RunDB

        with RunDB(db_path) as db:
            for payload in payloads:
                if payload is not None:
                    db.ingest_unit_payload(payload, source=f"sweep:{spec.name}")
    return result


def _run_supervised(units: list, jobs: int, job_timeout, heartbeat_timeout,
                    max_retries) -> tuple:
    """Dispatch units through :func:`repro.jobs.run_jobs`."""
    from repro.jobs import DONE, JobSpec, SupervisorConfig, run_jobs
    from repro.utils.metrics import MemorySink, MetricsRegistry

    sink = MemorySink()
    sup_metrics = MetricsRegistry(sink=sink)
    sup_metrics.start_run(command="dse.supervise", jobs=jobs)
    specs = [
        JobSpec(job_id=unit.unit_id, fn=run_unit, args=(unit,),
                with_context=True, index=unit.index)
        for unit in units
    ]
    config = SupervisorConfig(max_workers=jobs, timeout=job_timeout,
                              heartbeat_timeout=heartbeat_timeout,
                              max_retries=max_retries)
    job_results = run_jobs(specs, config=config, metrics=sup_metrics)
    sup_metrics.close()

    payloads = []
    for unit, job in zip(units, job_results):
        if job is not None and job.state == DONE and job.value is not None:
            payloads.append(job.value)
        else:
            state = job.state if job is not None else "lost"
            error = (job.error if job is not None else None) \
                or f"job ended in state {state!r}"
            payloads.append({
                "dse_unit": 1,
                "sweep": unit.unit_id.split(":", 1)[0],
                "unit_id": unit.unit_id,
                "unit_index": unit.index,
                "point": unit.point,
                "design": unit.design,
                "knobs": dict(unit.knobs),
                "placers": list(unit.placers),
                "rows": [],
                "events": [],
                "error": error,
                "elapsed_s": job.elapsed if job is not None else 0.0,
            })
    return payloads, [json.loads(line) for line in sink.lines]


def _write_outputs(result: GridResult, out_dir) -> None:
    """Write unit payloads, the manifest, and the sweep event stream."""
    out = Path(out_dir)
    units_dir = out / "units"
    units_dir.mkdir(parents=True, exist_ok=True)
    for payload in result.payloads:
        if payload is None:
            continue
        path = units_dir / _unit_filename(payload["unit_id"])
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
