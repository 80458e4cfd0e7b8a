"""Sweep execution: run grid units in-process or one process per unit.

This is the one sweep runner: ``repro dse run`` drives it with a spec
file and ``repro bench`` with the Table I / II specs of
:func:`repro.bench.harness.table_spec`.  Both execution paths share the
same deterministic unit list from :func:`repro.dse.grid.make_units`:

* ``jobs <= 1`` — plain in-process loop (bit-identical baseline);
* ``jobs > 1`` — one process per unit, at most ``jobs`` alive at a
  time (:func:`_run_pool`); each sends its payload back over a pipe.

Every unit produces a JSON payload (``dse_unit: 1``) that
:class:`repro.dse.store.RunDB` ingests; :func:`run_grid` writes the
payloads plus a sweep manifest under ``out_dir`` and, when ``db_path``
is given, ingests them immediately.  A unit never raises: a failing
unit — an exception, or a unit process that exited without sending a
result — is a payload with ``error`` set, so a sweep always reports
every unit in order.  There are no retries and no timeouts.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path

from repro.dse.grid import DseUnit, GridSpec, apply_knobs, make_units


def _unit_stem(unit_id: str) -> str:
    """Filesystem-safe name for a unit id (payload file name)."""
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


def run_unit(unit: DseUnit) -> dict:
    """Execute one sweep unit; never raises.

    Telemetry goes to a private in-memory registry whose events ride
    back on the payload, and exceptions become traceback strings, so
    the unit emits the same stream in-process and in a pool process.
    """
    from repro.utils.metrics import MemorySink, MetricsRegistry

    t0 = time.perf_counter()
    sink = MemorySink()
    metrics = MetricsRegistry(sink=sink)
    metrics.start_run(command="dse", sweep=unit.unit_id.split(":", 1)[0],
                      design=unit.design, shard=unit.index)
    error = None
    rows: list = []
    try:
        rows = _run_unit_flow(unit, apply_knobs(unit.knobs), metrics)
    except BaseException:
        error = traceback.format_exc()
    metrics.close()
    return _unit_payload(
        unit,
        rows=rows,
        events=[json.loads(line) for line in sink.lines],
        error=error,
        elapsed_s=time.perf_counter() - t0,
    )


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
        schema-valid multi-segment stream.  A unit whose process died
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


def run_grid(spec: GridSpec, jobs: int = 1, out_dir=None,
             db_path=None) -> GridResult:
    """Run every unit of a grid spec; optionally persist and ingest.

    With ``jobs > 1`` each unit runs in its own process, ``jobs`` at a
    time.  Unit payload order always matches unit order, independent
    of completion order.
    """
    t0 = time.perf_counter()
    units = make_units(spec)
    events = _sweep_events(spec, units)
    if jobs <= 1:
        payloads = [run_unit(unit) for unit in units]
    else:
        payloads = _run_pool(run_unit, units, jobs)

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


def _pool_main(fn, unit: DseUnit, conn) -> None:
    """Unit process body: send ``fn(unit)`` back to the parent."""
    conn.send(fn(unit))
    conn.close()


def _run_pool(fn, units: list, jobs: int) -> list:
    """``fn(unit)`` for every unit, one process each, ``jobs`` at a time.

    Each process sends its payload back over a pipe, which is read
    before the process is joined: a payload with its events can be
    MBs, more than a pipe buffers.  A process that exits without
    sending one (killed, ``os._exit``, an exception escaping ``fn``)
    gets an error payload naming its exit code; the other units still
    complete, and payloads come back in unit order.  ``fn`` is
    :func:`run_unit` except in tests.
    """
    ctx = multiprocessing.get_context()
    payloads: list = [None] * len(units)
    queue = deque(enumerate(units))
    running: dict = {}  # receiving end -> (index, process, start time)
    while queue or running:
        while queue and len(running) < jobs:
            index, unit = queue.popleft()
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pool_main, args=(fn, unit, send),
                               daemon=True, name=f"repro-unit-{index}")
            proc.start()
            # close the parent's write end so a dead child reads as EOF
            send.close()
            running[recv] = (index, proc, time.perf_counter())
        for recv in wait(list(running)):
            index, proc, started = running.pop(recv)
            try:
                payloads[index] = recv.recv()
            except (EOFError, OSError):
                pass
            recv.close()
            proc.join()
            if payloads[index] is None:
                payloads[index] = _unit_payload(
                    units[index], rows=[], events=[],
                    error=f"unit process exited with code {proc.exitcode} "
                          "without sending a result",
                    elapsed_s=time.perf_counter() - started)
    return payloads


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
