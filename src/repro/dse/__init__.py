"""Design-space-exploration harness: grid sweeps, run database, reports.

The package turns the telemetry the flow already emits into a queryable
asset.  It has three layers, mirroring the tentpole split:

* :mod:`repro.dse.grid` — declarative parameter-grid specs (JSON/TOML)
  expanded into deterministic sweep units;
* :mod:`repro.dse.store` — a stdlib-``sqlite3`` run database ingesting
  per-unit payloads, telemetry JSONL segments, and ``results/BENCH_*``
  history, with a small query API;
* :mod:`repro.dse.report` — a dependency-free static HTML+SVG renderer
  for knob-trend charts and perf-regression tables, published by the
  docs build.

:mod:`repro.dse.runner` drives a sweep end to end (in-process or through
the :mod:`repro.jobs` supervisor).  It is the only sweep runner:
``repro dse run`` calls it with a spec file, ``repro bench`` with the
Table I / II specs of :func:`repro.bench.harness.table_spec`.
"""

from repro.dse.grid import (
    KNOBS,
    DseUnit,
    GridSpec,
    KnobBinding,
    apply_knobs,
    expand_points,
    load_spec,
    make_units,
    validate_knobs,
)
from repro.dse.report import render_report
from repro.dse.runner import GridResult, run_grid, run_unit
from repro.dse.store import RunDB

__all__ = [
    "KNOBS",
    "DseUnit",
    "GridSpec",
    "GridResult",
    "KnobBinding",
    "RunDB",
    "apply_knobs",
    "expand_points",
    "load_spec",
    "make_units",
    "render_report",
    "run_grid",
    "run_unit",
    "validate_knobs",
]
