"""Experiment harness regenerating the paper's tables and figures.

:mod:`repro.bench.harness` runs placer recipes on one design and
evaluates each; Table I and Table II are grid specs over those recipes
(:func:`~repro.bench.harness.table_spec`) that the one sweep runner,
:func:`repro.dse.runner.run_grid`, executes in-process or one process
per design (CLI: ``python -m repro bench --table N --jobs M``).
"""

from repro.bench.harness import (
    ABLATION_ROWS,
    PLACERS,
    RECIPES,
    TABLE2_DESIGNS,
    DesignOutcome,
    run_design,
    table_rows,
    table_spec,
)

__all__ = [
    "ABLATION_ROWS",
    "DesignOutcome",
    "PLACERS",
    "RECIPES",
    "TABLE2_DESIGNS",
    "run_design",
    "table_rows",
    "table_spec",
]
