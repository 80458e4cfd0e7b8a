"""Shared helpers for the benchmark suite.

Each ``test_*`` module regenerates one table or figure of the paper.
Benchmarks use scaled-down designs so the whole directory finishes in a
few minutes; the full-scale Table I is produced by
``python -m repro bench --table 1 --out results/table1.json`` (same
code path, larger designs).
"""

from __future__ import annotations

import pytest

from repro.core import RDConfig
from repro.evalrt import EvalConfig
from repro.place import GPConfig


BENCH_SCALE = 0.5  # fraction of full suite cell counts


@pytest.fixture(scope="session")
def bench_gp():
    return GPConfig(max_iters=600)


@pytest.fixture(scope="session")
def bench_rd(bench_gp):
    return RDConfig(gp=bench_gp, max_rounds=6, iters_per_round=40)


@pytest.fixture(scope="session")
def bench_eval():
    return EvalConfig()


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
