"""Fast checks of the benchmark itself, at a tiny design scale.

Run from the repository root::

    python3 -m pytest flowbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro.io.bookshelf import dumps_design  # noqa: E402

TINY = 0.1
WORKLOADS = ("gp_large", "rd_hotspot", "eco_stream")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "flowbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    """One tiny run per workload and trace mode, parsed lazily."""
    cache = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            proc = run_bench("--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", str(TINY))
            assert proc.returncode == 0, proc.stderr[-2000:]
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_emitted(results, workload, trace):
    out = results(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int) and 0 <= out["failed"] <= out["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_time_within_busy(results, workload):
    metrics = results(workload, 1)["metrics"]
    for span in spans.SPANS:
        busy = metrics[f"{span.name}.busy_s"]["value"]
        self_s = metrics[f"{span.name}.self_s"]["value"]
        assert 0.0 <= self_s <= busy + 1e-9, span.name


def test_gp_large_records_no_core_calls(results):
    metrics = results("gp_large", 1)["metrics"]
    core = [s.name for s in spans.SPANS if s.name.startswith("core.")]
    assert core and all(metrics[f"{n}.calls"]["value"] == 0 for n in core)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_excludes_children_and_reentry_counts_busy_once():
    clock = FakeClock()
    tr = spans.Tracer(watch=[("b", "a")], clock=clock)
    tr.enter("a")
    clock.t += 1.0
    tr.enter("b")
    clock.t += 2.0
    tr.enter("b")  # re-entrant: busy counted only for the outer frame
    clock.t += 0.5
    tr.exit()
    tr.exit()
    clock.t += 1.0
    tr.exit()
    assert tr.busy["a"] == 4.5 and tr.self_time["a"] == 2.0
    assert tr.busy["b"] == 2.5 and tr.self_time["b"] == 2.5
    assert tr.calls["b"] == 2
    assert tr.within[("b", "a")] == 3.0  # both frames opened under "a"


def test_setup_spans_record_only_setup_layers():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    with tr.span(spans.SETUP):
        for name in ("synth.generate", "place.converge"):
            tr.enter(name)
            clock.t += 1.0
            tr.exit()
    assert tr.calls["synth.generate"] == 1
    assert tr.calls["place.converge"] == 0


def test_install_wraps_every_binding_and_uninstall_restores():
    bindings = [(spec.name, spans._resolve(*target))
                for spec in spans.SPANS for target in spec.targets]
    before = [getattr(owner, attr) for _, (owner, attr) in bindings]
    with spans.Tracer():
        for name, (owner, attr) in bindings:
            assert getattr(getattr(owner, attr), "__wrapped__", None) is not None, name
    assert [getattr(owner, attr) for _, (owner, attr) in bindings] == before


def _design_texts(workload: str, seed: int, workdir: str) -> list:
    inputs = wl.make_inputs(workload, seed, 2, TINY, workdir)
    if workload == "eco_stream":
        return [dumps_design(new) for _, new, _ in inputs["edits"]]
    return [dumps_design(nl) for _, nl in inputs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_design_and_repeats_exactly(tmp_path, workload):
    first = _design_texts(workload, 0, str(tmp_path))
    assert first == _design_texts(workload, 0, str(tmp_path))
    other = _design_texts(workload, 1, str(tmp_path))
    assert all(a != b for a, b in zip(first, other))


def test_ops_per_run_fixed_by_window_not_speed():
    assert [wl.n_ops(w, 25) for w in WORKLOADS] == [1, 2, 40]
    assert all(wl.n_ops(w, 1) == 1 for w in ("gp_large", "rd_hotspot"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "gp_large", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
