"""The three benchmark workloads: inputs from a seed, then timed operations.

Every call into the program goes through a module attribute
(``flows.make_gp_seed``, ``evaluator.evaluate_routing``, ...) so the
wrappers of :mod:`spans` see it when tracing is on.

One operation is one placement flow or one ECO edit.  It fails when it
raises, leaves non-finite positions, or ``check_legal`` reports
anything; a failed operation is counted, never dropped or retried.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import flows
from repro.eco import flow as eco_flow
from repro.evalrt import evaluator
from repro.io import bookshelf
from repro.legalize.api import check_legal
from repro.synth import suite
from repro.utils.checkpoint import backup_path
from repro.utils.profile import StageProfiler
from repro.wirelength.hpwl import hpwl

#: Largest share of movable cells one eco_stream edit may dirty.
ECO_MAX_DIRTY_FRAC = 0.05
#: Width multiplier of every eco_stream resize.
ECO_RESIZE = 1.5


@dataclass(frozen=True)
class Workload:
    """One named workload (its rationale is in BENCHMARK.json)."""

    name: str
    #: nominal cost of one operation; a run does ``seconds / op_seconds``
    #: operations, a count fixed before anything is timed
    op_seconds: float
    #: how per-operation times combine into place_s / flow_s
    time_agg: str  # "mean" (PT per design) | "sum" (whole edit stream)
    #: set-ups per run; ``setup_s`` is their median.  A sub-second
    #: set-up is repeated more so its median steadies.
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gp_large", op_seconds=25.0, time_agg="mean", setup_repeats=9),
        Workload("rd_hotspot", op_seconds=12.5, time_agg="mean", setup_repeats=9),
        Workload("eco_stream", op_seconds=0.625, time_agg="sum", setup_repeats=3),
    )
}


def n_ops(workload: str, seconds: float) -> int:
    """Operations per run for a measurement window of ``seconds``."""
    return max(1, round(seconds / WORKLOADS[workload].op_seconds))


@dataclass
class Op:
    """Outcome of one timed operation."""

    label: str
    place_s: float = 0.0
    eval_s: float = 0.0
    qor: dict | None = None  # hpwl / drwl / drvias / drvs
    failure: str | None = None
    #: the flow's own stage profile, for the cross-check against spans
    profile: dict = field(default_factory=dict)
    #: mechanism evidence for the workload self-checks
    evidence: dict = field(default_factory=dict)


class NullTracer:
    """Stand-in for :class:`spans.Tracer` on untraced runs."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def design_seeds(seed: int, n: int) -> list:
    """Generator seeds of a run's ``n`` designs; disjoint across seeds."""
    return [seed * n + i for i in range(n)]


def _flow_designs(name: str, scale: float, seed: int, n: int) -> list:
    return [
        (f"{name} seed={s}", suite.suite_design(name, scale, s))
        for s in design_seeds(seed, n)
    ]


def _resize(text: str, cell: str, factor: float) -> str:
    """The design text with one cell's width scaled by ``factor``."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "cell" and parts[1] == cell:
            parts[2] = repr(float(parts[2]) * factor)
            line = " ".join(parts)
        out.append(line)
    return "\n".join(out) + "\n"


def eco_cells(netlist, seed: int, n: int) -> list:
    """Names of the ``n`` movable cells an eco_stream run resizes."""
    movable = np.flatnonzero(netlist.movable)
    rng = np.random.default_rng(seed)
    picked = rng.choice(movable, size=min(n, len(movable)), replace=False)
    return [netlist.cell_names[int(i)] for i in picked]


def _eco_inputs(scale: float, seed: int, n: int, workdir: str) -> dict:
    """Placed fft_b baseline, its checkpoint, and ``n`` edited designs.

    The baseline design is the same on every seed; the seed draws the
    edits.  Per-edit cost follows the baseline's congestion, so a
    seed-dependent baseline would make the edit stream's time spread
    with the design rather than with the program.
    """
    ckpt = os.path.join(workdir, "fft_b.npz")
    for path in (ckpt, backup_path(ckpt)):
        if os.path.exists(path):
            os.remove(path)
    design = suite.suite_design("fft_b", scale, 0)
    base = flows.run_ours(
        design, seed_gp=flows.make_gp_seed(design), checkpoint_path=ckpt
    )
    text = bookshelf.dumps_design(base.netlist)
    old = bookshelf.loads_design(text)
    edits = [
        (cell, bookshelf.loads_design(_resize(text, cell, ECO_RESIZE)), old.copy())
        for cell in eco_cells(base.netlist, seed, n)
    ]
    return {"checkpoint": ckpt, "edits": edits}


def make_inputs(workload: str, seed: int, n: int, scale: float, workdir: str):
    """Build one run's inputs (the timed set-up step)."""
    if workload == "gp_large":
        return _flow_designs("superblue12", 0.85 * scale, seed, n)
    if workload == "rd_hotspot":
        return _flow_designs("edit_dist_a", 0.5 * scale, seed, n)
    return _eco_inputs(scale, seed, n, workdir)


def setup(workload: str, seed: int, n: int, scale: float, workdir: str,
          repeats: int):
    """Set up ``repeats`` times; returns (last inputs, median seconds)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed, n, scale, workdir)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
def _score(op: Op, netlist) -> None:
    """Apply the failure rule, then evaluate the routed outcome."""
    if not (np.isfinite(netlist.x).all() and np.isfinite(netlist.y).all()):
        op.failure = "non-finite positions"
        return
    violations = check_legal(netlist)
    if violations:
        op.failure = f"check_legal: {violations[0]} ({len(violations)} violations)"
    t0 = time.perf_counter()
    ev = evaluator.evaluate_routing(netlist)
    op.eval_s = time.perf_counter() - t0
    if op.failure is None:
        op.qor = {
            "hpwl": float(hpwl(netlist)),
            "drwl": float(ev.drwl),
            "drvias": float(ev.n_vias),
            "drvs": float(ev.n_drvs),
        }


def _guarded(op: Op, body) -> Op:
    """Run ``body(op)``; an exception fails the operation, with its trace."""
    try:
        body(op)
    except Exception as exc:  # noqa: BLE001 — count the failure, keep going
        traceback.print_exc()
        op.failure = f"raised {type(exc).__name__}: {exc}"
    return op


def _flow_op(label: str, netlist, recipe, tracer) -> Op:
    def body(op: Op) -> None:
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.place"):
                seed_gp = flows.make_gp_seed(netlist)
                result = recipe(netlist, seed_gp=seed_gp)
        finally:
            op.place_s = time.perf_counter() - t0
        op.profile = result.profile
        rd = result.rd_result
        op.evidence = {
            "rd_ran": rd is not None,
            # the DC closure evaluates Alg. 1 and Alg. 2 together, so a
            # nonzero Alg. 1 norm shows both ran; Alg. 2 selecting no
            # cell (zero norm) is counted, not gated on: see README.md
            "rd_mechanisms": rd is not None and any(
                r.netmove_grad_l1 > 0 and r.dpa_bins > 0 for r in rd.rounds
            ),
        }
        _score(op, result.netlist)

    return _guarded(Op(label=label), body)


def _eco_op(cell: str, new, old, checkpoint: str, tracer) -> Op:
    def body(op: Op) -> None:
        profiler = StageProfiler()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.place"):
                result = eco_flow.eco_place(
                    new, old, eco_flow.EcoConfig(),
                    baseline_checkpoint=checkpoint, profiler=profiler,
                )
        finally:
            op.place_s = time.perf_counter() - t0
        op.profile = profiler.as_dict()
        n_movable = int(new.movable.sum())
        op.evidence = {
            "dirty_frac": result.region.n_dirty_cells / max(n_movable, 1),
        }
        _score(op, new)

    return _guarded(Op(label=f"resize {cell} x{ECO_RESIZE}"), body)


def run_ops(workload: str, inputs, tracer) -> list:
    """Run every operation of one workload on its prepared inputs."""
    if workload == "gp_large":
        return [_flow_op(*item, flows.run_xplace, tracer) for item in inputs]
    if workload == "rd_hotspot":
        return [_flow_op(*item, flows.run_ours, tracer) for item in inputs]
    return [
        _eco_op(cell, new, old, inputs["checkpoint"], tracer)
        for cell, new, old in inputs["edits"]
    ]


def mechanism_problems(workload: str, ops: list) -> list:
    """Self-checks that the workload exercised the mechanism it measures."""
    problems = []
    done = [op for op in ops if op.evidence]
    if workload == "gp_large":
        problems += [f"{op.label}: routability loop ran" for op in done
                     if op.evidence["rd_ran"]]
    elif workload == "rd_hotspot":
        problems += [
            f"{op.label}: no RD round with nonzero netmove_grad_l1 and dpa_bins"
            for op in done if not op.evidence["rd_mechanisms"]
        ]
    else:
        problems += [
            f"{op.label}: dirty_cell_frac {op.evidence['dirty_frac']:.4f} "
            f">= {ECO_MAX_DIRTY_FRAC}"
            for op in done if op.evidence["dirty_frac"] >= ECO_MAX_DIRTY_FRAC
        ]
    return problems
