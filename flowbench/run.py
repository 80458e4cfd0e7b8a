"""Whole-flow placement benchmark.

Run from the root of a checkout::

    python3 flowbench/run.py --workload rd_hotspot --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload twice in one process, first with
the per-layer spans of :mod:`spans` installed and then untraced, and reports
the per-layer metrics, the tracing overhead and the span checks.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# pin the BLAS/OpenMP pools before numpy loads: one process, one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

QOR = ("hpwl", "drwl", "drvias", "drvs")
#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s", "place_s": "s", "flow_s": "s", "peak_rss_mb": "MB",
    "hpwl": "um", "drwl": "um", "drvias": "count",
}
#: traced span time that must agree with the flow's own stage profile:
#: (span, ancestor span or None, profile stage, workload)
CROSS_CHECKS = (
    ("route.route", "core.rd", "route.total", "rd_hotspot"),
    ("density.solve", "core.rd", "gp.poisson", "rd_hotspot"),
    ("route.route", "eco.place", "route.total", "eco_stream"),
    ("density.solve", "eco.place", "gp.poisson", "eco_stream"),
    ("legalize.legalize", None, "flow.legalize", "gp_large"),
    ("detail.refine", None, "flow.detail", "gp_large"),
)
#: allowed |span - stage| as a share of the stage time, plus slack in s.
#: gp.poisson also times the geometry assembly around
#: ElectrostaticSystem.solve, about 5% of the stage on fft_b.
CROSS_REL_TOL, CROSS_ABS_TOL = 0.10, 0.02
#: smallest share of traced place time the layer spans must cover
MIN_COVERAGE = 0.90


def environment() -> dict:
    """Machine, interpreter, library versions, commit and kernel backend."""
    import numpy
    import scipy

    from repro.bench.harness import kernel_info

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "kernels": kernel_info(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS")},
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git``; ``unknown`` without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, n: int, scale: float, workdir: str,
             tracer, setup_repeats: int) -> dict:
    """Set up, then run every operation once."""
    import workloads as wl

    with tracer.span("bench.setup"):
        inputs, setup_s = wl.setup(workload, seed, n, scale, workdir,
                                   setup_repeats)
    ops = wl.run_ops(workload, inputs, tracer)
    return {"setup_s": setup_s, "ops": ops}


def end_to_end(workload: str, res: dict) -> dict:
    """The end-to-end metrics of one untraced pass."""
    import workloads as wl

    ops = res["ops"]
    agg = sum if wl.WORKLOADS[workload].time_agg == "sum" else statistics.fmean
    good = [op.qor for op in ops if op.qor is not None]
    values = {
        "setup_s": res["setup_s"],
        "place_s": agg(op.place_s for op in ops),
        "flow_s": agg(op.place_s + op.eval_s for op in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    for key in QOR:
        values[key] = statistics.fmean(q[key] for q in good) if good else 0.0
    return values


def output_problems(ops: list) -> list:
    """QoR of every operation that did not fail must be finite and positive."""
    return [
        f"{op.label}: {key}={op.qor[key]!r}"
        for op in ops if op.qor is not None
        for key in QOR
        if not (math.isfinite(op.qor[key]) and op.qor[key] > 0)
    ]


def span_problems(workload: str, tracer, traced: dict) -> list:
    """Span checks of a traced pass: hits, self-time bounds, cross-checks."""
    from spans import SPANS

    problems = []
    for span in SPANS:
        calls = tracer.calls[span.name]
        if workload in span.on and calls == 0:
            problems.append(f"span {span.name} not hit")
        if workload == "gp_large" and span.name.startswith("core.") and calls:
            problems.append(f"span {span.name} hit {calls}x on gp_large")
        busy, self_s = tracer.busy[span.name], tracer.self_time[span.name]
        if not -1e-9 <= self_s <= busy + 1e-9:
            problems.append(f"span {span.name}: self {self_s} not in [0, busy {busy}]")
    raised = [op.label for op in traced["ops"] if not op.profile]
    for span, ancestor, stage, on in CROSS_CHECKS:
        if on != workload or raised:
            # an operation that raised leaves spans without a profile
            continue
        outside = (tracer.busy[span] if ancestor is None
                   else tracer.within[(span, ancestor)])
        inside = sum(op.profile.get("stages", {}).get(stage, {}).get("time_s", 0.0)
                     for op in traced["ops"])
        ok = abs(outside - inside) <= CROSS_REL_TOL * inside + CROSS_ABS_TOL
        line = (f"cross-check {span} under {ancestor or 'any'} = {outside:.4f} s "
                f"vs profile {stage} = {inside:.4f} s")
        print(f"{line} [{'ok' if ok else 'MISMATCH'}]")
        if not ok:
            problems.append(line)
    coverage = place_coverage(tracer)
    if coverage < MIN_COVERAGE:
        problems.append(f"layer spans cover {coverage:.3f} < {MIN_COVERAGE} of place time")
    return problems


def place_coverage(tracer) -> float:
    """Share of traced place time covered by layer spans."""
    busy = tracer.busy["bench.place"]
    return 1.0 - tracer.self_time["bench.place"] / busy if busy else 0.0


# ----------------------------------------------------------------------
def print_ops(ops: list) -> None:
    for op in ops:
        qor = "  ".join(f"{k} {v:.1f}" for k, v in (op.qor or {}).items())
        status = f"FAILED {op.failure}" if op.failure else "ok"
        print(f"  {op.label:<28} place {op.place_s:8.3f} s  eval {op.eval_s:6.3f} s"
              f"  {qor}  [{status}]")


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gp_large", "rd_hotspot", "eco_stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="design-size multiplier (the tests use a tiny one)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"flowbench: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    import workloads as wl
    from spans import COUNTS, SPANS, Tracer

    n = wl.n_ops(args.workload, args.seconds)
    workdir = os.path.join(ROOT, ".flowbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            # traced first, so any first-run warm-up lands in the traced
            # pass and trace.overhead_frac is an upper bound; one set-up
            # is enough, the traced pass reports no setup_s
            tracer = Tracer(watch=[(span, anc) for span, anc, _, _ in CROSS_CHECKS
                                   if anc is not None])
            with tracer:
                traced = run_pass(args.workload, args.seed, n, args.scale,
                                  workdir, tracer, 1)
        plain = run_pass(args.workload, args.seed, n, args.scale, workdir,
                         wl.NullTracer(), wl.WORKLOADS[args.workload].setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    ops = plain["ops"]
    e2e = end_to_end(args.workload, plain)
    problems = output_problems(ops) + wl.mechanism_problems(args.workload, ops)
    failed = sum(op.failure is not None for op in ops)

    print(f"flowbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={n}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("untraced operations:")
    print_ops(ops)
    print(f"failed operations: {failed}/{len(ops)} ({failed / len(ops):.1%})")
    print_table("end-to-end:", [
        *((k, e2e[k], u, "") for k, u in END_TO_END.items()),
        ("drvs", e2e["drvs"], "count", "(unbounded; traced run: evalrt.drvs)"),
    ])

    if args.trace:
        t_ops = traced["ops"]
        problems += span_problems(args.workload, tracer, traced)
        problems += [f"traced {p}" for p in
                     output_problems(t_ops)
                     + wl.mechanism_problems(args.workload, t_ops)]
        layers = tracer.layer_metrics()
        traced_place = sum(op.place_s for op in t_ops)
        plain_place = sum(op.place_s for op in ops)
        good = [op.qor["drvs"] for op in t_ops if op.qor is not None]
        layers["evalrt.drvs"] = (statistics.fmean(good) if good else 0.0, "count")
        layers["trace.overhead_frac"] = (
            traced_place / plain_place - 1.0 if plain_place else 0.0, "fraction")
        layers["trace.place_coverage"] = (place_coverage(tracer), "fraction")
        print("traced operations:")
        print_ops(t_ops)
        moves = {s.name: s.moves for s in SPANS}
        moves.update({k: v[1] for k, v in COUNTS.items()})
        print_table("per-layer (traced):", [
            (k, v, u, "-> " + ",".join(moves.get(k.rsplit(".", 1)[0], moves.get(k, ()))))
            for k, (v, u) in layers.items()
        ])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'ok' if not problems else f'{len(problems)} failed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
