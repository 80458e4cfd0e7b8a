"""Command-line interface: ``python -m repro <command>``.

Commands
--------
gen     generate a synthetic design (suite name or custom size) to a file
place   place a design file (wirelength-only or full routability flow)
route   route a placed design and print congestion statistics
eval    score a placed design (DRWL / #DRVias / #DRVs)
plot    dump placement SVG and congestion heatmap PPM
bench   run a Table I/II sweep, optionally one process per design (--jobs)
gradcheck  validate analytic gradients against central differences
dse     design-space exploration: run grid sweeps, ingest and query
        the sqlite run database, render HTML reports

``place`` runs the bench recipes of :mod:`repro.baselines.flows`: the
``Ours`` flow (``run_flow``) with ``--routability``, the ``Xplace``
flow (``make_gp_seed`` then ``run_xplace``) without it.  ``eco``
runs :func:`repro.eco.eco_place`, and ``--compare`` adds
:func:`repro.eco.full_replace` (the same ``Ours`` recipe plus one
routing pass).  Each command passes its own stage profiler into the
flow, for ``--profile`` and for the stage list of a ``run.aborted``
event.

``place``, ``eco`` and ``route`` accept ``--check-invariants
{off,warn,raise}`` to arm the numeric-contract layer (see
:mod:`repro.utils.contracts`); the flag overrides the
``REPRO_CHECK_INVARIANTS`` environment default.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.io import save_design
    from repro.netlist import compute_stats
    from repro.synth import SynthConfig, generate_design, suite_design, suite_names

    if args.design in suite_names():
        netlist = suite_design(args.design, scale=args.scale, seed=args.seed)
    else:
        netlist = generate_design(
            SynthConfig(name=args.design, n_cells=args.cells, seed=args.seed)
        )
    save_design(netlist, args.out)
    print(f"wrote {args.out}: {compute_stats(netlist).as_dict()}")
    return 0


def _load_validated(path: str):
    """Load a design file and structurally validate it.

    Parse errors already name the file and line (see
    :mod:`repro.io.bookshelf`); validation failures get the same
    treatment so a truncated or hand-edited file fails with a message
    pointing at the input, not a traceback from deep inside the flow.
    """
    from repro.io import load_design
    from repro.netlist.validate import validate_netlist

    netlist = load_design(path)
    try:
        validate_netlist(netlist)
    except ValueError as exc:
        raise SystemExit(f"error: {path}: invalid design: {exc}") from exc
    return netlist


def _open_metrics(args: argparse.Namespace, profiler):
    """Telemetry and contracts of one ``place``/``eco``/``route`` run.

    Returns ``(metrics, finish)``: the registry streaming to
    ``--metrics-out`` (the disabled ``NULL`` without it, an existing
    file is overwritten) and a ``finish()`` that closes the stream and
    returns the rendered metrics report (``None`` when disabled).

    The registry is armed with an abort flush: a SIGTERM'd or crashed
    run emits a terminal ``run.aborted`` event naming ``profiler``'s
    open stages and flushes the sink, so the on-disk JSONL stays valid
    — truncated, not torn.  The contract checker is armed with
    ``--check-invariants`` (``None`` keeps the environment default) and
    reports warn-mode violations into the same stream.
    """
    from repro.utils import contracts
    from repro.utils.metrics import (
        NULL,
        JsonlSink,
        MetricsRegistry,
        MetricsReport,
        install_abort_flush,
    )

    path = args.metrics_out
    if not path:
        metrics, finish = NULL, lambda: None
    else:
        metrics = MetricsRegistry(sink=JsonlSink(path))
        metrics.start_run(command=args.command, design=args.input)
        abort = install_abort_flush(metrics, profiler=profiler)

        def finish():
            metrics.close()
            abort.uninstall()
            return MetricsReport.from_jsonl(path).render(
                f"metrics report ({path})"
            )

    contracts.configure(mode=args.check_invariants, metrics=metrics)
    return metrics, finish


def _rd_overrides(args: argparse.Namespace) -> dict:
    """``--rounds`` / ``--iters-per-round`` as :class:`RDConfig` keywords
    (unset flags keep the config defaults)."""
    overrides = {}
    if args.rounds is not None:
        overrides["max_rounds"] = args.rounds
    if args.iters_per_round is not None:
        overrides["iters_per_round"] = args.iters_per_round
    return overrides


def _print_tail(args: argparse.Namespace, report, profiler) -> None:
    """The metrics report and, with ``--profile``, the stage profile."""
    if report:
        print(report)
    if args.profile:
        print(profiler.report("stage profile (wall-clock)"))


def _cmd_place(args: argparse.Namespace) -> int:
    """Wirelength-only (``Xplace``) or routability (``Ours``) recipe."""
    from repro.baselines import make_gp_seed, run_flow, run_xplace
    from repro.core import RDConfig
    from repro.io import save_design
    from repro.legalize import check_legal
    from repro.place import GPConfig
    from repro.utils.profile import StageProfiler
    from repro.wirelength import hpwl

    netlist = _load_validated(args.input)
    gp = GPConfig(max_iters=args.iters)
    profiler = StageProfiler()
    metrics, finish_metrics = _open_metrics(args, profiler)
    if args.routability:
        flow = run_flow(
            "Ours", netlist, RDConfig(gp=gp, **_rd_overrides(args)),
            metrics=metrics, checkpoint_path=args.checkpoint,
            profiler=profiler,
        )
    else:
        seed = make_gp_seed(netlist, gp, metrics=metrics, profiler=profiler)
        flow = run_xplace(netlist, seed_gp=seed, profiler=profiler)
    n_issues = len(check_legal(flow.netlist))
    placed_hpwl = float(hpwl(flow.netlist))
    save_design(flow.netlist, args.out)
    report = finish_metrics()
    if args.routability:
        rd = flow.rd_result
        print(f"routability rounds: {rd.n_rounds} (best round {rd.best_round})")
        if rd.n_guard_events:
            print(f"guard events: {rd.n_guard_events} (see logs for details)")
    legality = "CLEAN" if not n_issues else f"{n_issues} issues"
    print(f"hpwl={placed_hpwl:.0f} legality={legality}")
    print(f"wrote {args.out}")
    _print_tail(args, report, profiler)
    return 0


def _cmd_eco(args: argparse.Namespace) -> int:
    """ECO re-place; ``--compare`` adds the cold ``full_replace`` reference.

    An edit that pushes a fixed cell out of the die exits with an
    ``error:`` message naming the cell, before any placement work.
    """
    from repro.core import RDConfig
    from repro.eco import (
        EcoConfig,
        FixedCellOutsideDieError,
        eco_place,
        full_replace,
    )
    from repro.io import save_design
    from repro.legalize import check_legal
    from repro.place import GPConfig
    from repro.utils.profile import StageProfiler

    netlist = _load_validated(args.input)
    baseline = _load_validated(args.baseline)
    profiler = StageProfiler()
    metrics, finish_metrics = _open_metrics(args, profiler)
    rd = RDConfig(gp=GPConfig(), **_rd_overrides(args))
    try:
        result = eco_place(
            netlist,
            baseline,
            EcoConfig(rd=rd, halo_bins=args.halo),
            baseline_checkpoint=args.baseline_checkpoint,
            profiler=profiler,
            metrics=metrics,
        )
    except FixedCellOutsideDieError as exc:
        raise SystemExit(f"error: {args.input}: {exc}") from exc
    n_issues = len(check_legal(netlist))
    compare = None
    if args.compare:
        cold = _load_validated(args.input)
        with profiler.timer("eco.compare"):
            ref = full_replace(cold, rd, profiler=profiler)
        compare = {
            "eco_hpwl": result.hpwl,
            "full_hpwl": ref["hpwl"],
            "hpwl_ratio": (
                result.hpwl / ref["hpwl"] if ref["hpwl"] else float("inf")
            ),
            "eco_overflow": result.total_overflow,
            "full_overflow": ref["total_overflow"],
            "eco_rounds": result.n_rounds,
            "full_rounds": ref["rounds"],
        }
        if metrics.enabled:
            metrics.emit("eco.compare", **compare)
    save_design(netlist, args.out)
    report = finish_metrics()
    region = result.region
    print(f"edits: {result.diff.n_edits} -> dirty cells: "
          f"{region.n_dirty_cells} dirty nets: {region.n_dirty_nets} "
          f"(warm start: {result.warm.source})")
    print(f"eco rounds: {result.n_rounds}")
    legality = "CLEAN" if not n_issues else f"{n_issues} issues"
    print(f"hpwl={result.hpwl:.0f} overflow={result.total_overflow:.0f} "
          f"legality={legality}")
    if compare:
        print(f"vs full re-place: hpwl_ratio={compare['hpwl_ratio']:.4f} "
              f"overflow {compare['full_overflow']:.0f} -> "
              f"{compare['eco_overflow']:.0f} "
              f"rounds {compare['full_rounds']} -> {compare['eco_rounds']}")
    print(f"wrote {args.out}")
    _print_tail(args, report, profiler)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    """One routing pass on the auto (or ``--grid``) G-cell grid."""
    from repro.geometry import Grid2D
    from repro.place.config import placement_grid
    from repro.route import GlobalRouter, RouterConfig
    from repro.utils.profile import StageProfiler

    netlist = _load_validated(args.input)
    if args.grid:
        grid = Grid2D(netlist.die, args.grid, args.grid)
    else:
        grid = placement_grid(netlist)
    profiler = StageProfiler()
    metrics, finish_metrics = _open_metrics(args, profiler)
    result = GlobalRouter(
        grid, RouterConfig(), profiler=profiler, metrics=metrics,
    ).route(netlist)
    report = finish_metrics()
    util = result.utilization_map
    print(f"segments={result.n_segments} wirelength={result.wirelength:.0f} "
          f"vias={result.n_vias:.0f}")
    print(f"utilization mean={util.mean():.3f} max={util.max():.2f} "
          f"overflow={result.total_overflow:.0f} "
          f"congested={(result.congestion_map > 0).mean() * 100:.1f}%")
    _print_tail(args, report, profiler)
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    from repro.utils.gradcheck import run_gradcheck

    report = run_gradcheck(seed=args.seed, tol=args.tol)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.evalrt import evaluate_routing

    netlist = _load_validated(args.input)
    ev = evaluate_routing(netlist)
    print(f"DRWL={ev.drwl:.0f} #DRVias={ev.n_vias:.0f} #DRVs={ev.n_drvs:.0f} "
          f"(overflow {ev.overflow_drvs:.0f}, pin-access "
          f"{ev.pin_report.total:.0f}) RT={ev.routing_time:.2f}s")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.place.config import placement_grid
    from repro.route import GlobalRouter, RouterConfig
    from repro.viz import save_heatmap_ppm, save_placement_svg

    netlist = _load_validated(args.input)
    grid = placement_grid(netlist)
    result = GlobalRouter(grid, RouterConfig()).route(netlist)
    svg_path = args.prefix + "_placement.svg"
    ppm_path = args.prefix + "_congestion.ppm"
    save_placement_svg(
        netlist, svg_path, congestion=result.congestion_map, grid=grid
    )
    save_heatmap_ppm(result.utilization_map, ppm_path)
    print(f"wrote {svg_path} and {ppm_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run Table I or II: its grid spec on the sweep runner, then the table."""
    import json

    from repro.bench.harness import table_spec
    from repro.dse.runner import run_grid
    from repro.evalrt.report import MetricRow, format_table

    try:
        spec = table_spec(args.table, args.designs, args.scale, args.seed)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    result = run_grid(spec, jobs=args.jobs)
    rows = [
        MetricRow(design=r["design"], placer=r["placer"], metrics=r["metrics"])
        for r in result.rows
    ]
    if rows:
        if args.table == 1:
            print(format_table(rows, reference_placer="Ours"))
        else:
            print(format_table(
                rows,
                keys=("DRWL", "#DRVias", "#DRVs"),
                reference_placer="+MCI+DC+DPA",
            ))
    for unit_id, error in result.errors:
        print(f"FAILED {unit_id}:\n{error}")
    jobs = max(1, args.jobs)
    print(f"{len(result.units)} designs, jobs={jobs}, "
          f"{len(result.errors)} failed, wall {result.elapsed_s:.1f}s")
    if args.out:
        payload = {
            "kind": spec.name,
            "jobs": jobs,
            "elapsed_s": result.elapsed_s,
            "rows": result.rows,
            "errors": [
                {"design": p["design"], "index": p["unit_index"],
                 "error": p["error"]}
                for p in result.payloads if p["error"]
            ],
        }
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"wrote {args.out}")
    if args.metrics_out:
        os.makedirs(os.path.dirname(args.metrics_out) or ".", exist_ok=True)
        with open(args.metrics_out, "w") as fh:
            for event in result.unit_events:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        print(f"wrote per-design telemetry to {args.metrics_out}")
    return 1 if result.errors else 0


def _cmd_dse_run(args: argparse.Namespace) -> int:
    """Expand a grid spec and run every unit, persisting results."""
    from repro.dse.grid import load_spec
    from repro.dse.runner import run_grid

    spec = load_spec(args.grid)
    result = run_grid(spec, jobs=args.jobs, out_dir=args.out_dir,
                      db_path=args.db)
    for unit_id, error in result.errors:
        print(f"FAILED {unit_id}:\n{error}")
    print(f"sweep {spec.name}: {len(result.units)} units, "
          f"{len(result.errors)} failed, wall {result.elapsed_s:.1f}s")
    print(f"wrote unit payloads to {args.out_dir}")
    if args.db:
        print(f"ingested into {args.db}")
    return 1 if result.errors else 0


def _cmd_dse_ingest(args: argparse.Namespace) -> int:
    """Ingest payloads / telemetry / bench snapshots into the run DB."""
    from pathlib import Path

    from repro.dse.store import RunDB

    files: list = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.json")) + sorted(p.rglob("*.jsonl")))
        else:
            files.append(p)

    metrics = None
    sink = None
    if args.metrics_out:
        from repro.utils.metrics import JsonlSink, MetricsRegistry

        sink = JsonlSink(args.metrics_out)
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="dse.ingest", db=args.db)

    new = 0
    with RunDB(args.db) as db:
        for path in files:
            fresh = db.ingest_path(path)
            new += int(fresh)
            if metrics is not None:
                metrics.emit("dse.ingest", source=str(path),
                             source_kind=path.suffix.lstrip("."), new=fresh)
            print(f"{'ingested' if fresh else 'skipped (already ingested)'} {path}")
    if metrics is not None:
        metrics.close()
    print(f"{new} new of {len(files)} sources → {args.db}")
    return 0


def _cmd_dse_query(args: argparse.Namespace) -> int:
    """Run one query against the run DB and print JSON."""
    import json

    from repro.dse.store import RunDB

    with RunDB(args.db) as db:
        if args.what == "summary":
            out = db.summary()
        elif args.what == "best":
            if not args.metric:
                raise SystemExit("error: query best needs --metric")
            out = db.best_by(args.metric, placer=args.placer,
                             minimize=not args.maximize, limit=args.limit)
        elif args.what == "trend":
            if not (args.metric and args.knob):
                raise SystemExit("error: query trend needs --knob and --metric")
            out = db.trend(args.knob, args.metric, placer=args.placer)
        else:  # compare
            if not args.runs:
                raise SystemExit("error: query compare needs --runs A B")
            out = db.compare(args.runs[0], args.runs[1])
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_dse_report(args: argparse.Namespace) -> int:
    """Render the static HTML report from the run DB (+ bench history)."""
    from pathlib import Path

    from repro.dse.report import render_report
    from repro.dse.store import RunDB

    with RunDB(args.db) as db:
        if args.results:
            results = Path(args.results)
            for path in sorted(results.glob("*.json")):
                db.ingest_bench_json(path)
        path = render_report(db, args.out)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic design")
    p.add_argument("design", help="suite name (e.g. fft_1) or custom label")
    p.add_argument("--cells", type=int, default=1000)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="design.bl")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("place", help="place a design file")
    p.add_argument("input")
    p.add_argument("--routability", action="store_true",
                   help="run the full Fig. 2 flow instead of WL-only")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--rounds", type=int, default=None, metavar="N",
                   help="cap the routability flow at N rounds "
                        "(default: the RDConfig default)")
    p.add_argument("--iters-per-round", type=int, default=None, metavar="N",
                   help="GP iterations per routability round "
                        "(default: the RDConfig default)")
    p.add_argument("--out", default="placed.bl")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write the best-so-far placement snapshot here "
                        "after each round, for eco --baseline-checkpoint; "
                        "an existing file is overwritten, never resumed "
                        "(requires --routability)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage wall-clock breakdown")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="stream run telemetry to PATH as JSONL (one event "
                        "per line) and print the metrics report")
    p.add_argument("--check-invariants", choices=("off", "warn", "raise"),
                   default=None,
                   help="numeric-contract checking mode (default: the "
                        "REPRO_CHECK_INVARIANTS environment variable, or off)")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser(
        "eco",
        help="incrementally re-place an edited design from a baseline",
    )
    p.add_argument("baseline",
                   help="the baseline design, ideally a placed output so "
                        "the clean region inherits legal positions")
    p.add_argument("input", help="the edited design")
    p.add_argument("--baseline-checkpoint", default=None, metavar="PATH",
                   help="the snapshot a baseline place --checkpoint run "
                        "wrote; its best positions seed the edited cells")
    p.add_argument("--out", default="eco_placed.bl")
    p.add_argument("--rounds", type=int, default=None, metavar="N",
                   help="cap the ECO routability loop at N rounds")
    p.add_argument("--iters-per-round", type=int, default=None, metavar="N",
                   help="GP iterations per ECO round")
    p.add_argument("--halo", type=int, default=1, metavar="BINS",
                   help="G-cell halo dilated around edited cells when "
                        "marking the dirty region (default 1)")
    p.add_argument("--compare", action="store_true",
                   help="also run a cold full re-place of the edited design "
                        "and report the QoR delta (slow; for validation)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage wall-clock breakdown")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="stream run telemetry to PATH as JSONL and print "
                        "the metrics report")
    p.add_argument("--check-invariants", choices=("off", "warn", "raise"),
                   default=None,
                   help="numeric-contract checking mode (default: the "
                        "REPRO_CHECK_INVARIANTS environment variable, or off)")
    p.set_defaults(func=_cmd_eco)

    p = sub.add_parser("route", help="route a placed design")
    p.add_argument("input")
    p.add_argument("--grid", type=int, default=0)
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage wall-clock breakdown")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="stream run telemetry to PATH as JSONL and print "
                        "the metrics report")
    p.add_argument("--check-invariants", choices=("off", "warn", "raise"),
                   default=None,
                   help="numeric-contract checking mode (default: the "
                        "REPRO_CHECK_INVARIANTS environment variable, or off)")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("bench", help="run a Table I/II sweep (parallelizable)")
    p.add_argument("--table", type=int, choices=(1, 2), default=1,
                   help="1 = placer comparison, 2 = ablation")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run each design in its own process, N at a time; "
                        "a crash yields an error entry instead of killing "
                        "the sweep (wall-clock win needs >1 CPU core)")
    p.add_argument("--designs", nargs="*", default=None,
                   help="suite design names (default: the table's full list)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write rows + errors + timing as JSON")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the merged per-design telemetry stream "
                        "(one JSONL segment per design, input order)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "gradcheck",
        help="validate analytic gradients against central differences",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="maximum allowed relative error per check")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser(
        "dse", help="design-space exploration: grid sweeps, run DB, reports")
    dse = p.add_subparsers(dest="dse_command", required=True)

    q = dse.add_parser("run", help="expand a grid spec and run every unit")
    q.add_argument("--grid", required=True, help="grid spec (.json or .toml)")
    q.add_argument("--jobs", type=int, default=1,
                   help="run each unit in its own process, N at a time "
                        "(<=1 runs in-process)")
    q.add_argument("--out-dir", default="dse_out",
                   help="directory for unit payloads + manifest")
    q.add_argument("--db", default=None, help="sqlite run database to ingest into")
    q.set_defaults(func=_cmd_dse_run)

    q = dse.add_parser("ingest", help="ingest payloads/telemetry/bench JSON")
    q.add_argument("--db", required=True)
    q.add_argument("paths", nargs="+",
                   help="files or directories (*.json / *.jsonl)")
    q.add_argument("--metrics-out", default=None,
                   help="write dse.ingest telemetry JSONL here")
    q.set_defaults(func=_cmd_dse_ingest)

    q = dse.add_parser("query", help="query the run database")
    q.add_argument("what", choices=("summary", "best", "trend", "compare"))
    q.add_argument("--db", required=True)
    q.add_argument("--metric", default=None)
    q.add_argument("--knob", default=None)
    q.add_argument("--placer", default=None)
    q.add_argument("--maximize", action="store_true",
                   help="rank best descending (default ascending)")
    q.add_argument("--limit", type=int, default=10)
    q.add_argument("--runs", nargs=2, metavar=("RUN_A", "RUN_B"),
                   help="two run ids (compare)")
    q.set_defaults(func=_cmd_dse_query)

    q = dse.add_parser("report", help="render the static HTML report")
    q.add_argument("--db", required=True)
    q.add_argument("--out", default="dse_report")
    q.add_argument("--results", default=None,
                   help="also ingest results/*.json bench history first")
    q.set_defaults(func=_cmd_dse_report)

    p = sub.add_parser("eval", help="score a placed design")
    p.add_argument("input")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plot", help="dump SVG/PPM visualizations")
    p.add_argument("input")
    p.add_argument("--prefix", default="design")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv: list | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "place" and args.checkpoint is not None and not args.routability:
        # the wirelength-only recipe has no rounds, so no snapshot to write
        parser.error("place: --checkpoint requires --routability")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
