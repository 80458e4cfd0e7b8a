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

``place`` and ``route`` accept ``--check-invariants {off,warn,raise}``
to arm the numeric-contract layer (see :mod:`repro.utils.contracts`);
the flag overrides the ``REPRO_CHECK_INVARIANTS`` environment default.
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


def _cmd_place(args: argparse.Namespace) -> int:
    from repro.run import PlaceRequest, run_place_job

    outcome = run_place_job(PlaceRequest(
        input=args.input,
        out=args.out,
        routability=args.routability,
        iters=args.iters,
        rounds=args.rounds,
        iters_per_round=args.iters_per_round,
        checkpoint=args.checkpoint,
        metrics_out=args.metrics_out,
        check_invariants=args.check_invariants,
    ))
    for line in outcome.summary_lines():
        print(line)
    if outcome.report:
        print(outcome.report)
    if args.profile:
        print(outcome.profiler.report("stage profile (wall-clock)"))
    return 0


def _cmd_eco(args: argparse.Namespace) -> int:
    from repro.run import EcoRequest, run_eco_job

    outcome = run_eco_job(EcoRequest(
        input=args.input,
        baseline=args.baseline,
        baseline_checkpoint=args.baseline_checkpoint,
        out=args.out,
        rounds=args.rounds,
        iters_per_round=args.iters_per_round,
        halo=args.halo,
        compare=args.compare,
        metrics_out=args.metrics_out,
        check_invariants=args.check_invariants,
    ))
    for line in outcome.summary_lines():
        print(line)
    if outcome.report:
        print(outcome.report)
    if args.profile:
        print(outcome.profiler.report("stage profile (wall-clock)"))
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.run import RouteRequest, run_route_job

    outcome = run_route_job(RouteRequest(
        input=args.input,
        grid=args.grid,
        metrics_out=args.metrics_out,
        check_invariants=args.check_invariants,
    ))
    for line in outcome.summary_lines():
        print(line)
    if outcome.report:
        print(outcome.report)
    if args.profile:
        print(outcome.profiler.report("stage profile (wall-clock)"))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    from repro.utils.gradcheck import run_gradcheck

    report = run_gradcheck(seed=args.seed, tol=args.tol)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.evalrt import evaluate_routing
    from repro.run import load_validated

    netlist = load_validated(args.input)
    ev = evaluate_routing(netlist)
    print(f"DRWL={ev.drwl:.0f} #DRVias={ev.n_vias:.0f} #DRVs={ev.n_drvs:.0f} "
          f"(overflow {ev.overflow_drvs:.0f}, pin-access "
          f"{ev.pin_report.total:.0f}) RT={ev.routing_time:.2f}s")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.geometry import Grid2D
    from repro.place.config import auto_grid_dim
    from repro.route import GlobalRouter, RouterConfig
    from repro.run import load_validated
    from repro.viz import save_heatmap_ppm, save_placement_svg

    netlist = load_validated(args.input)
    dim = auto_grid_dim(netlist.n_cells)
    grid = Grid2D(netlist.die, dim, dim)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
