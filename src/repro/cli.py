"""Command-line interface: ``python -m repro <command>``.

Commands
--------
gen     generate a synthetic design (suite name or custom size) to a file
place   place a design file (wirelength-only or full routability flow)
route   route a placed design and print congestion statistics
eval    score a placed design (DRWL / #DRVias / #DRVs)
plot    dump placement SVG and congestion heatmap PPM
bench   run a Table I/II sweep, optionally sharded across --jobs workers
gradcheck  validate analytic gradients against central differences
serve   run the placement-as-a-service daemon (see repro.service)
submit  queue a place/route job on a running daemon
status  show daemon queue state or one job's status
cancel  request cancellation of a queued/running job
dse     design-space exploration: run/submit grid sweeps, ingest and
        query the sqlite run database, render HTML reports

``place`` and ``route`` accept ``--check-invariants {off,warn,raise}``
to arm the numeric-contract layer (see :mod:`repro.utils.contracts`);
the flag overrides the ``REPRO_CHECK_INVARIANTS`` environment default.
"""

from __future__ import annotations

import argparse
import os
import sys


def _load_validated(path: str):
    """Load a design file and structurally validate it (see
    :func:`repro.service.runner.load_validated`)."""
    from repro.service.runner import load_validated

    return load_validated(path)


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
    from repro.service.runner import PlaceRequest, run_place_job

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
    from repro.service.runner import EcoRequest, run_eco_job

    outcome = run_eco_job(EcoRequest(
        input=args.input,
        baseline=args.baseline,
        baseline_checkpoint=args.baseline_checkpoint,
        out=args.out,
        checkpoint=args.checkpoint,
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
    from repro.service.runner import RouteRequest, run_route_job

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


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import PlacementService, ServiceConfig

    service = PlacementService(ServiceConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        execution=args.execution,
        job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.job_retries,
    ))
    host, port = service.start()
    print(f"placement service on {host}:{port} (root {service.root})")

    def _stop(signum, frame):
        service.stop(f"signal:{signum}")

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    service.wait()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(root=args.root)
    request: dict = {"input": os.path.abspath(args.input)}
    if args.kind == "place":
        if args.routability:
            request["routability"] = True
        if args.iters is not None:
            request["iters"] = args.iters
        if args.rounds is not None:
            request["rounds"] = args.rounds
        if args.iters_per_round is not None:
            request["iters_per_round"] = args.iters_per_round
    elif args.kind == "eco":
        if not args.baseline:
            raise SystemExit("error: --kind eco requires --baseline")
        request["baseline"] = os.path.abspath(args.baseline)
        if args.baseline_checkpoint:
            request["baseline_checkpoint"] = os.path.abspath(
                args.baseline_checkpoint
            )
        if args.rounds is not None:
            request["rounds"] = args.rounds
        if args.iters_per_round is not None:
            request["iters_per_round"] = args.iters_per_round
    entry = client.submit(request, kind=args.kind, priority=args.priority)
    print(f"queued {entry['job_id']} (seq {entry['seq']}, "
          f"priority {entry['priority']})")
    if args.wait:
        entry = client.wait(entry["job_id"], timeout=args.timeout)
        print(_format_entry(entry))
        return 0 if entry["state"] == "DONE" else 1
    return 0


def _format_entry(entry: dict) -> str:
    line = (f"{entry['job_id']}: {entry['state']} "
            f"(attempts {entry['attempts']})")
    if entry.get("result"):
        result = entry["result"]
        if result.get("kind") == "place":
            line += f" hpwl={result['hpwl']:.0f} -> {result['out']}"
        elif result.get("kind") == "route":
            line += (f" wirelength={result['wirelength']:.0f} "
                     f"overflow={result['total_overflow']:.0f}")
        elif result.get("kind") == "eco":
            line += (f" hpwl={result['hpwl']:.0f} "
                     f"rounds={result['n_rounds']} -> {result['out']}")
    if entry.get("error"):
        line += f"\n  error: {entry['error'].strip().splitlines()[-1]}"
    return line


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(root=args.root)
    if args.job_id:
        print(_format_entry(client.status(args.job_id)))
    else:
        stats = client.stats()
        print(f"queue: {stats['queue']}  cache: {stats['cache']}")
        for entry in client.jobs():
            print(_format_entry(entry))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(root=args.root)
    entry = client.cancel(args.job_id)
    print(f"cancel requested for {entry['job_id']} "
          f"(was {entry['state']})")
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
    from repro.geometry import Grid2D
    from repro.place.config import auto_grid_dim
    from repro.route import GlobalRouter, RouterConfig
    from repro.viz import save_heatmap_ppm, save_placement_svg

    netlist = _load_validated(args.input)
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
    from repro.bench.parallel import TABLE2_DESIGNS, run_sweep
    from repro.evalrt.report import MetricRow, format_table
    from repro.synth.suite import suite_names

    kind = f"table{args.table}"
    if args.designs:
        names = args.designs
    else:
        names = suite_names() if args.table == 1 else list(TABLE2_DESIGNS)
    unknown = [n for n in names if n not in suite_names()]
    if unknown:
        raise SystemExit(f"error: unknown suite designs: {', '.join(unknown)}")

    result = run_sweep(
        names,
        kind=kind,
        jobs=args.jobs,
        scale=args.scale,
        seed=args.seed,
        metrics_path=args.metrics_out,
        job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.job_retries,
        checkpoint_dir=args.checkpoint_dir,
    )
    rows = [
        MetricRow(design=r["design"], placer=r["placer"], metrics=r["metrics"])
        for r in result.rows()
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
    for failed in result.errors():
        print(f"FAILED {failed.design}:\n{failed.error}")
    print(f"{len(names)} designs, jobs={result.jobs}, "
          f"{len(result.errors())} failed, wall {result.elapsed:.1f}s")
    if args.out:
        import json

        payload = {
            "kind": kind,
            "jobs": result.jobs,
            "elapsed_s": result.elapsed,
            "rows": result.rows(),
            "errors": result.error_payload(),
            "supervisor": {
                "events": result.supervisor_events,
                "designs": [
                    {
                        "design": r.design,
                        "attempts": r.attempts,
                        "job_state": r.job_state,
                    }
                    for r in result.runs
                ],
            },
        }
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"wrote {args.out}")
    if args.metrics_out:
        print(f"wrote merged telemetry to {args.metrics_out}")
    return 1 if result.errors() else 0


def _cmd_dse_run(args: argparse.Namespace) -> int:
    """Expand a grid spec and run every unit, persisting results."""
    from repro.dse.grid import load_spec
    from repro.dse.runner import run_grid

    spec = load_spec(args.grid)
    result = run_grid(
        spec,
        jobs=args.jobs,
        out_dir=args.out_dir,
        db_path=args.db,
        job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.job_retries,
    )
    for unit_id, error in result.errors:
        print(f"FAILED {unit_id}:\n{error}")
    print(f"sweep {spec.name}: {len(result.units)} units, "
          f"{len(result.errors)} failed, wall {result.elapsed_s:.1f}s")
    print(f"wrote unit payloads to {args.out_dir}")
    if args.db:
        print(f"ingested into {args.db}")
    return 1 if result.errors else 0


def _cmd_dse_submit(args: argparse.Namespace) -> int:
    """Submit a grid's units to a running ``repro serve`` daemon."""
    from repro.dse.grid import load_spec
    from repro.dse.runner import submit_grid

    spec = load_spec(args.grid)
    entries = submit_grid(spec, root=args.root, priority=args.priority)
    for entry in entries:
        print(f"queued {entry['job_id']}")
    print(f"submitted {len(entries)} units from sweep {spec.name}")
    return 0


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
                   help="write the routability-flow state here after each "
                        "round and resume from it if the file exists "
                        "(requires --routability)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage wall-clock breakdown")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="stream run telemetry to PATH as JSONL (one event "
                        "per line; appended on checkpoint resume) and print "
                        "the metrics report")
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
                   help="the baseline flow's npz checkpoint; its best "
                        "snapshot seeds the warm start, and a null edit "
                        "resumes it bit-identically")
    p.add_argument("--out", default="eco_placed.bl")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="the ECO loop's own checkpoint: written after each "
                        "round, resumed from if the file exists")
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
                   help="worker processes; designs run isolated, one "
                        "crash yields an error entry instead of killing "
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
    p.add_argument("--job-timeout", type=float, default=None, metavar="S",
                   help="per-design wall-clock deadline in seconds, "
                        "supervisor-enforced (pooled runs; default: none)")
    p.add_argument("--heartbeat-timeout", type=float, default=None,
                   metavar="S",
                   help="reap a pooled design after S seconds without a "
                        "flow progress beat (hung worker; default: off)")
    p.add_argument("--job-retries", type=int, default=1, metavar="N",
                   help="replacement attempts after an involuntary worker "
                        "death (crash/hang/timeout; default: 1)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="checkpoint each design's flows under DIR; "
                        "supervised retries resume from the last atomic "
                        "checkpoint instead of recomputing")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="run the placement service daemon")
    p.add_argument("--root", required=True, metavar="DIR",
                   help="service state directory (queue, job artifacts, "
                        "telemetry); reusing a root resumes its queue")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (0 = pick a free one; the resolved "
                        "address is written to <root>/service.json)")
    p.add_argument("--max-workers", type=int, default=1, metavar="N",
                   help="concurrent supervised worker processes")
    p.add_argument("--execution", choices=("supervised", "inline"),
                   default="supervised",
                   help="supervised = one worker process per job "
                        "(deadlines/heartbeats/retries); inline = run "
                        "jobs serially in the daemon sharing its warm "
                        "caches")
    p.add_argument("--job-timeout", type=float, default=None, metavar="S",
                   help="per-job wall-clock deadline (supervised only)")
    p.add_argument("--heartbeat-timeout", type=float, default=None,
                   metavar="S",
                   help="reap a job after S seconds without a progress "
                        "beat (supervised only)")
    p.add_argument("--job-retries", type=int, default=1, metavar="N",
                   help="replacement attempts after an involuntary "
                        "worker death")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="queue a job on a running daemon")
    p.add_argument("input", help="design file to place/route")
    p.add_argument("--root", required=True, metavar="DIR",
                   help="the daemon's service root")
    p.add_argument("--kind", choices=("place", "route", "eco"),
                   default="place")
    p.add_argument("--routability", action="store_true",
                   help="full routability flow (place jobs)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline design file (eco jobs)")
    p.add_argument("--baseline-checkpoint", default=None, metavar="PATH",
                   help="baseline flow checkpoint (eco jobs)")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--iters-per-round", type=int, default=None)
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first; FIFO within a priority")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print its "
                        "result (exit 1 unless DONE)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait deadline in seconds")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="show daemon/job status")
    p.add_argument("--root", required=True, metavar="DIR")
    p.add_argument("job_id", nargs="?", default=None)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("cancel", help="cancel a queued/running job")
    p.add_argument("--root", required=True, metavar="DIR")
    p.add_argument("job_id")
    p.set_defaults(func=_cmd_cancel)

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
                   help="supervised worker processes (<=1 runs in-process)")
    q.add_argument("--out-dir", default="dse_out",
                   help="directory for unit payloads + manifest")
    q.add_argument("--db", default=None, help="sqlite run database to ingest into")
    q.add_argument("--job-timeout", type=float, default=None)
    q.add_argument("--heartbeat-timeout", type=float, default=None)
    q.add_argument("--job-retries", type=int, default=1)
    q.set_defaults(func=_cmd_dse_run)

    q = dse.add_parser("submit", help="submit a grid to a running daemon")
    q.add_argument("--grid", required=True)
    q.add_argument("--root", required=True, help="service root directory")
    q.add_argument("--priority", type=int, default=0)
    q.set_defaults(func=_cmd_dse_submit)

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
