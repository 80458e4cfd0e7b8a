"""Per-layer span tracing installed from outside the program.

:data:`SPANS` is the layer map of the benchmark: every entry names one
span, the public entry points it wraps, the end-to-end metrics that
layer should move and the workloads that must hit it.  The wrappers are
installed by rebinding module and class attributes, so ``src/`` carries
no tracing code.  A function imported by name is patched where it is
looked up (``repro.baselines.flows.legalize`` as well as
``repro.legalize.legalize``), and each binding wraps its own original,
so one call is recorded once.

Self time is a span's duration minus the time its direct child spans
cover.  Busy time is counted only for the outermost span of a name, so
a layer that re-enters itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

GP_LARGE, RD_HOTSPOT, ECO_STREAM = "gp_large", "rd_hotspot", "eco_stream"
ALL = (GP_LARGE, RD_HOTSPOT, ECO_STREAM)


@dataclass(frozen=True)
class Span:
    """One traced layer boundary."""

    name: str
    #: ``(module, attribute)`` bindings; ``Class.method`` patches a class
    targets: tuple
    #: end-to-end metrics this layer's time or counts should move
    moves: tuple
    #: workloads on which the span must record at least one call
    on: tuple


SPANS = (
    Span("place.converge",
         (("repro.baselines.flows", "converge_placement"),
          ("repro.place.global_placer", "converge_placement")),
         ("place_s", "hpwl"), (GP_LARGE, RD_HOTSPOT)),
    Span("density.solve",
         (("repro.density.electrostatic", "ElectrostaticSystem.solve"),),
         ("place_s",), ALL),
    Span("density.raster",
         (("repro.density.rasterize", "CellRasterizer.__init__"),
          ("repro.density.rasterize", "CellRasterizer.charge_map")),
         ("place_s",), ALL),
    Span("density.spectral",
         (("repro.density.poisson", "SpectralWorkspace.solve"),),
         ("place_s",), ALL),
    Span("wirelength.wa",
         (("repro.wirelength.wa", "WAWirelength.__call__"),),
         ("place_s",), (GP_LARGE, RD_HOTSPOT)),
    Span("optim.step",
         (("repro.optim.nesterov", "NesterovOptimizer.do_step"),),
         ("place_s",), ALL),
    Span("core.rd",
         (("repro.core.rd_placer", "RoutabilityDrivenPlacer.run"),),
         ("place_s", "drvs"), (RD_HOTSPOT, ECO_STREAM)),
    Span("core.netmove",
         (("repro.core.rd_placer", "two_pin_net_gradients"),),
         ("place_s", "drvs"), (RD_HOTSPOT, ECO_STREAM)),
    Span("core.multipin",
         (("repro.core.rd_placer", "multi_pin_cell_gradients"),),
         ("place_s", "drvs"), (RD_HOTSPOT, ECO_STREAM)),
    Span("core.inflation",
         (("repro.core.inflation", "MomentumInflation.update"),),
         ("place_s", "drvs"), (RD_HOTSPOT, ECO_STREAM)),
    Span("core.pinaccess",
         (("repro.core.rd_placer", "pg_density_charge"),),
         ("place_s", "drvs"), (RD_HOTSPOT, ECO_STREAM)),
    Span("route.route",
         (("repro.route.router", "GlobalRouter.route"),),
         ("place_s", "flow_s"), ALL),
    Span("legalize.legalize",
         (("repro.baselines.flows", "legalize"),
          ("repro.legalize", "legalize")),
         ("place_s", "hpwl"), ALL),
    Span("detail.refine",
         (("repro.baselines.flows", "detailed_place"),
          ("repro.detail", "detailed_place")),
         ("place_s", "hpwl"), ALL),
    Span("evalrt.evaluate",
         (("repro.evalrt.evaluator", "evaluate_routing"),),
         ("flow_s",), ALL),
    Span("eco.diff", (("repro.eco.flow", "diff_netlists"),),
         ("place_s",), (ECO_STREAM,)),
    Span("eco.warm", (("repro.eco.flow", "apply_warm_start"),),
         ("place_s",), (ECO_STREAM,)),
    Span("eco.region", (("repro.eco.flow", "dirty_region"),),
         ("place_s",), (ECO_STREAM,)),
    Span("eco.place", (("repro.eco.flow", "eco_place"),),
         ("place_s",), (ECO_STREAM,)),
    Span("synth.generate", (("repro.synth.suite", "suite_design"),),
         ("setup_s",), ALL),
    Span("io.loads", (("repro.io.bookshelf", "loads_design"),),
         ("setup_s",), (ECO_STREAM,)),
)

#: Counts derived at span boundaries: name -> (unit, end-to-end metrics moved).
COUNTS = {
    "place.iters": ("count", ("place_s", "hpwl")),
    "place.ms_per_iter": ("ms", ("place_s",)),
    "density.raster_builds_per_iter": ("1/iter", ("place_s",)),
    "core.rounds": ("count", ("place_s", "drvs")),
    "core.kept_round": ("count", ("drvs",)),
    "core.useful_round_frac": ("fraction", ("place_s",)),
    "core.multipin_active_rounds": ("count", ("drvs",)),
    "route.segments": ("count", ("place_s", "flow_s")),
    "route.fallback_frac": ("fraction", ("place_s",)),
    "detail.moves_applied": ("count", ("hpwl",)),
    "eco.dirty_cell_frac": ("fraction", ("place_s",)),
    "eco.edit_p50_s": ("s", ("place_s",)),
}

#: Root span of a workload's set-up.  Inside it only the set-up layers are
#: recorded: eco_stream's baseline flow is input preparation, not ECO work.
SETUP = "bench.setup"
SETUP_LAYERS = ("synth.generate", "io.loads")

#: Ancestors under which a rasterizer build counts as per-iteration GP work
_GP_PARENTS = ("place.converge", "optim.step")


def _resolve(module: str, attr: str):
    """``(owner, name)`` of one binding: a module or a class attribute."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder; :meth:`install` wraps every :data:`SPANS`
    binding until :meth:`uninstall`.

    ``watch`` lists ``(span, ancestor)`` pairs whose nested busy time is
    accumulated in :attr:`within`.
    """

    def __init__(self, watch=(), clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict = defaultdict(int)
        self.busy: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.within: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.eco_place_s: list = []  # one duration per eco_place call
        self._watch: dict = {}
        for span, ancestor in watch:
            self._watch[span] = self._watch.get(span, ()) + (ancestor,)
        self._open: dict = defaultdict(int)  # name -> open frames
        self._stack: list = []  # open frames: [name, start, child time]
        self._saved: list = []

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        """Open a span (pair with :meth:`exit`)."""
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float | None:
        """Close the innermost span; its duration, or None if not recorded."""
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        if self._stack:
            self._stack[-1][2] += dur
        self._open[name] -= 1
        if self._open[SETUP] and name not in SETUP_LAYERS:
            return None
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if not self._open[name]:
            self.busy[name] += dur
        for ancestor in self._watch.get(name, ()):
            if self._open[ancestor]:
                self.within[(name, ancestor)] += dur
        return dur

    def under(self, names) -> bool:
        """True when any open span is one of ``names``."""
        return any(self._open[n] for n in names)

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`enter` / :meth:`exit`."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, attr: str):
        """``fn`` recorded as span ``name``; ``attr`` selects the counts."""
        tracer = self
        hook = _HOOKS.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
            if hook is not None and dur is not None:
                hook(tracer, result, dur)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every binding of :data:`SPANS`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for span in SPANS:
                for module, attr in span.targets:
                    owner, name = _resolve(module, attr)
                    original = getattr(owner, name)
                    self._saved.append((owner, name, original))
                    setattr(owner, name, self.wrap(original, span.name, attr))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Every span's calls / busy / self time plus the derived counts."""
        out = {}
        for span in SPANS:
            out[f"{span.name}.calls"] = (self.calls[span.name], "count")
            out[f"{span.name}.busy_s"] = (self.busy[span.name], "s")
            out[f"{span.name}.self_s"] = (self.self_time[span.name], "s")
        c = self.counts
        iters = c["place.iters"]
        steps = self.calls["optim.step"]
        rounds = c["core.rounds"]
        passes = self.calls["route.route"]
        places = self.eco_place_s
        derived = {
            "place.iters": iters,
            "place.ms_per_iter": (
                1e3 * self.busy["place.converge"] / iters if iters else 0.0
            ),
            "density.raster_builds_per_iter": (
                c["raster_builds"] / steps if steps else 0.0
            ),
            "core.rounds": rounds,
            "core.kept_round": (
                c["core.kept_round_sum"] / c["core.runs"] if c["core.runs"] else 0.0
            ),
            "core.useful_round_frac": (
                c["core.kept_round_sum"] / rounds if rounds else 0.0
            ),
            "core.multipin_active_rounds": c["core.multipin_active_rounds"],
            "route.segments": c["route.segments"],
            "route.fallback_frac": (
                c["route.fallback_passes"] / passes if passes else 0.0
            ),
            "detail.moves_applied": c["detail.moves_applied"],
            "eco.dirty_cell_frac": (
                c["eco.dirty_frac_sum"] / len(places) if places else 0.0
            ),
            "eco.edit_p50_s": statistics.median(places) if places else 0.0,
        }
        for name, value in derived.items():
            out[name] = (value, COUNTS[name][0])
        return out


# ----------------------------------------------------------------------
# counts recorded at span boundaries, keyed by the wrapped binding
# ----------------------------------------------------------------------
def _converge(tr: Tracer, result, dur) -> None:
    tr.counts["place.iters"] += result


def _raster_init(tr: Tracer, result, dur) -> None:
    if tr.under(_GP_PARENTS):
        tr.counts["raster_builds"] += 1


def _rd_run(tr: Tracer, result, dur) -> None:
    tr.counts["core.runs"] += 1
    tr.counts["core.rounds"] += result.n_rounds
    tr.counts["core.kept_round_sum"] += max(result.best_round, 0)
    tr.counts["core.multipin_active_rounds"] += sum(
        r.multipin_grad_l1 > 0 for r in result.rounds
    )


def _route(tr: Tracer, result, dur) -> None:
    tr.counts["route.segments"] += result.n_segments
    tr.counts["route.fallback_passes"] += result.n_fallbacks > 0


def _detail(tr: Tracer, result, dur) -> None:
    tr.counts["detail.moves_applied"] += (
        result.shifts_applied + result.swaps_applied
    )


def _eco_place(tr: Tracer, result, dur) -> None:
    tr.eco_place_s.append(dur)
    n_movable = int(result.netlist.movable.sum())
    tr.counts["eco.dirty_frac_sum"] += (
        result.region.n_dirty_cells / n_movable if n_movable else 0.0
    )


_HOOKS = {
    "converge_placement": _converge,
    "CellRasterizer.__init__": _raster_init,
    "RoutabilityDrivenPlacer.run": _rd_run,
    "GlobalRouter.route": _route,
    "detailed_place": _detail,
    "eco_place": _eco_place,
}
