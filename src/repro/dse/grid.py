"""Declarative parameter grids: knob registry, expansion, sharding.

A *grid spec* is a small JSON or TOML document naming a sweep, the
designs it covers, and the knobs to vary::

    {
      "name": "alpha-sweep",
      "designs": ["des_perf_1", "fft_1"],
      "grid": {"inflation.alpha": [0.2, 0.4, 0.6]},
      "paired": {"rd.max_rounds": [2, 4], "rd.iters_per_round": [40, 20]},
      "scale": 0.25,
      "seed": 0,
      "placers": ["Ours"]
    }

``grid`` knobs are crossed (cartesian product); ``paired`` knobs are
zipped position-wise (all lists must share one length).  Expansion is
deterministic: knob names are iterated in sorted order, values in spec
order, so the same spec always yields the same point list, the same
unit ids, and the same shard assignment.

Every knob lives in the :data:`KNOBS` registry, which maps a dotted
public name to the config dataclass field it rebinds.  The registry is
the single source of truth shared by the sweep runner and
``docs/dse.md``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.inflation import InflationConfig
from repro.core.netmove import NetMoveConfig
from repro.core.pinaccess import PinAccessConfig
from repro.core.rd_placer import RDConfig
from repro.place.config import GPConfig
from repro.route.config import RouterConfig


@dataclass(frozen=True)
class Knob:
    """One sweepable parameter: a dotted name bound to a config field."""

    name: str
    section: str
    attr: str
    kind: str  # "float" | "int" | "bool" | "str"
    doc: str
    choices: tuple | None = None

    def cast(self, value):
        """Validate and coerce ``value`` to the knob's declared type."""
        if self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"knob {self.name!r} expects a number, got {value!r}")
            out = float(value)
        elif self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"knob {self.name!r} expects an integer, got {value!r}")
            out = int(value)
        elif self.kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"knob {self.name!r} expects a boolean, got {value!r}")
            out = bool(value)
        else:
            if not isinstance(value, str):
                raise ValueError(f"knob {self.name!r} expects a string, got {value!r}")
            out = value
        if self.choices is not None and out not in self.choices:
            raise ValueError(
                f"knob {self.name!r} value {out!r} not in {list(self.choices)}"
            )
        return out


def _knob_table() -> dict:
    """Build the registry mapping dotted knob names to bindings."""
    knobs = (
        Knob("gp.target_density", "gp", "target_density", "float",
             "GP target placement density (rho_t)"),
        Knob("gp.max_iters", "gp", "max_iters", "int",
             "Nesterov iteration budget for the initial GP stage"),
        Knob("gp.seed", "gp", "seed", "int",
             "RNG seed for the initial placement spread"),
        Knob("inflation.alpha", "inflation", "alpha", "float",
             "MCI inflation exponent alpha (Eq. 11)"),
        Knob("inflation.r_min", "inflation", "r_min", "float",
             "Inflation-ratio lower clamp (deflation floor, Eq. 12)"),
        Knob("inflation.r_max", "inflation", "r_max", "float",
             "Inflation-ratio upper clamp"),
        Knob("dpa.density_scale", "pinaccess", "density_scale", "float",
             "DPA pin-density charge scale (Eq. 14)"),
        Knob("netmove.max_samples", "netmove", "max_samples", "int",
             "Net-moving congestion samples per net (Alg. 1)"),
        Knob("netmove.max_scale", "netmove", "max_scale", "float",
             "Net-moving gradient scale clamp"),
        Knob("rd.max_rounds", "rd", "max_rounds", "int",
             "RD loop round budget"),
        Knob("rd.iters_per_round", "rd", "iters_per_round", "int",
             "Nesterov iterations per RD round"),
        Knob("rd.multipin_threshold", "rd", "multipin_threshold", "float",
             "Congestion threshold enabling multi-pin net moving (Alg. 2)"),
        Knob("rd.inflation_mode", "rd", "inflation_mode", "str",
             "Inflation accumulation mode", choices=("momentum", "naive")),
        Knob("rd.pg_mode", "rd", "pg_mode", "str",
             "Pseudo-gradient weighting mode", choices=("dynamic", "static")),
        Knob("rd.enable_dc", "rd", "enable_dc", "bool",
             "Enable differentiable-congestion gradients"),
        Knob("router.rrr_rounds", "router", "rrr_rounds", "int",
             "Rip-up-and-reroute rounds in the congestion estimator"),
    )
    return {k.name: k for k in knobs}


KNOBS = _knob_table()


def validate_knobs(knobs: dict) -> dict:
    """Check a knob mapping against :data:`KNOBS`; return the cast copy."""
    if not isinstance(knobs, dict):
        raise ValueError(f"knob mapping must be a dict, got {type(knobs).__name__}")
    out = {}
    for name in sorted(knobs):
        knob = KNOBS.get(name)
        if knob is None:
            raise ValueError(
                f"unknown knob {name!r}; known knobs: {', '.join(sorted(KNOBS))}"
            )
        out[name] = knob.cast(knobs[name])
    return out


@dataclass(frozen=True)
class KnobBinding:
    """Configs produced by applying a knob mapping to flow defaults."""

    gp_config: GPConfig
    rd_config: RDConfig


def apply_knobs(knobs: dict) -> KnobBinding:
    """Rebind a validated knob mapping onto fresh default configs."""
    cast = validate_knobs(knobs)
    by_section: dict = {}
    for name, value in cast.items():
        knob = KNOBS[name]
        by_section.setdefault(knob.section, {})[knob.attr] = value

    gp = GPConfig(**by_section.get("gp", {}))
    rd = RDConfig(
        gp=gp,
        inflation=InflationConfig(**by_section.get("inflation", {})),
        pinaccess=PinAccessConfig(**by_section.get("pinaccess", {})),
        netmove=NetMoveConfig(**by_section.get("netmove", {})),
        router=RouterConfig(**by_section.get("router", {})),
        **by_section.get("rd", {}),
    )
    return KnobBinding(gp_config=gp, rd_config=rd)


@dataclass(frozen=True)
class GridSpec:
    """A parsed, validated sweep specification."""

    name: str
    designs: tuple
    grid: dict = field(default_factory=dict)
    paired: dict = field(default_factory=dict)
    scale: float = 1.0
    seed: int = 0
    placers: tuple = ("Ours",)

    def as_dict(self) -> dict:
        """Plain-dict form, round-trippable through :func:`parse_spec`."""
        return {
            "name": self.name,
            "designs": list(self.designs),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "paired": {k: list(v) for k, v in self.paired.items()},
            "scale": self.scale,
            "seed": self.seed,
            "placers": list(self.placers),
        }


def parse_spec(raw: dict, origin: str = "<spec>") -> GridSpec:
    """Validate a raw spec mapping into a :class:`GridSpec`."""
    if not isinstance(raw, dict):
        raise ValueError(f"{origin}: grid spec must be a mapping")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{origin}: spec needs a non-empty string 'name'")
    designs = raw.get("designs")
    if not isinstance(designs, (list, tuple)) or not designs:
        raise ValueError(f"{origin}: spec needs a non-empty 'designs' list")
    from repro.synth.suite import suite_names

    known = set(suite_names())
    for d in designs:
        if d not in known:
            raise ValueError(f"{origin}: unknown design {d!r}; see `repro gen --list`")

    grid = {k: tuple(v) for k, v in (raw.get("grid") or {}).items()}
    paired = {k: tuple(v) for k, v in (raw.get("paired") or {}).items()}
    overlap = sorted(set(grid) & set(paired))
    if overlap:
        raise ValueError(f"{origin}: knobs in both 'grid' and 'paired': {overlap}")
    for src, mapping in (("grid", grid), ("paired", paired)):
        for knob_name, values in mapping.items():
            knob = KNOBS.get(knob_name)
            if knob is None:
                raise ValueError(f"{origin}: unknown {src} knob {knob_name!r}")
            if not values:
                raise ValueError(f"{origin}: {src} knob {knob_name!r} has no values")
            for v in values:
                knob.cast(v)
    if paired:
        lengths = {len(v) for v in paired.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"{origin}: 'paired' lists must share one length, got {sorted(lengths)}"
            )

    placers = tuple(raw.get("placers") or ("Ours",))
    scale = float(raw.get("scale", 1.0))
    seed = int(raw.get("seed", 0))
    if scale <= 0:
        raise ValueError(f"{origin}: scale must be positive")
    return GridSpec(name=name, designs=tuple(designs), grid=grid, paired=paired,
                    scale=scale, seed=seed, placers=placers)


def load_spec(path) -> GridSpec:
    """Load a grid spec from a ``.json`` or ``.toml`` file."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".toml":
        import tomllib

        raw = tomllib.loads(text)
    elif p.suffix.lower() == ".json":
        raw = json.loads(text)
    else:
        raise ValueError(f"{p}: grid specs must be .json or .toml")
    return parse_spec(raw, origin=str(p))


def expand_points(spec: GridSpec) -> list:
    """Expand a spec into an ordered list of knob-value mappings.

    Crossed knobs iterate in sorted-name, row-major order (last sorted
    name varies fastest); paired knobs advance together.  The result
    order is a pure function of the spec — the determinism contract
    the shard layer and unit ids build on.
    """
    grid_names = sorted(spec.grid)
    grid_axes = [spec.grid[n] for n in grid_names]
    crossed = [dict(zip(grid_names, combo))
               for combo in itertools.product(*grid_axes)] if grid_names else [{}]

    paired_names = sorted(spec.paired)
    if paired_names:
        n_pairs = len(spec.paired[paired_names[0]])
        zipped = [{n: spec.paired[n][i] for n in paired_names}
                  for i in range(n_pairs)]
    else:
        zipped = [{}]

    points = []
    for base in crossed:
        for extra in zipped:
            point = dict(base)
            point.update(extra)
            points.append(validate_knobs(point))
    return points


@dataclass(frozen=True)
class DseUnit:
    """One schedulable sweep unit: a (point, design) pair."""

    unit_id: str
    index: int
    point: int
    design: str
    knobs: dict
    scale: float
    seed: int
    placers: tuple

    def as_dict(self) -> dict:
        """JSON-serialisable form used in manifests and payloads."""
        return {
            "unit_id": self.unit_id,
            "index": self.index,
            "point": self.point,
            "design": self.design,
            "knobs": dict(self.knobs),
            "scale": self.scale,
            "seed": self.seed,
            "placers": list(self.placers),
        }


def make_units(spec: GridSpec) -> list:
    """Expand a spec into its full ordered :class:`DseUnit` list."""
    units = []
    index = 0
    for pi, point in enumerate(expand_points(spec)):
        for design in spec.designs:
            units.append(DseUnit(
                unit_id=f"{spec.name}:p{pi:03d}:{design}",
                index=index,
                point=pi,
                design=design,
                knobs=point,
                scale=spec.scale,
                seed=spec.seed,
                placers=spec.placers,
            ))
            index += 1
    return units


def shard_units(units: list, n_shards: int) -> list:
    """Deal units round-robin into ``n_shards`` deterministic shards."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    shards = [[] for _ in range(n_shards)]
    for unit in units:
        shards[unit.index % n_shards].append(unit)
    return shards
