"""Regenerate the ECO QoR-delta experiment (``results/eco_qor.json``).

One acceptance-style run of the incremental flow: place a toy design
with the ``Ours`` recipe (:func:`repro.baselines.run_ours`), resize one
cell (a <=5%-of-cells edit), then serve the edit twice — once with
:func:`repro.eco.eco_place` (warm start + frozen clean region + partial
reroute) and once as a cold re-place — and record both sides' QoR plus
wall-clock.  The cold side is :func:`repro.eco.full_replace` (the
``Ours`` recipe on a copy, scored by one routing pass on the flow grid,
with the re-placed netlist's legality count).  ``python
scripts/fill_experiments.py`` renders the numbers into the measured
block of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.baselines import run_ours  # noqa: E402
from repro.core.rd_placer import RDConfig  # noqa: E402
from repro.eco import EcoConfig, eco_place, full_replace  # noqa: E402
from repro.io.bookshelf import dumps_design, loads_design  # noqa: E402
from repro.legalize import check_legal  # noqa: E402
from repro.place.config import GPConfig  # noqa: E402
from repro.synth import toy_design  # noqa: E402


def _resize_cell(text: str, cell: str, factor: float) -> str:
    """Scale one cell's width in a serialized design."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "cell" and parts[1] == cell:
            parts[2] = str(float(parts[2]) * factor)
            line = " ".join(parts)
        out.append(line)
    return "\n".join(out) + "\n"


def main() -> int:
    """Run the ECO-vs-cold comparison and write the results file."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=200)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--utilization", type=float, default=0.75)
    parser.add_argument("--edit-cell", default="c10")
    parser.add_argument("--resize-factor", type=float, default=2.0)
    parser.add_argument("--out", default="results/eco_qor.json")
    args = parser.parse_args()

    rd = RDConfig(gp=GPConfig(max_iters=150), max_rounds=4, iters_per_round=20)

    baseline = run_ours(
        toy_design(args.cells, seed=args.seed, utilization=args.utilization),
        rd,
    ).netlist
    text = dumps_design(baseline)
    edited = _resize_cell(text, args.edit_cell, args.resize_factor)

    eco_nl = loads_design(edited)
    t0 = time.perf_counter()
    eco = eco_place(eco_nl, loads_design(text), EcoConfig(rd=rd))
    eco_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = full_replace(loads_design(edited), rd)
    full_s = time.perf_counter() - t0

    payload = {
        "design": baseline.name,
        "n_cells": int(eco_nl.n_cells),
        "utilization": args.utilization,
        "edit": f"resize {args.edit_cell} width x{args.resize_factor}",
        "n_edits": eco.diff.n_edits,
        "n_dirty_cells": eco.region.n_dirty_cells,
        "n_dirty_nets": eco.region.n_dirty_nets,
        "warm_source": eco.warm.source,
        "eco": {
            "hpwl": eco.hpwl,
            "total_overflow": eco.total_overflow,
            "rounds": eco.n_rounds,
            "elapsed_s": round(eco_s, 3),
            "legal_issues": len(check_legal(eco_nl)),
        },
        "full": {
            "hpwl": full["hpwl"],
            "total_overflow": full["total_overflow"],
            "rounds": full["rounds"],
            "elapsed_s": round(full_s, 3),
            "legal_issues": full["legal_issues"],
        },
        "hpwl_ratio": eco.hpwl / full["hpwl"],
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
