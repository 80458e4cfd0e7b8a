"""Regenerate the Measured tables in EXPERIMENTS.md from results/*.json.

The measured Table I / Table II / ECO blocks are wrapped in
``<!-- fill:NAME -->`` / ``<!-- /fill:NAME -->`` markers; this script
recomputes each block's ratio table from the results files and
rewrites the text in between, so EXPERIMENTS.md can be refreshed after
any bench rerun with ``python scripts/fill_experiments.py``.

Both result shapes are accepted: the bare row list the early table
scripts wrote (``results/table1.json``) and the full payload of
``python -m repro bench --table N --out results/tableN.json``
(``{"rows": [...], "errors": [...], ...}``).
"""

from __future__ import annotations

import json
import os
import re
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.evalrt.report import MetricRow, ratio_row  # noqa: E402

EXPERIMENTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "EXPERIMENTS.md"
)


def load_rows(path: str) -> list:
    """Rows from either a bare list or a ``bench --out`` payload dict."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        rows = doc.get("rows")
        if rows is None:
            raise SystemExit(
                f"{path}: payload dict has no 'rows' key "
                f"(keys: {', '.join(sorted(doc))})"
            )
    else:
        rows = doc
    return [MetricRow(r["design"], r["placer"], r["metrics"]) for r in rows]


def _ordered_placers(rows: list) -> list:
    """Placer names in first-appearance order."""
    seen: list = []
    for row in rows:
        if row.placer not in seen:
            seen.append(row.placer)
    return seen


def ratio_table(rows: list, reference: str, keys: tuple,
                bold: str | None = None, label: str = "Placer") -> str:
    """Markdown ratio table (reference placer normalised to 1.00)."""
    ratios = ratio_row(rows, reference, keys=keys)
    lines = [
        f"| {label} | " + " | ".join(keys) + " |",
        "|" + "---|" * (len(keys) + 1),
    ]
    for placer in _ordered_placers(rows):
        cells = []
        for key in keys:
            value = f"{ratios[placer][key]:.2f}"
            if key == bold and placer != reference:
                value = f"**{value}**"
            cells.append(value)
        lines.append(f"| {placer} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def fill_block(text: str, name: str, body: str) -> str:
    """Replace the contents between the ``fill:name`` markers."""
    pattern = re.compile(
        rf"(<!-- fill:{re.escape(name)} -->\n).*?(\n<!-- /fill:{re.escape(name)} -->)",
        re.S,
    )
    if not pattern.search(text):
        raise SystemExit(f"EXPERIMENTS.md: missing <!-- fill:{name} --> markers")
    return pattern.sub(lambda m: m.group(1) + body + m.group(2), text)


def eco_table(path: str) -> str:
    """Markdown QoR-delta block from ``results/eco_qor.json``.

    Two rows (the incremental flow and the cold full re-place of the
    same edited design) over the comparable QoR axes, plus a context
    line describing the edit and the dirty region.
    """
    with open(path) as fh:
        doc = json.load(fh)
    eco, full = doc["eco"], doc["full"]
    lines = [
        f"Design `{doc['design']}` ({doc['n_cells']} cells, "
        f"util {doc['utilization']}), edit: {doc['edit']} "
        f"({doc['n_edits']} edit -> {doc['n_dirty_cells']} dirty cells, "
        f"{doc['n_dirty_nets']} dirty nets).",
        "",
        "| Flow | HPWL | overflow | RD rounds | wall-clock s | legal |",
        "|---|---|---|---|---|---|",
    ]
    for name, side in (("`repro eco`", eco), ("cold full re-place", full)):
        legal = "CLEAN" if side["legal_issues"] == 0 else f"{side['legal_issues']} issues"
        lines.append(
            f"| {name} | {side['hpwl']:.0f} | {side['total_overflow']:.2f} "
            f"| {side['rounds']} | {side['elapsed_s']:.3f} | {legal} |"
        )
    lines.append(
        f"\nHPWL ratio (eco / full): **{doc['hpwl_ratio']:.3f}**."
    )
    return "\n".join(lines)


def main() -> int:
    """Recompute every measured block and rewrite EXPERIMENTS.md."""
    text = open(EXPERIMENTS).read()

    t1 = load_rows("results/table1.json")
    text = fill_block(
        text, "table1",
        ratio_table(t1, "Ours", keys=("DRWL", "#DRVias", "#DRVs", "PT", "RT"),
                    bold="#DRVs"))

    t2 = load_rows("results/table2.json")
    text = fill_block(
        text, "table2",
        ratio_table(t2, "+MCI+DC+DPA", keys=("DRWL", "#DRVias", "#DRVs"),
                    label="Configuration"))

    text = fill_block(text, "eco", eco_table("results/eco_qor.json"))

    open(EXPERIMENTS, "w").write(text)
    print("EXPERIMENTS.md measured tables regenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
