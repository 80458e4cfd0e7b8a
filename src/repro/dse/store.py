"""Sqlite run database for sweep results and bench history.

:class:`RunDB` is a thin layer over stdlib :mod:`sqlite3`.  It ingests
three source shapes — per-unit sweep payloads (``dse_unit`` JSON),
telemetry JSONL segments, and ``results/BENCH_*.json`` bench payloads —
into indexed tables, and answers the three queries the ROADMAP asks
for: ``best_by(metric)``, ``trend(knob, metric)``, and
``compare(run_a, run_b)``.

Ingestion is idempotent: every source document is hashed
(sha256 of its canonical JSON) into the ``ingests`` table and a
re-ingest of the same content is a no-op.  The full schema is
documented column by column in ``docs/dse.md``.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path

#: Columns stored per ``rd.round`` telemetry event (docs/telemetry.md).
ROUND_FIELDS = (
    "round", "c_value", "mean_congestion", "max_congestion",
    "total_overflow", "hpwl", "lambda2", "mean_inflation",
    "max_inflation", "n_deflated", "netmove_grad_l1",
    "multipin_grad_l1", "dpa_bins", "dpa_charge", "router_fallbacks",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE IF NOT EXISTS ingests (
    hash TEXT PRIMARY KEY, source TEXT, kind TEXT);
CREATE TABLE IF NOT EXISTS units (
    unit_id TEXT PRIMARY KEY, sweep TEXT, design TEXT,
    point INTEGER, unit_index INTEGER, elapsed_s REAL,
    error TEXT, source TEXT);
CREATE TABLE IF NOT EXISTS knobs (
    unit_id TEXT, name TEXT, value TEXT, value_num REAL,
    PRIMARY KEY (unit_id, name));
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY, unit_id TEXT, sweep TEXT,
    design TEXT, placer TEXT);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT, name TEXT, value REAL,
    PRIMARY KEY (run_id, name));
CREATE TABLE IF NOT EXISTS rounds (
    unit_id TEXT, flow INTEGER, round INTEGER,
    c_value REAL, mean_congestion REAL, max_congestion REAL,
    total_overflow REAL, hpwl REAL, lambda2 REAL,
    mean_inflation REAL, max_inflation REAL, n_deflated REAL,
    netmove_grad_l1 REAL, multipin_grad_l1 REAL,
    dpa_bins REAL, dpa_charge REAL, router_fallbacks REAL,
    PRIMARY KEY (unit_id, flow, round));
CREATE TABLE IF NOT EXISTS kernel_events (
    unit_id TEXT, requested TEXT, resolved TEXT,
    numba_available INTEGER,
    PRIMARY KEY (unit_id, requested, resolved));
CREATE TABLE IF NOT EXISTS supervisor_events (
    sweep TEXT, seq INTEGER, kind TEXT, job TEXT,
    attempt INTEGER, payload TEXT,
    PRIMARY KEY (sweep, seq, kind));
CREATE TABLE IF NOT EXISTS bench_payloads (
    file TEXT PRIMARY KEY, bench TEXT, json TEXT);
CREATE TABLE IF NOT EXISTS bench_metrics (
    file TEXT, family TEXT, label TEXT, metric TEXT, value REAL,
    PRIMARY KEY (file, family, label, metric));
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);
CREATE INDEX IF NOT EXISTS idx_knobs_name ON knobs (name);
CREATE INDEX IF NOT EXISTS idx_bench_family ON bench_metrics (family, metric);
"""


def _canonical_hash(doc) -> str:
    """Content hash of a JSON-serialisable document (ingest identity)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _num(value):
    """Float form of a knob value when it has one, else ``None``."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


class RunDB:
    """Queryable sqlite database of sweep runs and bench history."""

    def __init__(self, path=":memory:"):
        """Open (creating if needed) the database at ``path``."""
        self.path = str(path)
        self.conn = sqlite3.connect(self.path)
        self.conn.executescript(_SCHEMA)
        self.conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', '1')")
        self.conn.commit()

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self.conn.close()

    def __enter__(self):
        """Context-manager entry: return the open database."""
        return self

    def __exit__(self, *exc):
        """Context-manager exit: close the connection."""
        self.close()
        return False

    # ------------------------------------------------------------------
    # ingestion

    def _seen(self, doc, source: str, kind: str) -> bool:
        """Record the document hash; return True when already ingested."""
        h = _canonical_hash(doc)
        cur = self.conn.execute("SELECT 1 FROM ingests WHERE hash = ?", (h,))
        if cur.fetchone():
            return True
        self.conn.execute(
            "INSERT INTO ingests (hash, source, kind) VALUES (?, ?, ?)",
            (h, source, kind))
        return False

    def ingest_unit_payload(self, payload: dict, source: str = "<mem>") -> bool:
        """Ingest one per-unit sweep payload; returns False if a repeat."""
        if payload.get("dse_unit") != 1:
            raise ValueError(f"{source}: not a dse unit payload")
        if self._seen(payload, source, "unit"):
            self.conn.commit()
            return False
        unit_id = payload["unit_id"]
        sweep = payload.get("sweep", "")
        design = payload.get("design", "")
        self.conn.execute(
            "INSERT OR REPLACE INTO units "
            "(unit_id, sweep, design, point, unit_index, elapsed_s, error, source) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (unit_id, sweep, design, payload.get("point"),
             payload.get("unit_index"), payload.get("elapsed_s"),
             payload.get("error"), source))
        for name, value in sorted((payload.get("knobs") or {}).items()):
            self.conn.execute(
                "INSERT OR REPLACE INTO knobs (unit_id, name, value, value_num) "
                "VALUES (?, ?, ?, ?)",
                (unit_id, name, json.dumps(value), _num(value)))
        for row in payload.get("rows") or []:
            run_id = f"{unit_id}:{row['placer']}"
            self.conn.execute(
                "INSERT OR REPLACE INTO runs (run_id, unit_id, sweep, design, placer) "
                "VALUES (?, ?, ?, ?, ?)",
                (run_id, unit_id, sweep, row.get("design", design), row["placer"]))
            for metric, value in sorted((row.get("metrics") or {}).items()):
                if _num(value) is not None:
                    self.conn.execute(
                        "INSERT OR REPLACE INTO metrics (run_id, name, value) "
                        "VALUES (?, ?, ?)", (run_id, metric, float(value)))
        self._ingest_unit_events(unit_id, payload.get("events") or [])
        self.conn.commit()
        return True

    def _ingest_unit_events(self, unit_id: str, events: list) -> None:
        """Extract ``rd.round`` and ``kernel.backend`` rows from a stream."""
        flow = -1
        for event in events:
            kind = event.get("kind")
            if kind == "rd.start":
                flow += 1
            elif kind == "rd.round":
                cols = [event.get(f) for f in ROUND_FIELDS]
                self.conn.execute(
                    "INSERT OR REPLACE INTO rounds "
                    f"(unit_id, flow, {', '.join(ROUND_FIELDS)}) "
                    f"VALUES (?, ?, {', '.join('?' * len(ROUND_FIELDS))})",
                    [unit_id, max(flow, 0)] + cols)
            elif kind == "kernel.backend":
                self.conn.execute(
                    "INSERT OR REPLACE INTO kernel_events "
                    "(unit_id, requested, resolved, numba_available) "
                    "VALUES (?, ?, ?, ?)",
                    (unit_id, event.get("requested"), event.get("resolved"),
                     int(bool(event.get("numba_available")))))

    def ingest_jsonl(self, path) -> bool:
        """Ingest a telemetry JSONL stream (sweep/supervisor events)."""
        p = Path(path)
        events = [json.loads(line) for line in p.read_text().splitlines() if line]
        if self._seen(events, str(p), "jsonl"):
            self.conn.commit()
            return False
        sweep = ""
        for event in events:
            kind = event.get("kind", "")
            if kind == "run.start":
                sweep = event.get("sweep", sweep) or sweep
            # job.* and service.* kinds only occur in streams recorded
            # while the supervised job runtime and the placement daemon
            # still existed; keep ingesting them
            if kind.startswith(("job.", "dse.", "service.")):
                payload = {k: v for k, v in event.items()
                           if k not in ("v", "seq", "kind", "job", "attempt", "t")}
                self.conn.execute(
                    "INSERT OR REPLACE INTO supervisor_events "
                    "(sweep, seq, kind, job, attempt, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (event.get("sweep", sweep) or sweep, event.get("seq", -1),
                     kind, event.get("job") or event.get("unit"),
                     event.get("attempt"), json.dumps(payload, sort_keys=True)))
        self.conn.commit()
        return True

    def ingest_bench_json(self, path) -> bool:
        """Ingest a ``results/*.json`` bench payload into history tables."""
        p = Path(path)
        doc = json.loads(p.read_text())
        if isinstance(doc, dict) and doc.get("dse_unit") == 1:
            return self.ingest_unit_payload(doc, source=str(p))
        if isinstance(doc, dict) and "spec" in doc and "units" in doc:
            fresh = not self._seen(doc, str(p), "manifest")
            self.conn.commit()
            return fresh  # sweep manifest: identity only, no metric rows
        if self._seen(doc, str(p), "bench"):
            self.conn.commit()
            return False
        name = p.name
        bench = doc.get("bench", "") if isinstance(doc, dict) else "table"
        rows = []
        if isinstance(doc, list):
            rows = [("table", f"{r['design']}/{r['placer']}", m, v)
                    for r in doc for m, v in sorted(r.get("metrics", {}).items())
                    if _num(v) is not None]
        elif "rows" in doc:
            bench = bench or doc.get("kind", "table")
            rows = [("table", f"{r['design']}/{r['placer']}", m, v)
                    for r in doc.get("rows") or []
                    for m, v in sorted(r.get("metrics", {}).items())
                    if _num(v) is not None]
        elif bench == "kernels":
            for entry in doc.get("per_size") or []:
                label = f"n{entry.get('n_cells')}"
                for family, stats in sorted((entry.get("families") or {}).items()):
                    rows.extend((family, label, m, v)
                                for m, v in sorted(stats.items())
                                if _num(v) is not None)
        elif "spectral" in doc:
            bench = bench or "spectral"
            for entry in doc.get("spectral", {}).get("per_dim") or []:
                label = f"dim{entry.get('dim')}"
                rows.extend(("spectral", label, m, v)
                            for m, v in sorted(entry.items())
                            if m != "dim" and _num(v) is not None)
        elif bench == "route":
            for design, stats in sorted((doc.get("designs") or {}).items()):
                flat = stats if isinstance(stats, dict) else {}
                for section, values in sorted(flat.items()):
                    if isinstance(values, dict):
                        rows.extend(("route", f"{design}/{section}", m, v)
                                    for m, v in sorted(values.items())
                                    if _num(v) is not None)
                    elif _num(values) is not None:
                        rows.append(("route", design, section, values))
        self.conn.execute(
            "INSERT OR REPLACE INTO bench_payloads (file, bench, json) "
            "VALUES (?, ?, ?)",
            (name, bench or "table", json.dumps(doc, sort_keys=True)))
        for family, label, metric, value in rows:
            self.conn.execute(
                "INSERT OR REPLACE INTO bench_metrics "
                "(file, family, label, metric, value) VALUES (?, ?, ?, ?, ?)",
                (name, family, label, metric, float(value)))
        self.conn.commit()
        return True

    def ingest_path(self, path) -> bool:
        """Dispatch one file to the right ingester by suffix."""
        p = Path(path)
        if p.suffix == ".jsonl":
            return self.ingest_jsonl(p)
        if p.suffix == ".json":
            return self.ingest_bench_json(p)
        raise ValueError(f"{p}: don't know how to ingest this suffix")

    # ------------------------------------------------------------------
    # queries

    def best_by(self, metric: str, placer: str | None = None,
                minimize: bool = True, limit: int = 10) -> list:
        """Rank runs by a metric; each hit carries its unit's knobs."""
        order = "ASC" if minimize else "DESC"
        sql = (
            "SELECT r.run_id, r.design, r.placer, m.value "
            "FROM metrics m JOIN runs r ON r.run_id = m.run_id "
            "WHERE m.name = ?")
        params = [metric]
        if placer is not None:
            sql += " AND r.placer = ?"
            params.append(placer)
        sql += f" ORDER BY m.value {order}, r.run_id LIMIT ?"
        params.append(limit)
        out = []
        for run_id, design, placer_name, value in self.conn.execute(sql, params):
            unit_id = run_id.rsplit(":", 1)[0]
            knobs = {name: json.loads(raw) for name, raw in self.conn.execute(
                "SELECT name, value FROM knobs WHERE unit_id = ? ORDER BY name",
                (unit_id,))}
            out.append({"run_id": run_id, "design": design,
                        "placer": placer_name, "value": value, "knobs": knobs})
        return out

    def trend(self, knob: str, metric: str, placer: str | None = None) -> list:
        """Mean of a metric grouped by a knob's value, sorted by value."""
        sql = (
            "SELECT k.value, k.value_num, AVG(m.value), COUNT(*) "
            "FROM knobs k "
            "JOIN runs r ON r.unit_id = k.unit_id "
            "JOIN metrics m ON m.run_id = r.run_id "
            "WHERE k.name = ? AND m.name = ?")
        params = [knob, metric]
        if placer is not None:
            sql += " AND r.placer = ?"
            params.append(placer)
        sql += " GROUP BY k.value ORDER BY k.value_num, k.value"
        return [
            {"value": json.loads(raw), "value_num": num, "mean": mean, "n": n}
            for raw, num, mean, n in self.conn.execute(sql, params)]

    def compare(self, run_a: str, run_b: str) -> dict:
        """Metric-by-metric diff of two runs (``b - a`` deltas)."""
        def metrics_of(run_id):
            rows = dict(self.conn.execute(
                "SELECT name, value FROM metrics WHERE run_id = ?", (run_id,)))
            if not rows and not self.conn.execute(
                    "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)).fetchone():
                raise KeyError(f"unknown run_id {run_id!r}")
            return rows

        a, b = metrics_of(run_a), metrics_of(run_b)
        out = {}
        for name in sorted(set(a) | set(b)):
            va, vb = a.get(name), b.get(name)
            delta = vb - va if va is not None and vb is not None else None
            out[name] = {"a": va, "b": vb, "delta": delta}
        return {"run_a": run_a, "run_b": run_b, "metrics": out}

    def unit_rounds(self, unit_id: str, flow: int = 0) -> list:
        """Per-round RD telemetry for one unit's flow, in round order."""
        cols = ", ".join(ROUND_FIELDS)
        return [dict(zip(ROUND_FIELDS, row)) for row in self.conn.execute(
            f"SELECT {cols} FROM rounds WHERE unit_id = ? AND flow = ? "
            "ORDER BY round", (unit_id, flow))]

    def knob_names(self) -> list:
        """Distinct knob names present in the database, sorted."""
        return [r[0] for r in self.conn.execute(
            "SELECT DISTINCT name FROM knobs ORDER BY name")]

    def metric_names(self) -> list:
        """Distinct run-metric names present in the database, sorted."""
        return [r[0] for r in self.conn.execute(
            "SELECT DISTINCT name FROM metrics ORDER BY name")]

    def bench_files(self) -> list:
        """Ingested bench payload filenames, sorted (history order)."""
        return [r[0] for r in self.conn.execute(
            "SELECT file FROM bench_payloads ORDER BY file")]

    def bench_series(self, family: str, metric: str) -> dict:
        """``label -> [(file, value), ...]`` history for one bench metric."""
        out: dict = {}
        for file, label, value in self.conn.execute(
                "SELECT file, label, value FROM bench_metrics "
                "WHERE family = ? AND metric = ? ORDER BY file, label",
                (family, metric)):
            out.setdefault(label, []).append((file, value))
        return out

    def bench_families(self) -> list:
        """Distinct ``(family, metric)`` pairs in the bench history."""
        return list(self.conn.execute(
            "SELECT DISTINCT family, metric FROM bench_metrics "
            "ORDER BY family, metric"))

    def summary(self) -> dict:
        """Row counts per table plus sweep names — the CLI status view."""
        counts = {}
        for table in ("units", "runs", "metrics", "rounds", "knobs",
                      "supervisor_events", "bench_payloads", "bench_metrics",
                      "ingests"):
            counts[table] = self.conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        sweeps = [r[0] for r in self.conn.execute(
            "SELECT DISTINCT sweep FROM units ORDER BY sweep")]
        return {"counts": counts, "sweeps": sweeps}

    def dump(self) -> dict:
        """Canonical sorted dict of all tables (determinism tests)."""
        out = {}
        for table in ("units", "knobs", "runs", "metrics", "rounds",
                      "kernel_events", "supervisor_events", "bench_payloads",
                      "bench_metrics"):
            cur = self.conn.execute(f"SELECT * FROM {table}")
            cols = [d[0] for d in cur.description]
            out[table] = sorted(
                [dict(zip(cols, row)) for row in cur.fetchall()],
                key=lambda r: json.dumps(r, sort_keys=True, default=str))
        return out
