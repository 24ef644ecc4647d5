#!/usr/bin/env python3
"""Merge the repository's BENCH_*.json result files into one summary table.

The perf binaries under bench/ each leave a JSON file in the repository
root: either the curated format (``benchmarks`` is a mapping of name ->
{seed, current, speedup_*, ...}) or raw google-benchmark output
(``benchmarks`` is a list).  Curated entries may carry extra context fields
(BENCH_topology.json records per-scale generation/warm-up/flood seconds and
routing memory); the table keeps the common columns and the JSON stays the
full record.  Overhead entries (bench_overhead: ``bare``, ``current``,
``overhead_percent``, ``gate``) get their own table with the gate verdict.
This script collects every BENCH_*.json it finds and renders a single
markdown summary, BENCH_SUMMARY.md, so the perf trajectory of all
subsystems can be read in one place.

Usage:
    python3 bench/collect_bench.py            # writes <repo root>/BENCH_SUMMARY.md
    python3 bench/collect_bench.py --stdout   # prints the table instead
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def format_rate(value):
    """Human-readable items/bytes per second."""
    if value is None:
        return ""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= threshold:
            return f"{value / threshold:.2f}{suffix}/s"
    return f"{value:.2f}/s"


def format_ns(value):
    """Human-readable nanosecond duration."""
    if value is None:
        return ""
    for threshold, unit in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if value >= threshold:
            return f"{value / threshold:.2f} {unit}"
    return f"{value:.0f} ns"


def rate_of(measurement):
    if not measurement:
        return None
    return measurement.get("items_per_second") or measurement.get(
        "bytes_per_second")


def format_allocs(entry):
    """Heap allocations per call, when a bench records them.

    bench_xml_rpc records ``allocations`` against an ``allocation_ceiling``
    (rendered "12 (<= 12)"); bench_service_cache records its per-hit count
    as ``hit_allocations``; the google-benchmark binaries report the
    ``allocs_per_op`` counter, an average over iterations.
    """
    allocs = entry.get("allocations", entry.get("hit_allocations"))
    if allocs is None:
        allocs = entry.get("allocs_per_op")
        if allocs is None:
            return ""
        return (str(round(allocs)) if abs(allocs - round(allocs)) < 0.01
                else f"{allocs:.2f}")
    ceiling = entry.get("allocation_ceiling")
    return str(allocs) if ceiling is None else f"{allocs} (<= {ceiling})"


def curated_rows(benchmarks):
    """Rows from the curated trajectory format (mapping name -> entry)."""
    rows = []
    for name, entry in benchmarks.items():
        seed = entry.get("seed")
        current = entry.get("current")
        speedup = next(
            (entry[key] for key in entry if key.startswith("speedup")), None)
        rows.append({
            "name": name,
            "seed": format_rate(rate_of(seed)),
            "current": format_rate(rate_of(current)),
            "cpu": format_ns((current or {}).get("cpu_time_ns")),
            "allocs": format_allocs(entry),
            "speedup": f"{speedup:.2f}x" if speedup is not None else "",
        })
    return rows


def overhead_rows(benchmarks):
    """Rows from bench_overhead's entries: bare vs configured rate, the
    median paired overhead and its gate verdict."""
    rows = []
    for name, entry in benchmarks.items():
        rows.append({
            "name": name,
            "bare": format_rate(rate_of(entry.get("bare"))),
            "current": format_rate(rate_of(entry.get("current"))),
            "overhead": f"{entry['overhead_percent']:+.2f}%",
            "gate": entry.get("gate", ""),
        })
    return rows


def gbench_rows(benchmarks):
    """Rows from raw google-benchmark JSON output (list of runs)."""
    rows = []
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            bench.get("time_unit", "ns"), 1.0)
        rows.append({
            "name": bench["name"],
            "seed": "",
            "current": format_rate(rate_of(bench)),
            "cpu": format_ns(bench["cpu_time"] * scale),
            "allocs": format_allocs(bench),
            "speedup": "",
        })
    return rows


CURATED_HEADER = ["| Benchmark | Seed rate | Current rate | Current CPU | "
                  "Allocs/call | Speedup |",
                  "|---|---|---|---|---|---|"]
CURATED_ROW = ("| {name} | {seed} | {current} | {cpu} | {allocs} "
               "| {speedup} |")
OVERHEAD_HEADER = ["| Workload / configuration | Bare rate | Configured rate "
                   "| Overhead | Gate |",
                   "|---|---|---|---|---|"]
OVERHEAD_ROW = "| {name} | {bare} | {current} | {overhead} | {gate} |"


def rows_for(path):
    """(data, table header, row template, rows) for one result file."""
    with path.open() as fh:
        data = json.load(fh)
    benchmarks = data.get("benchmarks", {})
    if not isinstance(benchmarks, dict):
        return data, CURATED_HEADER, CURATED_ROW, gbench_rows(benchmarks)
    if any("overhead_percent" in entry for entry in benchmarks.values()):
        return data, OVERHEAD_HEADER, OVERHEAD_ROW, overhead_rows(benchmarks)
    return data, CURATED_HEADER, CURATED_ROW, curated_rows(benchmarks)


def render(files):
    lines = ["# Benchmark summary", ""]
    lines.append("Merged from "
                 + ", ".join(f"`{path.name}`" for path in files)
                 + " by `bench/collect_bench.py`.")
    for path in files:
        try:
            data, header, row_template, rows = rows_for(path)
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            lines += ["", f"## {path.name}", "", f"(unreadable: {error})"]
            continue
        lines += ["", f"## {path.name}", ""]
        stamp = (data.get("date") or data.get("date_current")
                 or data.get("context", {}).get("date", "unknown date"))
        lines.append(f"Recorded {stamp}.")
        if data.get("description"):
            lines += ["", data["description"]]
        lines += [""] + header
        lines += [row_template.format(**row) for row in rows]
    lines.append("")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stdout", action="store_true",
                        help="print the summary instead of writing it")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="directory holding the BENCH_*.json files")
    args = parser.parse_args()

    files = sorted(args.root.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json files under {args.root}", file=sys.stderr)
        return 1
    summary = render(files)
    if args.stdout:
        print(summary)
    else:
        out = args.root / "BENCH_SUMMARY.md"
        out.write_text(summary)
        print(f"wrote {out} ({len(files)} input file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
