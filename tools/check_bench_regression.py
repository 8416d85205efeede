#!/usr/bin/env python3
"""Gate bench metrics against a checked-in baseline.

Usage:
    check_bench_regression.py NEW.json BASELINE.json [--tolerance 0.30]
        [--table PREFIX] [--columns NAME[:+|-] ...]
    check_bench_regression.py --self-test

Both files are BENCH_*.json dumps produced by a bench binary's --json
flag.  The check looks at the first table whose title starts with
--table (default "Engine throughput"), matches rows by their first
cell, and compares every named column present in both files:

  * NAME:+  higher is better — fail when the measured value drops more
            than the tolerance fraction below the baseline;
  * NAME:-  lower is better — fail when it rises more than the
            tolerance fraction above the baseline;
  * NAME    shorthand for NAME:+.

The default columns gate the engine-throughput bench
(timing_pkts_per_s, batch32_pkts_per_s, both higher-better); the serve
bench is gated with
    --table "Serve throughput" --columns requests_per_s:+ p99_us:-

A row in the baseline that the new run lacks fails the gate: a renamed
or dropped row would otherwise switch its own gate off unnoticed.  Rows
that only the new run has, and columns on only one side (such as the
ungated `_iqr` spreads), are reported but never fail the gate, so
adding a workload or a column does not require regenerating the
baseline in the same change.

The tolerance can also be set with the NCT_BENCH_TOLERANCE environment
variable (the command-line flag wins).  Baselines are host-specific:
after an intentional perf change or a runner upgrade, regenerate with
the bench's --json flag and commit the new file.

--self-test runs the checker against synthetic fixtures (pass, drop
regression, rise regression, direction suffixes, missing table, a
baseline row missing from the run, new rows and columns) and
exits 0 only if every case behaves as documented; CI runs it so the
gate itself is tested.
"""

import argparse
import json
import os
import sys
import tempfile

DEFAULT_COLUMNS = ("timing_pkts_per_s:+", "batch32_pkts_per_s:+")
DEFAULT_TABLE = "Engine throughput"


def parse_columns(specs):
    """[(name, higher_is_better), ...] from NAME[:+|-] specs."""
    columns = []
    for spec in specs:
        if spec.endswith(":+"):
            columns.append((spec[:-2], True))
        elif spec.endswith(":-"):
            columns.append((spec[:-2], False))
        else:
            columns.append((spec, True))
    return columns


def load_rows(path, table_prefix):
    """(headers, {row key (first cell): {column: value}}) for the named
    table."""
    with open(path) as f:
        doc = json.load(f)
    for table in doc.get("tables", []):
        if table.get("title", "").startswith(table_prefix):
            headers = table["headers"]
            return headers, {row[0]: dict(zip(headers, row)) for row in table["rows"]}
    raise SystemExit(f"{path}: no table titled '{table_prefix}...'")


def check(new_path, baseline_path, columns, table_prefix, tolerance):
    new_headers, new_rows = load_rows(new_path, table_prefix)
    base_headers, base_rows = load_rows(baseline_path, table_prefix)

    failures = []
    missing = []
    compared = 0
    for name, base in sorted(base_rows.items()):
        if name not in new_rows:
            print(f"{'MISSING':10s} {name:28s} in baseline, not in this run")
            missing.append(name)
            continue
        new = new_rows[name]
        for col, higher_better in columns:
            if col not in base or col not in new:
                continue
            base_v = float(base[col])
            new_v = float(new[col])
            if base_v <= 0:
                continue
            compared += 1
            ratio = new_v / base_v
            bad = ratio < 1.0 - tolerance if higher_better else ratio > 1.0 + tolerance
            status = "REGRESSION" if bad else "ok"
            if bad:
                failures.append((name, col, base_v, new_v, ratio))
            arrow = "+" if higher_better else "-"
            print(
                f"{status:10s} {name:28s} {col}:{arrow:1s} "
                f"baseline {base_v:14.1f}  measured {new_v:14.1f}  x{ratio:.2f}"
            )
    for name in sorted(set(new_rows) - set(base_rows)):
        print(f"note: workload '{name}' is new (no baseline), skipped")
    for col in new_headers:
        if col not in base_headers:
            print(f"note: column '{col}' is new (no baseline), not compared")
    for col in base_headers:
        if col not in new_headers:
            print(f"note: column '{col}' in baseline only, not compared")

    if compared == 0:
        raise SystemExit("no comparable metric cells: wrong files or columns?")
    if failures or missing:
        if failures:
            print(
                f"\nFAIL: {len(failures)} metric cell(s) beyond {tolerance:.0%} "
                f"of baseline in the failing direction"
            )
        if missing:
            print(f"\nFAIL: {len(missing)} baseline row(s) missing from this run")
        return 1
    print(f"\nPASS: {compared} metric cell(s) within {tolerance:.0%} of baseline")
    return 0


def self_test():
    """Exercise the gate against synthetic fixtures."""

    def dump(title, headers, rows):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, prefix="bench_selftest_"
        )
        json.dump({"tables": [{"title": title, "headers": headers, "rows": rows}]}, f)
        f.close()
        return f.name

    headers = ["workload", "requests_per_s", "p99_us"]
    base = dump("Serve throughput", headers, [["total", "1000", "50.0"]])
    same = dump("Serve throughput", headers, [["total", "1000", "50.0"]])
    slower = dump("Serve throughput", headers, [["total", "500", "50.0"]])
    higher_lat = dump("Serve throughput", headers, [["total", "1000", "90.0"]])
    two_rows = dump(
        "Serve throughput", headers, [["total", "1000", "50.0"], ["cold", "900", "60.0"]]
    )
    wider = dump(
        "Serve throughput",
        headers + ["requests_per_s_iqr"],
        [["total", "1000", "50.0", "30"], ["fresh", "10", "900.0", "5"]],
    )
    cols = parse_columns(["requests_per_s:+", "p99_us:-"])

    cases = [
        ("identical run passes", same, base, cols, 0),
        ("throughput drop fails", slower, base, cols, 1),
        ("latency rise fails", higher_lat, base, cols, 1),
        # With p99 gated higher-better (wrong direction on purpose) a
        # rise must NOT fail: direction suffixes are honoured.
        ("direction suffix honoured", higher_lat, base, parse_columns(["p99_us:+"]), 0),
        # Tolerance wide enough to absorb the drop.
        ("tolerance respected", slower, base, cols, None),
        # A gated row that vanished (renamed or dropped) fails even
        # though every row still present is within tolerance.
        ("baseline row missing from run fails", same, two_rows, cols, 1),
        # A row and a column that only the new run has are reported,
        # never failed.
        ("new row and column pass", wider, base, cols, 0),
    ]

    failed = []
    for name, new, baseline, columns, want in cases:
        tolerance = 0.30 if want is not None else 0.60
        want = want if want is not None else 0
        print(f"--- self-test: {name} ---")
        got = check(new, baseline, columns, "Serve throughput", tolerance)
        if got != want:
            failed.append(f"{name}: expected exit {want}, got {got}")

    print("--- self-test: missing table exits nonzero ---")
    try:
        check(same, base, cols, "No Such Table", 0.30)
        failed.append("missing table: expected SystemExit")
    except SystemExit as e:
        print(f"ok: {e}")

    for path in (base, same, slower, higher_lat, two_rows, wider):
        os.unlink(path)

    if failed:
        print("\nSELF-TEST FAIL:\n  " + "\n  ".join(failed))
        return 1
    print("\nSELF-TEST PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", nargs="?", help="freshly measured BENCH json")
    parser.add_argument("baseline", nargs="?", help="checked-in baseline BENCH json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("NCT_BENCH_TOLERANCE", "0.30")),
        help="allowed fractional change in the failing direction (default 0.30)",
    )
    parser.add_argument(
        "--table",
        default=DEFAULT_TABLE,
        help=f"title prefix of the table to gate (default '{DEFAULT_TABLE}')",
    )
    parser.add_argument(
        "--columns",
        nargs="+",
        default=list(DEFAULT_COLUMNS),
        metavar="NAME[:+|-]",
        help=": + higher-better (default), - lower-better",
    )
    parser.add_argument(
        "--self-test", action="store_true", help="run the checker's own unit checks"
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.new or not args.baseline:
        parser.error("NEW.json and BASELINE.json are required (or --self-test)")
    return check(args.new, args.baseline, parse_columns(args.columns), args.table,
                 args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
