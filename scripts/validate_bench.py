#!/usr/bin/env python3
"""Validate BENCH_*.json files against the aaltune-bench/v1 schema.

The schema is documented in docs/PERF.md; this checker is the executable
version CI runs (bench-smoke job) so the emitted files and the docs cannot
drift apart silently. Exits non-zero with a per-file error report on any
violation.

With --covers BASELINE.json, every distinct entry name in the checked-in
baseline must also appear in each validated file. A baseline entry the
harness no longer emits is a hard failure, not a silent skip — renaming or
dropping a benchmark must be paired with regenerating the baseline.

usage: validate_bench.py [--covers BASELINE.json] BENCH_file.json [...]
"""
import json
import sys

SCHEMA = "aaltune-bench/v1"
SUITES = {"kernels", "tuner", "transfer", "template_native"}
SCALES = {"full", "smoke"}
TOP_KEYS = {"schema", "suite", "scale", "build", "repeats", "threads", "results"}
RESULT_REQUIRED = {"name", "params", "median_ms"}
RESULT_OPTIONAL = {"baseline_median_ms", "speedup"}


def check(path: str) -> list[str]:
    errors: list[str] = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]

    if not isinstance(doc, dict):
        return ["top level is not an object"]
    missing = TOP_KEYS - doc.keys()
    if missing:
        errors.append(f"missing top-level keys: {sorted(missing)}")
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if doc.get("suite") not in SUITES:
        errors.append(f"suite is {doc.get('suite')!r}, expected one of {sorted(SUITES)}")
    if doc.get("scale") not in SCALES:
        errors.append(f"scale is {doc.get('scale')!r}, expected one of {sorted(SCALES)}")
    if not (isinstance(doc.get("repeats"), int) and doc["repeats"] >= 1):
        errors.append("repeats must be an integer >= 1")
    if not (isinstance(doc.get("threads"), int) and doc["threads"] >= 1):
        errors.append("threads must be an integer >= 1")

    results = doc.get("results")
    if not (isinstance(results, list) and results):
        errors.append("results must be a non-empty array")
        return errors
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = RESULT_REQUIRED - entry.keys()
        if missing:
            errors.append(f"{where}: missing keys {sorted(missing)}")
            continue
        unknown = entry.keys() - RESULT_REQUIRED - RESULT_OPTIONAL
        if unknown:
            errors.append(f"{where}: unknown keys {sorted(unknown)}")
        if not (isinstance(entry["name"], str) and entry["name"]):
            errors.append(f"{where}: name must be a non-empty string")
        params = entry["params"]
        if not isinstance(params, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in params.items()
        ):
            errors.append(f"{where}: params must map strings to integers")
        med = entry["median_ms"]
        if not (isinstance(med, (int, float)) and med > 0):
            errors.append(f"{where}: median_ms must be > 0")
        if "baseline_median_ms" in entry:
            base = entry["baseline_median_ms"]
            if not (isinstance(base, (int, float)) and base > 0):
                errors.append(f"{where}: baseline_median_ms must be > 0")
            if "speedup" not in entry:
                errors.append(f"{where}: baseline present but speedup missing")
            elif isinstance(med, (int, float)) and med > 0:
                expected = base / med
                if abs(entry["speedup"] - expected) > max(0.01, 0.01 * expected):
                    errors.append(
                        f"{where}: speedup {entry['speedup']} inconsistent with "
                        f"baseline/median = {expected:.3f}"
                    )
        elif "speedup" in entry:
            errors.append(f"{where}: speedup present without baseline_median_ms")
    return errors


def entry_names(path: str) -> set[str]:
    """Distinct result-entry names of a bench file (empty set if unreadable;
    the schema check reports the real error)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        return {
            e["name"]
            for e in doc.get("results", [])
            if isinstance(e, dict) and isinstance(e.get("name"), str)
        }
    except (OSError, json.JSONDecodeError):
        return set()


def main(argv: list[str]) -> int:
    baseline = None
    args = argv[1:]
    while args and args[0].startswith("--"):
        if args[0] == "--covers" and len(args) >= 2:
            baseline = args[1]
            args = args[2:]
        else:
            print(f"unknown option {args[0]}", file=sys.stderr)
            return 2
    if not args:
        print(
            "usage: validate_bench.py [--covers BASELINE.json] "
            "BENCH_file.json [...]",
            file=sys.stderr,
        )
        return 2
    baseline_names: set[str] = set()
    if baseline is not None:
        baseline_errors = check(baseline)
        if baseline_errors:
            print(f"{baseline}: INVALID baseline", file=sys.stderr)
            for e in baseline_errors:
                print(f"  - {e}", file=sys.stderr)
            return 1
        baseline_names = entry_names(baseline)
    failed = False
    for path in args:
        errors = check(path)
        if not errors and baseline_names:
            missing = baseline_names - entry_names(path)
            if missing:
                errors.append(
                    f"baseline entries missing from emitted results: "
                    f"{sorted(missing)} (regenerate {baseline} if the "
                    f"benchmark was renamed or removed)"
                )
        if errors:
            failed = True
            print(f"{path}: INVALID", file=sys.stderr)
            for e in errors:
                print(f"  - {e}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
