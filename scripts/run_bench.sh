#!/usr/bin/env bash
# Regenerates the checked-in benchmark baselines (BENCH_kernels.json,
# BENCH_tuner.json from bench/micro_kernels; BENCH_transfer.json from
# bench/transfer_warm; BENCH_templates.json from bench/template_native;
# the daemon is timed end to end by perfbench's serve-mixed workload) from a
# Release build, then validates them against the
# aaltune-bench/v1 schema. See docs/PERF.md for methodology and the schema
# definition.
#
# Usage:
#   scripts/run_bench.sh [--scale full|smoke] [--repeats N]
#                        [--out-dir DIR] [--build-dir DIR]
#
# Each flag falls back to its environment knob, then the default:
#   --build-dir  BUILD_DIR          build tree to (re)configure  (<repo>/build)
#   --repeats    AAL_BENCH_REPEATS  median-of-N repeat count     (9)
#   --scale      AAL_BENCH_SCALE    full | smoke                 (full)
#   --out-dir    AAL_BENCH_OUT_DIR  where BENCH_*.json land      (repo root)
#
# CI's bench-smoke job runs:
#   scripts/run_bench.sh --scale smoke --repeats 3 --out-dir /tmp
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
REPEATS="${AAL_BENCH_REPEATS:-9}"
SCALE="${AAL_BENCH_SCALE:-full}"
OUT_DIR="${AAL_BENCH_OUT_DIR:-$ROOT}"

usage() { sed -n '2,18p' "${BASH_SOURCE[0]}"; }

while [ $# -gt 0 ]; do
  case "$1" in
    --scale)     SCALE="${2:?--scale needs a value}"; shift 2 ;;
    --repeats)   REPEATS="${2:?--repeats needs a value}"; shift 2 ;;
    --out-dir)   OUT_DIR="${2:?--out-dir needs a value}"; shift 2 ;;
    --build-dir) BUILD_DIR="${2:?--build-dir needs a value}"; shift 2 ;;
    -h|--help)   usage; exit 0 ;;
    *) echo "run_bench.sh: unknown argument: $1" >&2; usage >&2; exit 2 ;;
  esac
done

case "$SCALE" in
  full|smoke) ;;
  *) echo "run_bench.sh: --scale must be full or smoke, got: $SCALE" >&2
     exit 2 ;;
esac

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" \
  --target micro_kernels transfer_warm template_native \
  -j >/dev/null

for suite in kernels tuner; do
  out="$OUT_DIR/BENCH_${suite}.json"
  echo "bench: suite=$suite scale=$SCALE repeats=$REPEATS -> $out"
  "$BUILD_DIR/bench/micro_kernels" \
    --suite "$suite" --repeats "$REPEATS" --scale "$SCALE" --out "$out"
done

# The transfer suite audits itself too: it aborts unless the warm run
# activates a prior on every task and halves the cold run's measured-config
# count, so a successful emit is also a transfer-quality check.
out="$OUT_DIR/BENCH_transfer.json"
echo "bench: suite=transfer scale=$SCALE repeats=$REPEATS -> $out"
"$BUILD_DIR/bench/transfer_warm" \
  --repeats "$REPEATS" --scale "$SCALE" --out "$out"

# The template_native suite audits itself as well: it aborts unless the
# target-native spaces sample mostly feasible (>= 90% on fpga-systolic,
# never below the CUDA-shaped space) and every tune finds a best config.
out="$OUT_DIR/BENCH_templates.json"
echo "bench: suite=template_native scale=$SCALE repeats=$REPEATS -> $out"
"$BUILD_DIR/bench/template_native" \
  --repeats "$REPEATS" --scale "$SCALE" --out "$out"

# Schema check, plus coverage against the checked-in baseline: every
# baseline entry (including the per-target profile_batch:<name> rows) must
# still be emitted, so a dropped or renamed benchmark fails here instead of
# silently vanishing from the comparison.
for stem in kernels tuner transfer templates; do
  covers=()
  if [ -f "$ROOT/BENCH_${stem}.json" ]; then
    covers=(--covers "$ROOT/BENCH_${stem}.json")
  fi
  python3 "$ROOT/scripts/validate_bench.py" "${covers[@]}" \
    "$OUT_DIR/BENCH_${stem}.json"
done
echo "bench: OK"
