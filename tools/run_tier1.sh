#!/usr/bin/env bash
# Tier-1 gate: build Release (warnings as errors) and Sanitize (ASan+UBSan)
# configurations, run the full gtest suite on each, then run one traced
# smoke trial and schema-validate the emitted JSONL trace. Exits nonzero on
# the first failure.
#
# Usage: tools/run_tier1.sh [jobs]
#
# Environment:
#   SLD_JUNIT_DIR  if set, ctest also writes <dir>/<config>.junit.xml
#                  (consumed by CI for test-report artifacts)
#   SLD_CHAOS=1    also run the full chaos campaign (tools/run_chaos.sh:
#                  200 seeded fault schedules with SLD_INVARIANT forced on)
#   SLD_STORM=1    also run an alert-storm-only chaos slice (the overload
#                  pipeline's bounded-harm and latency oracles under
#                  Zipf-skewed floods composed with crash/partition faults)
#   SLD_FRAMING=1  also run a framing-only chaos slice (colluding cliques
#                  running coordinated framing waves against the evidence
#                  lifecycle: zero permanent benign revocations and the
#                  coverage floor held, with invariants forced on)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${1:-$(nproc)}"

# Use ccache transparently when the host has it (CI restores its cache).
launcher_args=()
if command -v ccache > /dev/null 2>&1; then
  launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_config() {  # name build_type [extra cmake args...]
  local name="$1" build_type="$2" dir="$repo/build-$1"
  shift 2
  local junit_args=()
  if [[ -n "${SLD_JUNIT_DIR:-}" ]]; then
    mkdir -p "$SLD_JUNIT_DIR"
    junit_args=(--output-junit "$SLD_JUNIT_DIR/$name.junit.xml")
  fi
  echo "=== [$name] configure ($build_type) ==="
  cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE="$build_type" \
    -DSLD_BUILD_BENCH=ON -DSLD_BUILD_EXAMPLES=OFF "$@" "${launcher_args[@]}"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" "${junit_args[@]}"
  echo "=== [$name] traced smoke trial ==="
  "$dir/bench/ext_fault_tolerance" --fast --trials 1 \
    --trace "$dir/smoke_trace.jsonl" > /dev/null
  python3 "$repo/tools/trace_report.py" --validate "$dir/smoke_trace.jsonl"
}

run_config release Release -DSLD_WARNINGS_AS_ERRORS=ON
run_config sanitize Sanitize

if [[ "${SLD_CHAOS:-0}" == "1" ]]; then
  echo "=== chaos campaign (SLD_CHAOS=1) ==="
  "$repo/tools/run_chaos.sh" 200 "$jobs"
fi

if [[ "${SLD_STORM:-0}" == "1" ]]; then
  echo "=== alert-storm chaos slice (SLD_STORM=1) ==="
  SLD_CHAOS_FLAGS="--storm" "$repo/tools/run_chaos.sh" 100 "$jobs"
fi

if [[ "${SLD_FRAMING:-0}" == "1" ]]; then
  echo "=== framing chaos slice (SLD_FRAMING=1) ==="
  SLD_CHAOS_FLAGS="--framing" "$repo/tools/run_chaos.sh" 100 "$jobs"
fi

echo "=== tier-1 OK: Release + Sanitize suites passed ==="
