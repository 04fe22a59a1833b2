#!/usr/bin/env bash
# TSan tier: build the Tsan configuration (-fsanitize=thread, see the
# top-level CMakeLists.txt build-type block) and run the concurrency
# surface under it — the run_indexed contract and equivalence suites,
# memstats' thread-local accounting, and the chaos campaign fanned over 4
# workers (plain and alert-storm). Any data race aborts the run
# (halt_on_error=1), so a green exit means the parallel trial path is
# race-clean, not just correct-by-luck.
#
# This is deliberately a focused slice, not the full suite: TSan costs
# 5-15x wall clock, and the single-threaded tests add no race coverage.
#
# Usage: tools/run_tsan.sh [jobs]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${1:-$(nproc)}"
dir="$repo/build-tsan"

# Use ccache transparently when the host has it (CI restores its cache).
launcher_args=()
if command -v ccache > /dev/null 2>&1; then
  launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "=== [tsan] configure (Tsan) ==="
cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=Tsan \
  -DSLD_BUILD_BENCH=OFF -DSLD_BUILD_EXAMPLES=OFF "${launcher_args[@]}"
echo "=== [tsan] build ==="
cmake --build "$dir" -j "$jobs" --target \
  test_executor_pool test_executor test_memstats chaos_campaign

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

echo "=== [tsan] run_indexed contract tests ==="
"$dir/tests/test_executor_pool"
echo "=== [tsan] serial-vs-parallel equivalence suite ==="
"$dir/tests/test_executor"
echo "=== [tsan] memstats thread-local accounting, 4 workers ==="
"$dir/tests/test_memstats"
echo "=== [tsan] chaos campaign, 4 workers ==="
"$dir/tests/chaos/chaos_campaign" --schedules 12 --base-seed 1 --fast --jobs 4
echo "=== [tsan] alert-storm chaos slice, 4 workers ==="
"$dir/tests/chaos/chaos_campaign" --schedules 8 --base-seed 1 --fast --storm \
  --jobs 4

echo "=== tsan OK: concurrency slice is race-clean ==="
