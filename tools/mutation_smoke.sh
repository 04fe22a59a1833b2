#!/usr/bin/env bash
# Mutation smoke test: applies 29 curated single-line mutants to the
# detection/revocation/sim/crypto/core/obs/ranging sources and verifies the
# test suite kills every one (at least one registered test fails per
# mutant). A mutant that survives means a guard has no test teeth — the
# script fails loudly. So does a mutant that does not compile: it kills
# nothing, however its tests fare. It edits the sources of the checkout it
# runs from (restoring each file afterwards), so run it from a scratch copy.
#
# Uses a dedicated build tree (build-mutation, RelWithDebInfo with runtime
# invariants ON) and rebuilds only the test targets each mutant needs, so a
# full run stays tractable on a single-core box.
#
# Usage: tools/mutation_smoke.sh [jobs]
set -uo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${1:-$(nproc)}"
build="$repo/build-mutation"

# Use ccache transparently when the host has it (CI restores its cache).
launcher_args=()
if command -v ccache > /dev/null 2>&1; then
  launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# --- mutant table ---------------------------------------------------------
# Each mutant: file | exact old text | exact new text | test targets to
# rebuild+run (space-separated gtest names; each must contain >=1 failure).
MUTANT_NAMES=()
MUTANT_FILES=()
MUTANT_OLDS=()
MUTANT_NEWS=()
MUTANT_TESTS=()

add_mutant() {
  MUTANT_NAMES+=("$1")
  MUTANT_FILES+=("$2")
  MUTANT_OLDS+=("$3")
  MUTANT_NEWS+=("$4")
  MUTANT_TESTS+=("$5")
}

add_mutant "bs-threshold-off-by-one" \
  "src/revocation/base_station.cpp" \
  "if (alerts > config_.alert_threshold) {" \
  "if (alerts >= config_.alert_threshold) {" \
  "test_properties_revocation"

add_mutant "bs-drop-alert-increment" \
  "src/revocation/base_station.cpp" \
  "  ++alerts;
  ++stats_.alerts_accepted;" \
  "  ++stats_.alerts_accepted;" \
  "test_properties_revocation"

add_mutant "bs-quota-off-by-one" \
  "src/revocation/base_station.cpp" \
  "if (reports > config_.report_quota) {" \
  "if (reports >= config_.report_quota) {" \
  "test_properties_revocation"

add_mutant "consistency-flip-comparison" \
  "src/detection/beacon_check.cpp" \
  "r.malicious = !finite_inputs || r.deviation_ft > max_error_ft_;" \
  "r.malicious = !finite_inputs || r.deviation_ft < max_error_ft_;" \
  "test_properties_detection"

add_mutant "consistency-pass-nan" \
  "src/detection/beacon_check.cpp" \
  "r.malicious = !finite_inputs || r.deviation_ft > max_error_ft_;" \
  "r.malicious = r.deviation_ft > max_error_ft_;" \
  "test_properties_detection"

add_mutant "neighbor-grid-narrow-block" \
  "src/sim/network.cpp" \
  "const std::size_t gx_hi = std::min(cx + 1, nx - 1);" \
  "const std::size_t gx_hi = std::min(cx, nx - 1);" \
  "test_network"

add_mutant "neighbor-grid-mark-rejected" \
  "src/sim/network.cpp" \
  "if (mark) tried[c.index] = direct ? j + 1 : 0;" \
  "if (mark) tried[c.index] = j + 1;" \
  "test_network"

add_mutant "replay-flip-comparison" \
  "src/detection/replay_filter.cpp" \
  "return observed_rtt_cycles > config_.rtt_x_max_cycles;" \
  "return observed_rtt_cycles < config_.rtt_x_max_cycles;" \
  "test_replay_filter"

add_mutant "arq-backoff-exponent" \
  "src/sim/arq.cpp" \
  "static_cast<double>(attempt));" \
  "static_cast<double>(attempt + 1));" \
  "test_properties_sim"

add_mutant "probe-retry-off-by-one" \
  "src/core/nodes.cpp" \
  "if (entry.attempt < ctx_.config.arq.max_retries) {" \
  "if (entry.attempt <= ctx_.config.arq.max_retries) {" \
  "test_invariants"

add_mutant "scheduler-boundary-exclusive" \
  "src/sim/scheduler.cpp" \
  "while (!queue_.empty() && queue_.next_time() <= until) {" \
  "while (!queue_.empty() && queue_.next_time() < until) {" \
  "test_properties_sim"

add_mutant "rtt-keep-mac-delay" \
  "src/ranging/rtt.hpp" \
  "return (t4_cycles - t1_cycles) - (t3_cycles - t2_cycles);" \
  "return (t4_cycles - t1_cycles);" \
  "test_properties_detection"

add_mutant "channel-drop-delivery-count" \
  "src/sim/channel.cpp" \
  "  ++stats_.deliveries;" \
  "  " \
  "test_properties_sim"

add_mutant "sensor-keep-infinite-distance" \
  "src/core/nodes.cpp" \
  "  if (!std::isfinite(m.distance_ft)) return;
" \
  "" \
  "test_nodes"

add_mutant "mac-drop-length-word" \
  "src/crypto/mac.cpp" \
  "  h.update(header);" \
  "  h.update(std::span(header).first(8));" \
  "test_mac"

add_mutant "event-queue-reverse-tie-break" \
  "src/sim/event.cpp" \
  "const Item item = ready[head_++];" \
  "const Item item = ready[ready.size() - 1 - head_++];" \
  "test_event_queue"

add_mutant "radix-refill-first-not-min" \
  "src/sim/event.cpp" \
  "  last_ = mins_[b];" \
  "  last_ = buckets_[b].front().when;" \
  "test_event_queue"

add_mutant "detector-swallow-alert" \
  "src/detection/detector.cpp" \
  "outcome = ProbeOutcome::kAlert;" \
  "outcome = ProbeOutcome::kConsistent;" \
  "test_invariants"

add_mutant "admission-rate-pass-nan" \
  "src/revocation/admission.cpp" \
  "  if (!(x >= 0 && std::isfinite(x)))" \
  "  if (x < 0)" \
  "test_admission"

add_mutant "wormhole-link-pass-nan-range" \
  "src/sim/channel.cpp" \
  "  if (!(link.exit_range_ft > 0.0 && std::isfinite(link.exit_range_ft)))" \
  "  if (link.exit_range_ft <= 0.0)" \
  "test_channel"

add_mutant "wormhole-rate-pass-nan" \
  "src/ranging/wormhole_detector.cpp" \
  "if (!(detection_rate_ >= 0.0 && detection_rate_ <= 1.0))" \
  "if (detection_rate_ < 0.0 || detection_rate_ > 1.0)" \
  "test_wormhole_detector"

add_mutant "readthrough-no-latch" \
  "src/obs/metrics.hpp" \
  "    if (read_) value_ = std::max(value_, read_());" \
  "    if (read_) value_ = read_();" \
  "test_obs"

add_mutant "pending-reply-keeps-entry" \
  "src/core/nodes.cpp" \
  "  pending_.erase(found);
" \
  "" \
  "test_nodes"

add_mutant "requester-accepts-any-responder" \
  "src/core/nodes.cpp" \
  "  if (delivery.msg.src != request.target) return std::nullopt;
" \
  "" \
  "test_nodes"

add_mutant "committed-alert-skips-revocation-time" \
  "src/core/nodes.cpp" \
  "    metrics.revocation_times.emplace_back(target, at);
" \
  "" \
  "test_system_integration"

add_mutant "validated-skips-arq" \
  "src/core/secure_localization.cpp" \
  "  if (config.arq.enabled) sim::check_arq(config.arq, config.arq.max_retries);
" \
  "" \
  "test_system_integration"

add_mutant "channel-find-skips-aliases" \
  "src/sim/channel.cpp" \
  "  const auto it = sparse_ids_.find(id);
  return it == sparse_ids_.end() ? nullptr : it->second;" \
  "  return nullptr;" \
  "test_channel"

add_mutant "run-indexed-skips-first" \
  "src/core/executor.hpp" \
  "next.fetch_add(1, std::memory_order_relaxed)" \
  "++next" \
  "test_executor_pool"

add_mutant "fault-burst-unchecked" \
  "src/sim/faults.cpp" \
  "  check_p(plan_.burst.p_enter_bad, \"burst enter probability\");
" \
  "" \
  "test_channel_faults"

# --- helpers --------------------------------------------------------------

apply_patch() {  # file old new  (exact-string replace; must match exactly once)
  python3 - "$repo/$1" "$2" "$3" <<'EOF'
import sys
path, old, new = sys.argv[1], sys.argv[2], sys.argv[3]
src = open(path, encoding="utf-8").read()
n = src.count(old)
if n != 1:
    sys.exit(f"expected exactly 1 occurrence in {path}, found {n}")
open(path, "w", encoding="utf-8").write(src.replace(old, new, 1))
EOF
}

restore() {  # file  (put back the pristine copy saved before mutation)
  cp "$backup_dir/$(basename "$1")" "$repo/$1"
}

build_and_run() {  # test targets...; nonzero if any binary fails (or build breaks)
  cmake --build "$build" -j "$jobs" --target "$@" > /dev/null 2>&1 || return 2
  local t rc=0
  for t in "$@"; do
    "$build/tests/$t" > /dev/null 2>&1 || rc=1
  done
  return $rc
}

# --- run ------------------------------------------------------------------

backup_dir="$(mktemp -d)"
trap 'rm -rf "$backup_dir"' EXIT

echo "=== configure ($build, RelWithDebInfo + invariants ON) ==="
cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSLD_INVARIANTS=ON -DSLD_BUILD_BENCH=OFF -DSLD_BUILD_EXAMPLES=OFF \
  "${launcher_args[@]}" > /dev/null

all_tests="$(printf '%s\n' "${MUTANT_TESTS[@]}" | tr ' ' '\n' | sort -u | tr '\n' ' ')"
echo "=== clean-tree baseline: ${all_tests}==="
# shellcheck disable=SC2086
if ! build_and_run $all_tests; then
  echo "FAIL: suite does not pass on the unmutated tree; fix that first." >&2
  exit 1
fi
echo "ok: clean tree passes"

survived=()
unbuilt=()
for i in "${!MUTANT_NAMES[@]}"; do
  name="${MUTANT_NAMES[$i]}"
  file="${MUTANT_FILES[$i]}"
  echo "=== mutant $((i + 1))/${#MUTANT_NAMES[@]}: $name ($file) ==="
  cp "$repo/$file" "$backup_dir/$(basename "$file")"
  if ! apply_patch "$file" "${MUTANT_OLDS[$i]}" "${MUTANT_NEWS[$i]}"; then
    echo "FAIL: could not apply $name — source drifted from mutant table" >&2
    restore "$file"
    exit 1
  fi
  # shellcheck disable=SC2086
  build_and_run ${MUTANT_TESTS[$i]}
  rc=$?
  restore "$file"
  if [[ $rc -eq 2 ]]; then
    echo "UNBUILT: $name — the mutated tree does not compile"
    unbuilt+=("$name")
  elif [[ $rc -eq 0 ]]; then
    echo "SURVIVED: $name — no test failed under this mutant"
    survived+=("$name")
  else
    echo "killed: $name (tests: ${MUTANT_TESTS[$i]})"
  fi
done

echo "=== restore clean build ==="
# shellcheck disable=SC2086
build_and_run $all_tests || {
  echo "FAIL: suite broken after restore — tree may be dirty" >&2
  exit 1
}

if [[ ${#unbuilt[@]} -gt 0 ]]; then
  echo "FAIL: ${#unbuilt[@]} mutant(s) do not compile: ${unbuilt[*]}" >&2
  exit 1
fi
if [[ ${#survived[@]} -gt 0 ]]; then
  echo "FAIL: ${#survived[@]} mutant(s) survived: ${survived[*]}" >&2
  exit 1
fi
echo "=== mutation smoke OK: all ${#MUTANT_NAMES[@]} mutants killed ==="
