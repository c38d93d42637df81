#!/usr/bin/env bash
# Builds the full test suite under AddressSanitizer + UBSan (plus libstdc++
# container bounds checks, _GLIBCXX_ASSERTIONS) and runs it.
# Usage: tests/run_sanitized.sh [extra ctest args...]
# Uses a separate build tree (build-asan) so the regular build stays fast.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"

cmake -B "${build_dir}" -S "${repo_root}" -DSEDNA_SANITIZE=ON
cmake --build "${build_dir}" -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
cd "${build_dir}"
ctest --output-on-failure -j "$(nproc)" "$@"

# One sanitized pass over the rebalancer ablation: the migration
# protocol's async continuations and purge paths run under ASan/UBSan.
reb_tmp="$(mktemp -d)"
trap 'rm -rf "${reb_tmp}"' EXIT
(cd "${reb_tmp}" && "${build_dir}/bench/hotkey_skew" rebalance)
echo "sanitized rebalance ablation: OK"

# One sanitized pass over the failure drill: tracing, tail retention,
# critical-path attribution and the exemplar-linked histogram export all
# run under ASan/UBSan, and its attribution report must still clear the
# drill's own coverage/dominance gates (non-zero exit otherwise).
drill_tmp="$(mktemp -d "${reb_tmp}/drill.XXXXXX")"
(cd "${drill_tmp}" && SEDNA_OUT_DIR="${drill_tmp}" \
 "${build_dir}/examples/failure_drill" > /dev/null)
echo "sanitized failure drill (attribution gates): OK"

# One sanitized pass over the chaos scenario suite: admission-control
# sheds, deadline drops, retry-budget accounting, degraded reads,
# restart hydration, and the whole causal-versioning path (dot minting,
# sibling joins, causal read repair, causal hint replay) all run under
# ASan/UBSan, and the suite's own gates must still pass — including the
# lost-update ablation's "DVV loses zero acked updates" gate (non-zero
# exit otherwise).
ss_tmp="$(mktemp -d "${reb_tmp}/ss.XXXXXX")"
SEDNA_OUT_DIR="${ss_tmp}" "${build_dir}/bench/scenario_suite" > /dev/null
echo "sanitized scenario suite (overload gates): OK"

# One sanitized pass over the store microbenchmarks: the LocalStore's
# real-thread paths (4-thread concurrent set, eviction under a byte
# budget, CAS loops) run under ASan/UBSan. google-benchmark 1.7 takes
# --benchmark_min_time as a plain number of seconds, not "0.01s".
"${build_dir}/bench/micro_store" --benchmark_filter=BM_Store \
  --benchmark_min_time=0.01 > /dev/null
echo "sanitized store microbenchmarks: OK"
