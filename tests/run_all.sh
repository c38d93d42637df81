#!/usr/bin/env bash
# One-shot gate: builds the regular tree, runs the whole ctest suite, runs
# the failure drill twice and diffs its monitor output (determinism gate:
# the dashboard, time-series CSV, latency-attribution CSV and Prometheus
# dump must be byte-identical), lints the Prometheus dump with promlint,
# double-runs the rebalancer ablation, the chaos scenario suite and the
# failure ablation (each must pass its own gates and agree byte for
# byte), then repeats the test run under AddressSanitizer + UBSan via
# run_sanitized.sh.
# Usage: tests/run_all.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)"

(cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)" "$@")

# Determinism gate: two identically-seeded drill runs must agree byte for
# byte, both on stdout (includes the monitor dashboard + alert timeline)
# and in the exported time-series CSV.
drill_tmp="$(mktemp -d)"
trap 'rm -rf "${drill_tmp}"' EXIT
for run in 1 2; do
  mkdir -p "${drill_tmp}/${run}"
  (cd "${drill_tmp}/${run}" &&
   SEDNA_OUT_DIR="${drill_tmp}/${run}" \
   "${build_dir}/examples/failure_drill" > stdout.txt)
done
diff "${drill_tmp}/1/stdout.txt" "${drill_tmp}/2/stdout.txt" \
  || { echo "failure_drill stdout is not deterministic"; exit 1; }
diff "${drill_tmp}/1/failure_drill_timeseries.csv" \
     "${drill_tmp}/2/failure_drill_timeseries.csv" \
  || { echo "failure_drill time series is not deterministic"; exit 1; }
diff "${drill_tmp}/1/failure_drill_attribution.csv" \
     "${drill_tmp}/2/failure_drill_attribution.csv" \
  || { echo "failure_drill attribution CSV is not deterministic"; exit 1; }
diff "${drill_tmp}/1/failure_drill_metrics.prom" \
     "${drill_tmp}/2/failure_drill_metrics.prom" \
  || { echo "failure_drill metrics dump is not deterministic"; exit 1; }
echo "failure_drill determinism gate: OK"

# Exposition-format gate: the Prometheus dump (TYPE declarations, label
# syntax, exemplar comments) must pass the in-tree linter.
"${build_dir}/tests/promlint" "${drill_tmp}/1/failure_drill_metrics.prom"

# Same gate for the rebalancer ablation: two runs of the 64-node
# migration scenario must agree byte for byte (the run itself already
# exits non-zero unless the rebalancer strictly improves the load CV).
for run in 1 2; do
  mkdir -p "${drill_tmp}/reb${run}"
  (cd "${drill_tmp}/reb${run}" &&
   SEDNA_OUT_DIR="${drill_tmp}/reb${run}" \
   "${build_dir}/bench/hotkey_skew" rebalance > stdout.txt)
done
diff "${drill_tmp}/reb1/stdout.txt" "${drill_tmp}/reb2/stdout.txt" \
  || { echo "rebalance ablation stdout is not deterministic"; exit 1; }
diff "${drill_tmp}/reb1/ablation_rebalance.csv" \
     "${drill_tmp}/reb2/ablation_rebalance.csv" \
  || { echo "rebalance ablation CSV is not deterministic"; exit 1; }
echo "rebalance ablation determinism gate: OK"

# Chaos scenario suite: runs the six open-loop/chaos scenarios (flash
# crowd, diurnal wave, rolling restart, zone partition, lost-update
# LWW-vs-DVV ablation, metastability ablation) and exits non-zero unless
# every gate passes — including the causal gate: LWW must lose acked
# updates under partition+race and DVV must lose exactly zero. Two runs
# must also agree byte for byte — the overload defenses and the whole
# causal path (dot minting, sibling joins, causal repair/hints) are all
# on the deterministic surface.
for run in 1 2; do
  mkdir -p "${drill_tmp}/ss${run}"
  SEDNA_OUT_DIR="${drill_tmp}/ss${run}" \
    "${build_dir}/bench/scenario_suite" > "${drill_tmp}/ss${run}/stdout.txt"
done
diff "${drill_tmp}/ss1/stdout.txt" "${drill_tmp}/ss2/stdout.txt" \
  || { echo "scenario_suite stdout is not deterministic"; exit 1; }
diff "${drill_tmp}/ss1/scenario_suite.csv" \
     "${drill_tmp}/ss2/scenario_suite.csv" \
  || { echo "scenario_suite goodput CSV is not deterministic"; exit 1; }
diff "${drill_tmp}/ss1/scenario_suite_metrics.prom" \
     "${drill_tmp}/ss2/scenario_suite_metrics.prom" \
  || { echo "scenario_suite metrics dump is not deterministic"; exit 1; }
diff "${drill_tmp}/ss1/ablation_dvv.csv" \
     "${drill_tmp}/ss2/ablation_dvv.csv" \
  || { echo "lost-update DVV ablation CSV is not deterministic"; exit 1; }
# Consistency-auditor surfaces: the t-visibility curve and the flight
# recorder's incident CSV ride the same determinism contract (stdout
# already covers the rendered incident timeline).
diff "${drill_tmp}/ss1/scenario_consistency.csv" \
     "${drill_tmp}/ss2/scenario_consistency.csv" \
  || { echo "scenario visibility CSV is not deterministic"; exit 1; }
diff "${drill_tmp}/ss1/scenario_incidents.csv" \
     "${drill_tmp}/ss2/scenario_incidents.csv" \
  || { echo "scenario incident CSV is not deterministic"; exit 1; }
# Both exposition dumps must lint: the overload cluster's and the causal
# cluster's (the latter carries the new sibling/conflict families).
"${build_dir}/tests/promlint" "${drill_tmp}/ss1/scenario_suite_metrics.prom" \
                              "${drill_tmp}/ss1/ablation_dvv_metrics.prom"
echo "scenario suite determinism gate: OK"

# Failure ablation: the only end-to-end gate on read-triggered recovery.
# It exits non-zero unless reads survive the crash, recovery runs, most
# sampled keys regain three copies, the tail cause flips back to service
# and the repair ablation converges. Two runs must agree byte for byte.
for run in 1 2; do
  mkdir -p "${drill_tmp}/af${run}"
  (cd "${drill_tmp}/af${run}" &&
   SEDNA_OUT_DIR="${drill_tmp}/af${run}" \
   "${build_dir}/bench/ablation_failure" > stdout.txt) \
    || { echo "ablation_failure gates failed (run ${run})"; exit 1; }
done
for out in stdout.txt ablation_failure.csv ablation_failure_attribution.csv \
           ablation_repair.csv; do
  diff "${drill_tmp}/af1/${out}" "${drill_tmp}/af2/${out}" \
    || { echo "ablation_failure ${out} is not deterministic"; exit 1; }
done
echo "failure ablation gate: OK"

"${repo_root}/tests/run_sanitized.sh" "$@"
