#!/usr/bin/env bash
# Cross-build behaviour gate: runs the seeded end-to-end surfaces from two
# build trees and diffs their outputs byte for byte. This is the
# cross-commit version of run_all.sh's double-run determinism gate: a
# change meant to keep behaviour identical (a refactor, a deletion, a
# speed-up) must leave every stdout, CSV and Prometheus dump unchanged.
#
# Surfaces: examples/failure_drill, bench/hotkey_skew rebalance,
# bench/scenario_suite, bench/ablation_failure, bench/trigger_pipeline,
# bench/ablation_zk_lease, bench/ycsb_mix, examples/microblog_search,
# examples/streaming_wordcount, bench/ablation_bootstrap (times the
# metadata boot load at 256–16,384 vnodes), bench/ablation_quorum,
# bench/ablation_ring, bench/scalability_nodes (boots 3 to 24 nodes, so
# the boot load runs at each size), examples/quickstart,
# examples/realtime_analytics, examples/iterative_triggers, the paper's
# Fig. 7, bench/fig7a_memcached3_vs_sedna and
# bench/fig7b_memcached1_vs_sedna (the only surfaces that run the
# memcache baseline hosts), the paper's Fig. 8,
# bench/fig8_multiclient (nine closed-loop clients against one; the
# slowest surface, ~15 s), and bench/hotkey_skew in its default mode (the
# imbalance table, the hot-key sketch's precision gates and per-stage
# attribution). Each run gets its own working directory,
# which is also its SEDNA_OUT_DIR, given as "." because the Fig. 7 and
# Fig. 8 benches print their CSV's path and an absolute one would differ
# between the two sides. Its exit status is recorded next to its stdout, so a
# gate that flips also shows up as a difference.
#
# Usage: tests/diff_builds.sh <parent_build> <change_build>
#   e.g. build the parent commit into ../parent-build, this tree into
#   build/, then: tests/diff_builds.sh ../parent-build build
# Exits 0 when every output matches, 1 on any difference.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent_build> <change_build>" >&2
  exit 2
fi
parent_build="$(cd "$1" && pwd)" || exit 2
change_build="$(cd "$2" && pwd)" || exit 2

surfaces=(
  "failure_drill|examples/failure_drill"
  "hotkey_skew_rebalance|bench/hotkey_skew rebalance"
  "scenario_suite|bench/scenario_suite"
  "ablation_failure|bench/ablation_failure"
  "trigger_pipeline|bench/trigger_pipeline"
  "ablation_zk_lease|bench/ablation_zk_lease"
  "ycsb_mix|bench/ycsb_mix"
  "microblog_search|examples/microblog_search"
  "streaming_wordcount|examples/streaming_wordcount"
  "ablation_bootstrap|bench/ablation_bootstrap"
  "ablation_quorum|bench/ablation_quorum"
  "ablation_ring|bench/ablation_ring"
  "scalability_nodes|bench/scalability_nodes"
  "quickstart|examples/quickstart"
  "realtime_analytics|examples/realtime_analytics"
  "iterative_triggers|examples/iterative_triggers"
  "fig7a_memcached3_vs_sedna|bench/fig7a_memcached3_vs_sedna"
  "fig7b_memcached1_vs_sedna|bench/fig7b_memcached1_vs_sedna"
  "fig8_multiclient|bench/fig8_multiclient"
  "hotkey_skew|bench/hotkey_skew"
)

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

run_surface() {  # <build_dir> <out_dir> <binary> [args...]
  local build="$1" out="$2" bin="$3"
  shift 3
  mkdir -p "${out}"
  (cd "${out}" && SEDNA_OUT_DIR=. "${build}/${bin}" "$@" \
     > stdout.txt 2> stderr.txt)
  echo "exit status $?" > "${out}/exit_status.txt"
}

differ=0
for entry in "${surfaces[@]}"; do
  name="${entry%%|*}"
  read -r -a cmd <<< "${entry#*|}"
  for side in parent change; do
    build="${parent_build}"
    [[ "${side}" == change ]] && build="${change_build}"
    if [[ ! -x "${build}/${cmd[0]}" ]]; then
      echo "missing binary: ${build}/${cmd[0]}" >&2
      exit 2
    fi
    run_surface "${build}" "${tmp}/${side}/${name}" "${cmd[@]}"
  done
  # stderr carries no seeded output; every other file is compared.
  if diff -r -x stderr.txt "${tmp}/parent/${name}" "${tmp}/change/${name}" \
       > "${tmp}/${name}.diff"; then
    echo "${name}: identical"
  else
    echo "${name}: DIFFERS"
    head -n 40 "${tmp}/${name}.diff"
    differ=1
  fi
done

if [[ ${differ} -ne 0 ]]; then
  echo "diff_builds: outputs differ between the two builds"
  exit 1
fi
echo "diff_builds: all outputs identical"
