#!/usr/bin/env bash
# Cross-build behaviour gate: runs the seeded end-to-end surfaces from two
# build trees and diffs their outputs byte for byte. This is the
# cross-commit version of run_all.sh's double-run determinism gate: a
# change meant to keep behaviour identical (a refactor, a deletion, a
# speed-up) must leave every stdout, CSV and Prometheus dump unchanged.
#
# Surfaces: examples/failure_drill, bench/hotkey_skew rebalance,
# bench/scenario_suite and bench/ablation_failure. Each run gets its own
# working directory and SEDNA_OUT_DIR; its exit status is recorded next to
# its stdout, so a gate that flips also shows up as a difference.
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
)

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

run_surface() {  # <build_dir> <out_dir> <binary> [args...]
  local build="$1" out="$2" bin="$3"
  shift 3
  mkdir -p "${out}"
  (cd "${out}" && SEDNA_OUT_DIR="${out}" "${build}/${bin}" "$@" \
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
