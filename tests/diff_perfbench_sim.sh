#!/usr/bin/env bash
# Cross-commit check of the benchmark's simulated figures: runs
# perfbench/run.py (--seed 1 --seconds 3 --trace 0) for every workload from
# two source trees and compares the `sim_*` metrics, which are
# deterministic virtual-time results. Wall-clock metrics are not compared.
# A change meant to keep behaviour identical must leave every `sim_*`
# value unchanged.
#
# Usage: tests/diff_perfbench_sim.sh <parent_tree> <change_tree>
#   Each tree builds perfbench into its own directory under a temporary
#   root ($PERFBENCH_SIM_BUILDS to keep and reuse the builds).
# Exits 0 when every sim_* value matches, 1 on any difference.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <parent_tree> <change_tree>" >&2
  exit 2
fi
parent_tree="$(cd "$1" && pwd)" || exit 2
change_tree="$(cd "$2" && pwd)" || exit 2

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
builds="${PERFBENCH_SIM_BUILDS:-${tmp}/builds}"

for workload in paper_rw ycsb_skew churn; do
  for side in parent change; do
    tree="${parent_tree}"
    [[ "${side}" == change ]] && tree="${change_tree}"
    if ! (cd "${tree}" && CARGO_TARGET_DIR="${builds}/${side}" \
            python3 perfbench/run.py --workload "${workload}" --seed 1 \
              --seconds 3 --trace 0 2> "${tmp}/${side}-${workload}.err" \
            | tail -n 1 > "${tmp}/${side}-${workload}.json"); then
      echo "perfbench failed: ${side} ${workload}" >&2
      cat "${tmp}/${side}-${workload}.err" >&2
      exit 2
    fi
  done
done

python3 - "${tmp}" <<'PY'
import json
import sys

tmp = sys.argv[1]
differ = False
for workload in ("paper_rw", "ycsb_skew", "churn"):
    sides = {}
    for side in ("parent", "change"):
        with open(f"{tmp}/{side}-{workload}.json") as f:
            metrics = json.load(f)["metrics"]
        sides[side] = {k: v["value"] for k, v in metrics.items()
                       if k.startswith("sim_")}
    for name in sorted(set(sides["parent"]) | set(sides["change"])):
        before = sides["parent"].get(name)
        after = sides["change"].get(name)
        same = before == after
        differ |= not same
        print(f"{workload} {name}: {before} -> {after}"
              f"{'' if same else '  DIFFERS'}")
print("diff_perfbench_sim: " +
      ("sim_* figures differ" if differ else "all sim_* figures identical"))
sys.exit(1 if differ else 0)
PY
