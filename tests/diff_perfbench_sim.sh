#!/usr/bin/env bash
# Cross-commit check of the benchmark's simulated figures: runs
# perfbench/run.py (--seed 1 --seconds 3) for every workload from two
# source trees and compares deterministic results. The --trace 0 pass
# compares the `sim_*` metrics (virtual-time latencies); the --trace 1
# pass compares the program counts a kernel or dispatch refactor must not
# move (events and samples, messages and bytes per op, retry and shed
# ratios, tracer-induced sim diffs). Wall-clock metrics, `sim.pending_*`
# (heap occupancy) and `alloc.*` are not compared. A change meant to keep
# behaviour identical must leave every compared value unchanged.
#
# A change that moves figures on purpose gets them tabulated: each
# differing figure also prints its change/parent ratio and, for a metric
# with a `bound` in the change tree's BENCHMARK.json (read, never
# written), whether the move stays inside it, i.e. is no worse than the
# parent by more than that fraction. This is information only: any
# difference still fails the script.
#
# Usage: tests/diff_perfbench_sim.sh <parent_tree> <change_tree>
#   Each tree builds perfbench into its own directory under a temporary
#   root ($PERFBENCH_SIM_BUILDS to keep and reuse the builds).
# Exits 0 when every compared value matches, 1 on any difference.
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

for trace in 0 1; do
  for workload in paper_rw ycsb_skew churn; do
    for side in parent change; do
      tree="${parent_tree}"
      [[ "${side}" == change ]] && tree="${change_tree}"
      out="${tmp}/${side}-${workload}-trace${trace}"
      if ! (cd "${tree}" && CARGO_TARGET_DIR="${builds}/${side}" \
              python3 perfbench/run.py --workload "${workload}" --seed 1 \
                --seconds 3 --trace "${trace}" 2> "${out}.err" \
              | tail -n 1 > "${out}.json"); then
        echo "perfbench failed: ${side} ${workload} --trace ${trace}" >&2
        cat "${out}.err" >&2
        exit 2
      fi
    done
  done
done

python3 - "${tmp}" "${change_tree}/BENCHMARK.json" <<'PY'
import json
import os
import sys

tmp, benchmark = sys.argv[1], sys.argv[2]
# name -> (bound, better) for every end-to-end metric that declares a bound.
bounds = {}
if os.path.isfile(benchmark):
    with open(benchmark) as f:
        for m in json.load(f).get("end_to_end", []):
            if "bound" in m:
                bounds[m["name"]] = (m["bound"], m.get("better", "lower"))


def move(name, before, after):
    """The ratio and bound verdict printed beside a differing figure."""
    if not isinstance(before, (int, float)) or \
            not isinstance(after, (int, float)):
        return ""
    if before == 0:
        return "  ratio n/a (parent is 0)"
    ratio = after / before
    text = f"  ratio {ratio:.4f}"
    if name not in bounds:
        return text + " (no bound)"
    bound, better = bounds[name]
    inside = ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound
    return text + (f" {'inside' if inside else 'OUTSIDE'} bound {bound}"
                   f" ({better} is better)")


# Program counts compared in the --trace 1 pass.
COUNTS = ("sim.events_per_op", "sim.read_samples", "sim.write_samples",
          "net.msgs_per_op", "net.bytes_per_op", "client.retry_ratio",
          "host.shed_ratio", "obs.tracer_sim_diffs")
differ = False
for trace, compared in (("0", lambda k: k.startswith("sim_")),
                        ("1", lambda k: k in COUNTS)):
    for workload in ("paper_rw", "ycsb_skew", "churn"):
        sides = {}
        for side in ("parent", "change"):
            with open(f"{tmp}/{side}-{workload}-trace{trace}.json") as f:
                metrics = json.load(f)["metrics"]
            sides[side] = {k: v["value"] for k, v in metrics.items()
                           if compared(k)}
        if trace == "1":
            missing = set(COUNTS) - set(sides["parent"])
            if missing:
                print(f"{workload}: parent lacks {sorted(missing)}")
                differ = True
        for name in sorted(set(sides["parent"]) | set(sides["change"])):
            before = sides["parent"].get(name)
            after = sides["change"].get(name)
            same = before == after
            differ |= not same
            print(f"trace{trace} {workload} {name}: {before} -> {after}"
                  f"{'' if same else '  DIFFERS' + move(name, before, after)}")
print("diff_perfbench_sim: " +
      ("figures differ" if differ else "all compared figures identical"))
sys.exit(1 if differ else 0)
PY
