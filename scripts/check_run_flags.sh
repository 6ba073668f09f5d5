#!/usr/bin/env bash
# Fails when a workload harness ignores the run flags (--faults,
# --durable, --cm, ...): each harness's --quick --csv --seeds=1 stdout
# must change under a fault plan that stalls tasklet 0. Prints every
# harness whose output did not change.
#
# Usage: scripts/check_run_flags.sh [BUILD_DIR]   (default: build)
set -u

bench="${1:-build}/bench"
flag='--faults=stall=0@100:1000'
harnesses="fig4_arraybench fig4_linkedlist fig5_kmeans fig5_labyrinth
  fig6_summary fig9_wram fig10_kmeans_wram ext_vacation ext_skiplist
  ext_tl2 ext_adaptive guidelines ablation_aliasing ablation_backoff
  ablation_cm ablation_locktable ablation_boosting ablation_adaptive"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for h in $harnesses; do
  if ! "$bench/$h" --quick --csv --seeds=1 > "$tmp/plain.csv" ||
     ! "$bench/$h" --quick --csv --seeds=1 "$flag" > "$tmp/flag.csv"; then
    echo "$h: run failed"
    status=1
  elif cmp -s "$tmp/plain.csv" "$tmp/flag.csv"; then
    echo "$h: output unchanged by $flag"
    status=1
  fi
done
exit "$status"
