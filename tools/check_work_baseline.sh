#!/usr/bin/env sh
# Diff the deterministic work counters of every perfbench workload
# against the committed baseline in tools/work_baseline/.
#
# Each workload runs once traced at seed 1 (perfbench/run.py --trace 1
# --seconds 1). Its `work` line — engine, scheduler, move, session and
# synthesis counters plus objective_geo — is written one key=value per
# line with the gc.* keys dropped (GC volume is what a speedup is
# allowed to change) and must match the baseline exactly. A change
# that moves a counter on purpose regenerates the baseline with
# --update and says why.
#
# Usage: tools/check_work_baseline.sh [--update] [workload ...]
#        (default workloads: hier_power flat_area session_mix)

set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

update=
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
workloads=${*:-hier_power flat_area session_mix}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for w in $workloads; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 > "$tmp/$w.out"
  grep '^work ' "$tmp/$w.out" | tr ' ' '\n' | tail -n +2 | grep -v '^gc\.' > "$tmp/$w.txt"
  if [ -n "$update" ]; then
    cp "$tmp/$w.txt" "tools/work_baseline/$w.txt"
    echo "check_work_baseline: $w baseline written"
  elif diff -u "tools/work_baseline/$w.txt" "$tmp/$w.txt"; then
    echo "check_work_baseline: $w ok"
  else
    echo "check_work_baseline: $w work counters differ from tools/work_baseline/$w.txt" >&2
    status=1
  fi
done
exit $status
