#!/bin/sh
# One short traced perfbench pass of each workload.  Run from the repository root.
# A closure hook that is gone makes a command fail, and a TRACED function that is
# gone (which perfbench would count as zero calls) fails the first check.
set -e
out="${TMPDIR:-/tmp}"
PYTHONPATH=src:perfbench python3 -c 'import importlib, trace_child; missing = [f"{m}.{f}" for m, f in trace_child.TRACED if not hasattr(importlib.import_module(f"arithgroups.{m}"), f)]; assert not missing, f"perfbench traces functions the tree lacks: {missing}"'
for w in congruence_scan dichotomy chebotarev cache_replay; do
  python3 perfbench/run.py --workload "$w" --seconds 1 --trace 1 > "$out/perfbench-$w.out"
  tail -n 1 "$out/perfbench-$w.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
    || { echo "perfbench $w: not correct, or some operation failed"; exit 1; }
done
