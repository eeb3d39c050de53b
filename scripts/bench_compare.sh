#!/usr/bin/env bash
# Compare two bench results written by bench::Report (BENCH_<name>.json):
# prints every metric present in both, with its unit, both values and
# the ratio B/A, then both runs' gate outcomes.
#
# Usage: scripts/bench_compare.sh A.json B.json
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 A.json B.json" >&2
  exit 2
fi

python3 - "$1" "$2" <<'PY'
import json
import sys

a_path, b_path = sys.argv[1], sys.argv[2]
with open(a_path) as f:
    a = json.load(f)
with open(b_path) as f:
    b = json.load(f)

print(f"A: {a_path} ({a.get('name')})")
print(f"B: {b_path} ({b.get('name')})")
for key in sorted(set(a.get("config", {})) | set(b.get("config", {}))):
    va, vb = a.get("config", {}).get(key), b.get("config", {}).get(key)
    if va != vb:
        print(f"config {key}: {va} -> {vb}")

print(f"{'metric':<28} {'unit':<9} {'A':>14} {'B':>14} {'B/A':>8}")
am, bm = a.get("metrics", {}), b.get("metrics", {})
for key in am:
    if key not in bm:
        continue
    va, vb = am[key]["value"], bm[key]["value"]
    if va is None or vb is None:
        ratio = "n/a"
    elif va == 0:
        ratio = "=" if vb == 0 else "inf"
    else:
        ratio = f"{vb / va:.3f}"
    fa = "null" if va is None else f"{va:.6g}"
    fb = "null" if vb is None else f"{vb:.6g}"
    print(f"{key:<28} {am[key].get('unit', ''):<9} {fa:>14} {fb:>14} {ratio:>8}")
only = sorted(set(am) ^ set(bm))
if only:
    print("in one run only: " + ", ".join(only))
for name, run in (("A", a), ("B", b)):
    gates = ", ".join(f"{k} {'pass' if g['pass'] else 'FAIL'}"
                      for k, g in run.get("gates", {}).items())
    print(f"gates {name}: {gates or 'none'}")
PY
