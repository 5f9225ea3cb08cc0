#!/usr/bin/env bash
# Alternating A/B of the working tree against a baseline revision.
#
#   bash bench/perf/ab.sh REV [PAIRS] [SEED]
#
# Builds REV into _baseline_wt/ with this tree's benchmark copied over
# it, so both sides run identical benchmark code and settings.  For each
# workload in BENCHMARK.json it runs PAIRS (default 10) pairs, seed
# SEED+i for pair i on both sides, alternating which side runs first.
# It prints, per workload and end-to-end metric, each side's median and
# quartiles and the change's win fraction, and applies the rule in
# README.md: a gain needs >= 90% wins and a median shift larger than the
# baseline's own quartile spread; a regression is a median worse than
# the baseline's by more than the metric's bound, and a metric whose
# run-to-run spread on either side exceeds its bound is unresolved.
# Raw result lines go to bench/perf/out/ab/.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rev=${1:?usage: bench/perf/ab.sh REV [PAIRS] [SEED]}
pairs=${2:-10}
seed=${3:-1}
base=_baseline_wt
out=bench/perf/out/ab

rm -rf "$base" "$out"
mkdir -p "$base" "$out"
git archive "$rev" | tar -x -C "$base"
rm -rf "$base/bench/perf"
mkdir -p "$base/bench"
cp -r bench/perf "$base/bench/perf"
rm -rf "$base/bench/perf/out"
cp BENCHMARK.json "$base/"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

run() { # side workload seed
  local dir=.
  [ "$1" = base ] && dir=$base
  (cd "$dir" && bash bench/perf/run.sh --workload "$2" --seed "$3" \
     --seconds "$seconds" --trace 0) | tail -n 1 >> "$out/$2.$1.jsonl"
}

for w in $workloads; do
  for i in $(seq 0 $((pairs - 1))); do
    s=$((seed + i))
    if [ $((i % 2)) -eq 0 ]; then run base "$w" "$s"; run head "$w" "$s"
    else run head "$w" "$s"; run base "$w" "$s"; fi
    echo "ab: $w pair $((i + 1))/$pairs done" >&2
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
def load(w, side):
    return [json.loads(l) for l in open(f"{out}/{w}.{side}.jsonl")]
def quart(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return q[0], statistics.median(v), q[2]
print(f"{'workload':14} {'metric':10} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30} {'wins':>6}  verdict")
for w in (x["name"] for x in spec["workloads"]):
    base, head = load(w, "base"), load(w, "head")
    if not all(r["correct"] for r in base + head):
        print(f"{w:14} some run reported incorrect output")
    for m in spec["end_to_end"]:
        n, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][n]["value"] for r in base]
        h = [r["metrics"][n]["value"] for r in head]
        better = lambda x, y: x < y if lower else x > y
        wins = sum(better(y, x) for x, y in zip(b, h))
        ties = sum(x == y for x, y in zip(b, h))
        frac = wins / max(1, len(b))
        bq, hq = quart(b), quart(h)
        shift = hq[1] - bq[1]
        spread = bq[2] - bq[0]
        noise = max(spread / bq[1], (hq[2] - hq[0]) / hq[1])
        worse = shift / bq[1] if lower else -shift / bq[1]
        all_better = all(better(y, x) for y in h for x in b)
        if frac >= 0.9 and abs(shift) > spread and better(hq[1], bq[1]):
            verdict = "gain"
        elif noise > m["bound"] and not all_better:
            verdict = "unresolved (run-to-run spread exceeds the bound)"
        elif worse > m["bound"]:
            verdict = "regression"
        else:
            verdict = "no change beyond bound"
        print(f"{w:14} {n:10} {bq[1]:12.4g} [{bq[0]:.4g}, {bq[2]:.4g}] {hq[1]:12.4g} [{hq[0]:.4g}, {hq[2]:.4g}] {frac:6.2f}  {verdict}"
              + (f" ({ties} ties)" if ties else ""))
EOF
