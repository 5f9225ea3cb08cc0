#!/usr/bin/env bash
# One run-set of the benchmark: every workload RUNS times (default 10),
# seeds SEED, SEED+1, ..., end-to-end metrics only.  The workloads take
# turns (seed by seed), so each workload's runs spread over the whole
# set.
#
#   bash bench/perf/runset.sh OUT_FILE SEED [RUNS]
#
# OUT_FILE gets a header (commit, cores, OCaml version, seeds), one line
# per run ("workload seed JSON"), a "# raw" line per run with its
# wall-clock diagnostics and the reference time, and per workload and
# metric the median and the spread: the distance between the first and
# third quartiles as a share of the median.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

out=${1:?usage: bench/perf/runset.sh OUT_FILE SEED [RUNS]}
seed=${2:?usage: bench/perf/runset.sh OUT_FILE SEED [RUNS]}
runs=${3:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
log=bench/perf/out/runset.log
mkdir -p bench/perf/out

{
  echo "# commit: $(git describe --always --dirty)"
  echo "# cores: $(nproc)"
  echo "# ocaml: $(ocamlfind ocamlc -version 2>/dev/null || ocaml -vnum)"
  echo "# seeds: $seed..$((seed + runs - 1))"
  echo "# run_seconds: $seconds"
  echo "# date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
} > "$out"

for i in $(seq 0 $((runs - 1))); do
  for w in $workloads; do
    s=$((seed + i))
    bash bench/perf/run.sh --workload "$w" --seed "$s" --seconds "$seconds" \
      --trace 0 > "$log"
    echo "$w $s $(tail -n 1 "$log")" >> "$out"
    python3 - "$w" "$s" "$log" >> "$out" <<'EOF'
import json, sys
w, s, log = sys.argv[1:]
keep = ("host.ref_cpu_ms", "setup_wall_s", "p50_ms", "p90_ms", "seq_p50_ms", "ops_per_s",
        "host_steal_s", "cache_hit_ratio", "profile_lru_hit_ratio", "save_samples")
raw = {}
for l in open(log):
    p = l.split()
    if len(p) >= 3 and p[0] == w and p[1] in keep:
        raw[p[1]] = float(p[2])
print(f"# raw {w} {s} {json.dumps(raw)}")
EOF
    echo "runset: $w seed $s done" >&2
  done
done

python3 - "$out" <<'EOF' | tee -a "$out"
import json, statistics, sys
by = {}
for l in open(sys.argv[1]):
    if l.startswith("# raw "):
        w, _, js = l[len("# raw "):].split(" ", 2)
        ms = json.loads(js)
    elif not l.startswith("#"):
        w, _, js = l.split(" ", 2)
        ms = {k: v["value"] for k, v in json.loads(js)["metrics"].items()}
    else:
        continue
    for k, v in ms.items():
        by.setdefault(w, {}).setdefault(k, []).append(v)
print(f"# {'workload':14} {'metric':14} {'median':>12} {'spread':>7}")
for w, ms in by.items():
    for k, v in ms.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"# {w:14} {k:14} {med:12.5g} {spread:7.3f}")
EOF
