#!/usr/bin/env bash
# Repeatability check for the load benchmark. Runs every workload of
# BENCHMARK.json N times, alternating the workloads round by round and
# giving each round a fresh seed, then prints for each end-to-end metric
# the median and interquartile spread (q3 - q1, as a share of the median)
# of two interleaved sets of rounds (even and odd), and the gap between
# the two set medians. A metric is flagged when a set's spread or the gap
# exceeds its bound in BENCHMARK.json (setup_s is exempt from the spread
# check), and marked as near its bound when a spread exceeds a third of
# it. An incorrect run, and a run that printed no result, are flagged too,
# and any flag makes the script exit 1.
#
#   bash loadbench/repeat.sh N [seconds] [first-seed]
#
# The results of every run are kept under .bench_build/loadbench/.
set -uo pipefail
cd "$(dirname "$0")/.."
n=${1:?usage: repeat.sh N [seconds] [first-seed]}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
seed0=${3:-1}
mkdir -p .bench_build/loadbench
log=".bench_build/loadbench/repeat-$(date +%Y%m%d-%H%M%S).jsonl"
touch "$log"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
noresult=0

for ((i = 0; i < n; i++)); do
	for w in $workloads; do
		seed=$((seed0 + i))
		line=$(bash loadbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
		status=$?
		# An incorrect run exits 1 but still prints its result: log it, so
		# the summary below counts it.
		if [[ $line != "{"* ]]; then
			echo "repeat: $w seed $seed exited $status without a result" >&2
			noresult=$((noresult + 1))
			continue
		fi
		printf '{"workload":"%s","round":%d,"seed":%d,"status":%d,"result":%s}\n' \
			"$w" "$i" "$seed" "$status" "$line" >>"$log"
		echo "repeat: round $((i + 1))/$n $w seed $seed exited $status" >&2
	done
done

python3 - "$log" "$noresult" <<'PY'
import json, statistics, sys

def spread(vals):
    """Interquartile range as a share of the median."""
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / med if med else float("inf")

bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(sys.argv[1])]
noresult = int(sys.argv[2])
print(f"{len(runs)} runs logged in {sys.argv[1]}, {noresult} runs printed no result")
flagged = noresult
for w in (w["name"] for w in bench["workloads"]):
    mine = [r for r in runs if r["workload"] == w]
    bad = [r for r in mine if not r["result"]["correct"] or r["status"] != 0]
    print(f"\n{w}: {len(mine)} runs, {len(bad)} incorrect")
    flagged += len(bad)
    if len(mine) < 2:
        continue
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sets = [[r["result"]["metrics"][name]["value"] for r in mine if r["round"] % 2 == parity]
                for parity in (0, 1)]
        sets = [s for s in sets if s]
        spreads = [spread(s) for s in sets]
        medians = [statistics.median(s) for s in sets]
        gap = abs(medians[1] - medians[0]) / medians[0] if len(medians) == 2 and medians[0] else 0.0
        note = ""
        if (max(spreads) > bound and name != "setup_s") or gap > bound:
            note = "  FLAG: over bound"
            flagged += 1
        elif max(spreads) > bound / 3 and name != "setup_s":
            note = "  near bound"
        per_set = "  ".join(f"set {i}: median {md:.6g} IQR/median {sp:.4f}"
                            for i, (md, sp) in enumerate(zip(medians, spreads)))
        print(f"  {name:9s} {m['unit']:5s} (bound {bound})  {per_set}  gap {gap:.4f}{note}")
sys.exit(1 if flagged else 0)
PY
