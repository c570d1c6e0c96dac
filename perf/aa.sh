#!/usr/bin/env bash
# A/A check: run the untraced benchmark N times on one commit, each time with
# another seed (as the driver does), and print every end-to-end metric's
# min / median / max and its quartile spread against the metric's bound.
#
#   perf/aa.sh N [FIRST_SEED]        # seeds FIRST_SEED .. FIRST_SEED+N-1
#
# The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4);
# a metric is "steady" below a third of its bound. Simulated metrics repeat
# exactly for one seed, so their spread here is the spread between seeds.
set -uo pipefail
cd "$(dirname "$0")/.."
n=${1:?usage: perf/aa.sh N [FIRST_SEED]}
first=${2:-1}

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml || exit 1
bin=${CARGO_TARGET_DIR:-perf/target}/release/remem-perf
mkdir -p perf/out
out=perf/out/aa.jsonl
: >"$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for ((i = 0; i < n; i++)); do
    seed=$((first + i))
    for w in $workloads; do
        line=$("$bin" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)
        echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": ${line:-null}}" >>"$out"
    done
done

echo "# remem-perf A/A: $n runs, seeds $first..$((first + n - 1))"
echo
echo "- commit: $(git describe --always --dirty 2>/dev/null || echo unknown)"
echo "- nproc: $(nproc), $(rustc --version)"
echo
python3 - "$out" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
print("| workload | metric | unit | min | median | max | spread | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
bad = 0
for w in [w["name"] for w in bench["workloads"]]:
    mine = [r["result"] for r in runs if r["workload"] == w]
    wrong = [r for r in mine if not (r and r["correct"])]
    bad += len(wrong)
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in mine if r]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "steady" if spread < m["bound"] / 3 else "ok" if spread < m["bound"] else "NOISY"
        print(f"| {w} | {m['name']} | {m['unit']} | {min(values):.6g} | {med:.6g} | {max(values):.6g} "
              f"| {spread:.2%} | {m['bound']:.0%} | {verdict} |")
    if wrong:
        print(f"| {w} | **{len(wrong)} of {len(mine)} runs incorrect** | | | | | | | |")
print()
print("every run correct, no failed operation" if not bad else f"{bad} runs incorrect")
sys.exit(1 if bad else 0)
EOF
