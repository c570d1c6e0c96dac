#!/usr/bin/env bash
# A/B: the working tree against a parent revision on one remem-perf workload,
# as alternating pairs.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10]
#
# Builds remem-perf twice — <parent-rev> from a `git archive` copy, the change
# from this working tree (uncommitted edits included) — into separate target
# directories under $AB_DIR (default target/ab), then runs `pairs` pairs with
# seeds 1..pairs, parent first on odd pairs and change first on even ones, so
# drift of the box lands on both sides. AB_SECONDS (default 10) is --seconds.
#
# Prints, for every end-to-end metric of BENCHMARK.json: both medians with
# their quartiles, the change in the median, the pairs the change won, and the
# parent's own quartile spread — a gain counts when it wins >= 9 of 10 pairs
# and the medians differ by more than that spread. The sim_* metrics repeat
# exactly for a seed, so for them "identical" is reported per pair.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/ab.sh <parent-rev> <workload> [pairs=10]}
workload=${2:?usage: scripts/ab.sh <parent-rev> <workload> [pairs=10]}
pairs=${3:-10}
seconds=${AB_SECONDS:-10}
dir=${AB_DIR:-target/ab}
sha=$(git rev-parse --short "$rev^{commit}")

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rm -rf "$dir/parent-src"
mkdir -p "$dir/parent-src"
git archive "$sha" | tar -x -C "$dir/parent-src"
echo "building parent $sha and the working tree ..." >&2
CARGO_TARGET_DIR="$dir/parent-target" cargo build --release --offline --quiet \
    --manifest-path "$dir/parent-src/perf/Cargo.toml"
CARGO_TARGET_DIR="$dir/change-target" cargo build --release --offline --quiet \
    --manifest-path perf/Cargo.toml

out="$dir/ab_${workload}.jsonl"
: >"$out"
run() { # side seed; a run that fails is recorded and reported at the end
    local line
    line=$("$dir/$1-target/release/remem-perf" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
    echo "{\"side\": \"$1\", \"seed\": $2, \"result\": ${line:-null}}" >>"$out"
}
for ((seed = 1; seed <= pairs; seed++)); do
    if ((seed % 2)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    echo "pair $seed/$pairs done" >&2
done

echo "# A/B on $workload: parent $sha vs $(git describe --always --dirty), $pairs pairs, --seconds $seconds"
echo
python3 - "$out" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
side = lambda s: {r["seed"]: r["result"] for r in runs if r["side"] == s}
parent, change = side("parent"), side("change")
bad = [(r["side"], r["seed"]) for r in runs
       if not (r["result"] and r["result"]["correct"] and r["result"]["failed"] == 0)]
seeds = sorted(s for s in parent if parent[s] and change.get(s))

def quart(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)

print("| metric | parent median [q1, q3] | change median [q1, q3] | change | pairs won | parent spread |")
print("|---|---|---|---|---|---|")
for m in bench["end_to_end"]:
    value = lambda r: r["metrics"][m["name"]]["value"]
    p = [value(parent[s]) for s in seeds]
    c = [value(change[s]) for s in seeds]
    if not p:
        continue
    (p1, pm, p3), (c1, cm, c3) = quart(p), quart(c)
    lower = m["better"] == "lower"
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    same = sum(a == b for a, b in zip(p, c))
    note = f"{won}/{len(p)}" if same < len(p) else "identical"
    print(f"| {m['name']} ({m['unit']}) | {pm:.6g} [{p1:.6g}, {p3:.6g}] | {cm:.6g} [{c1:.6g}, {c3:.6g}] "
          f"| {(cm - pm) / pm:+.1%} | {note} | {(p3 - p1) / pm:.1%} |")
print()
print("every run correct, no failed operation" if not bad else f"INCORRECT OR FAILED: {bad}")
sys.exit(1 if bad else 0)
PY
