#!/usr/bin/env bash
# Same-machine A/B of the end-to-end benchmark: the working tree (the
# change) against a git revision (the base), in alternating pairs.
#
#   scripts/ab.sh <rev> <workload> [pairs] [seconds] [first-seed]
#
# e.g. scripts/ab.sh HEAD~1 fig10-quick 10 25 101
#
# Both sides run from sibling copies in one temporary directory (TMPDIR
# decides where), so neither gains from where it is built and run from:
# <rev> is exported with git archive, and the working tree's tracked files
# plus its untracked files that are not ignored are copied as they stand.
# The repository gains no worktree record and the working tree is never
# touched. Pair i (from 0) runs
#
#   bash pcmbench/run.sh --workload W --seed <first-seed+i> --seconds T --trace 0
#
# once in each tree: even pairs run the base first, odd pairs the change,
# so a drift in host speed falls on both sides. Each side builds into its
# own CARGO_TARGET_DIR, so neither reuses the other's binary or cache.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles and the number of pairs the change won, in the
# metric's "better" direction; failed operations are summed per side.
# Defaults: 10 pairs, 25 s runs (BENCHMARK.json's run_seconds), first
# seed 1.
set -euo pipefail

usage="usage: scripts/ab.sh <rev> <workload> [pairs] [seconds] [first-seed]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-25}
seed0=${5:-1}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
bench="$root/BENCHMARK.json"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" "$work/change"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" | tar -x -C "$work/base"
# Files deleted in the working tree are still listed; tar skips them.
git -C "$root" ls-files -z --cached --others --exclude-standard |
  (cd "$root" && tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$work/change"
echo "base $(git -C "$root" rev-parse --short "$rev") vs change $root (working tree); $workload, $pairs pairs x ${seconds}s, seeds $seed0..$((seed0 + pairs - 1))"

# run <side> <pair> <seed>: one benchmark run, its JSON line kept.
run() {
  local side=$1 pair=$2 seed=$3
  (cd "$work/$side" && CARGO_TARGET_DIR="$work/build-$side" \
    bash pcmbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    | tail -n 1 >"$work/$side-$pair.json"
  echo "pair $pair seed $seed $side: $(jq -c '{failed} + (.metrics | map_values(.value))' "$work/$side-$pair.json")"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then
    run base "$i" "$seed"
    run change "$i" "$seed"
  else
    run change "$i" "$seed"
    run base "$i" "$seed"
  fi
done

# quartiles: reads numbers, prints "q1 median q3" (linear interpolation).
quartiles() {
  sort -g | awk '{ x[NR - 1] = $1 }
    function q(p,   h, i) { h = p * (NR - 1); i = int(h); return x[i] + (h - i) * (x[i + 1] - x[i]) }
    END { printf "%.4g %.4g %.4g", q(0.25), q(0.5), q(0.75) }'
}

printf '\n%-12s %-30s %-30s %s\n' metric "base q1 / median / q3" "change q1 / median / q3" "change won"
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$bench" | while read -r name better; do
  base=$(for ((i = 0; i < pairs; i++)); do jq ".metrics[\"$name\"].value" "$work/base-$i.json"; done)
  change=$(for ((i = 0; i < pairs; i++)); do jq ".metrics[\"$name\"].value" "$work/change-$i.json"; done)
  wins=$(paste <(echo "$base") <(echo "$change") |
    awk -v better="$better" '(better == "lower" && $2 < $1) || (better == "higher" && $2 > $1) { n++ } END { print n + 0 }')
  printf '%-12s %-30s %-30s %s/%s\n' "$name" "$(echo "$base" | quartiles)" "$(echo "$change" | quartiles)" "$wins" "$pairs"
done
for side in base change; do
  echo "$side failed ops: $(cat "$work/$side-"*.json | jq -s 'map(.failed) | add')"
done
