#!/usr/bin/env bash
# Parent-vs-change comparison of one workload of the repo benchmark, the
# protocol a performance claim is judged by: REF's committed files are
# unpacked into a throw-away directory, each tree builds and runs its own
# bench/run.sh (so each side is measured by its own harness and its own
# build cache), the two sides alternate — parent first on even pairs,
# change first on odd ones — over seeds 41, 42, ..., and every end-to-end
# metric is reported as median [first .. third quartile] per side, with
# the pairs the change won and the metric's BENCHMARK.json bound.
#
#   scripts/benchpair.sh WORKLOAD [PAIRS=5] [REF=HEAD~1]
#
# The change is the working tree as it stands. Nothing leaves the host.
# `git archive`, not `git worktree`: an interrupted run then leaves
# nothing registered in .git, and the parent is exactly its committed
# files. The copy goes under $TMPDIR and is removed on exit.
set -euo pipefail
workload=${1:?usage: scripts/benchpair.sh WORKLOAD [PAIRS=5] [REF=HEAD~1]}
pairs=${2:-5}
ref=${3:-HEAD~1}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

work=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
echo "parent: $(git -C "$root" rev-parse --short "$ref") in $work/parent; change: working tree of $root" >&2

# name, better, bound of every end-to-end metric, one per line.
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
	"$root/BENCHMARK.json" >"$work/metrics"

# run SIDE TREE PAIR SEED appends "metric side pair value" rows for the
# run's last line, the JSON result.
run() {
	local json m
	json=$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$4" --trace 0 | tail -n 1)
	while read -r m _; do
		echo "$m $1 $3 $(grep -o "\"$m\":{\"value\":[^,}]*" <<<"$json" | sed 's/.*://')"
	done <"$work/metrics" >>"$work/rows"
	echo "  pair $3 seed $4 $1: $(grep -o '"ops_per_s":{"value":[^,}]*' <<<"$json" | sed 's/.*://') ops/s" >&2
}

for ((i = 0; i < pairs; i++)); do
	seed=$((41 + i))
	if ((i % 2 == 0)); then
		run parent "$work/parent" "$i" "$seed"
		run change "$root" "$i" "$seed"
	else
		run change "$root" "$i" "$seed"
		run parent "$work/parent" "$i" "$seed"
	fi
done

echo "$workload: $pairs alternating pairs, seeds 41..$((40 + pairs)), median [quartiles]"
awk '
function quantile(a, n, p,    pos, lo) {
	pos = 1 + (n - 1) * p; lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function summary(m, side,    n, i, j, t, a) {
	for (n = 0; (m, side, n) in v; n++) a[n + 1] = v[m, side, n]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	med[side] = quantile(a, n, 0.5)
	return sprintf("%.4g [%.4g..%.4g]", med[side], quantile(a, n, 0.25), quantile(a, n, 0.75))
}
FILENAME == ARGV[1] { order[++metrics] = $1; better[$1] = $2; bound[$1] = $3; next }
{ v[$1, $2, $3] = $4; if ($3 + 1 > pairs) pairs = $3 + 1 }
END {
	printf "%-16s %-30s %-30s %8s %6s  %s\n", "metric", "parent", "change", "change/p", "wins", "bound"
	for (k = 1; k <= metrics; k++) {
		m = order[k]; wins = 0
		for (i = 0; i < pairs; i++) {
			d = v[m, "change", i] - v[m, "parent", i]
			if ((better[m] == "higher" && d > 0) || (better[m] == "lower" && d < 0)) wins++
		}
		p = summary(m, "parent"); c = summary(m, "change")
		printf "%-16s %-30s %-30s %8.3f %3d/%-2d  %s is better, may worsen %g%%\n",
			m, p, c, med["parent"] ? med["change"] / med["parent"] : 0, wins, pairs, better[m], bound[m] * 100
	}
}' "$work/metrics" "$work/rows"
