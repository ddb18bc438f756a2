#!/usr/bin/env bash
# scripts/pairs.sh — compare two commits on one benchmark workload by
# alternating pairs of runs, the table a host-time claim is judged by.
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD N
#   scripts/pairs.sh HEAD~1 HEAD store-churn 10
#
# Each commit is exported (git archive) into its own tree under
# .bench_build/pairs/, and the trees are removed when the script exits. The
# trees share the checkout's compiler cache. Pair i runs the untraced
# benchmark/run.sh of both trees, the parent first in odd pairs and the
# change first in even ones, with --seed 11 and BENCHMARK.json's
# run_seconds. Each run's JSON line is kept
# in .bench_build/pairs/runs/.
#
# For every end-to-end metric of BENCHMARK.json it prints, in that metric's
# direction ("better"): the pairs the change won, both medians, their
# relative difference and the parent's quartile spread (Q3 - Q1). A gain
# shows as a win in (nearly) every pair and a median difference larger than
# that spread. Failed ops of either side are printed last. Needs jq.
set -euo pipefail
if [ $# -ne 4 ] || ! [[ "$4" =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: scripts/pairs.sh PARENT CHANGE WORKLOAD N" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
workload=$3 n=$4
seconds=$(jq -r .run_seconds BENCHMARK.json)
pairs="$root/.bench_build/pairs"
runs="$pairs/runs"

trap 'rm -rf "$pairs/parent" "$pairs/change"' EXIT
rm -rf "$pairs"
mkdir -p "$runs" "$root/.bench_build/gocache"
for side in parent change; do
	rev=$([ "$side" = parent ] && echo "$1" || echo "$2")
	mkdir -p "$pairs/$side/.bench_build"
	git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$pairs/$side"
	ln -s "$root/.bench_build/gocache" "$pairs/$side/.bench_build/gocache"
	echo "== $side: $rev ($(git rev-parse --short "$rev^{commit}"))" >&2
done

run() { # run SIDE PAIR
	echo "== pair $2: $1" >&2
	bash "$pairs/$1/benchmark/run.sh" --workload "$workload" --seed 11 --seconds "$seconds" --trace 0 |
		tail -n 1 >"$runs/$1.$2.json" || echo "== pair $2: $1 exited non-zero" >&2
}
for i in $(seq "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

# One line per metric and pair: metric better parent change.
for i in $(seq "$n"); do
	jq -r --slurpfile p "$runs/parent.$i.json" --slurpfile c "$runs/change.$i.json" \
		'.end_to_end[] | "\(.name) \(.better) \($p[0].metrics[.name].value) \($c[0].metrics[.name].value)"' BENCHMARK.json
done | awk -v n="$n" -v workload="$workload" '
	# q returns the q-quantile of the sorted v[1..k], interpolated.
	function q(v, k, f,    h, lo) {
		h = (k - 1) * f + 1
		lo = int(h)
		return lo >= k ? v[k] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
	}
	function sort(v, k,    i, j, t) {
		for (i = 2; i <= k; i++)
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
				t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
			}
	}
	$3 == "null" || $4 == "null" { next }
	{
		if (!($1 in k)) { order[++m] = $1; better[$1] = $2 }
		i = ++k[$1]
		P[$1, i] = $3; C[$1, i] = $4
		if (($2 == "higher" && $4 > $3) || ($2 == "lower" && $4 < $3)) wins[$1]++
	}
	END {
		printf "%s, %d pairs\n", workload, n
		printf "%-30s %-6s %5s %14s %14s %9s %14s\n", "metric", "better", "wins", "parent", "change", "delta", "parent Q3-Q1"
		for (j = 1; j <= m; j++) {
			name = order[j]; c = k[name]
			delete p; delete ch
			for (i = 1; i <= c; i++) { p[i] = P[name, i]; ch[i] = C[name, i] }
			sort(p, c); sort(ch, c)
			pm = q(p, c, 0.5); cm = q(ch, c, 0.5)
			delta = pm == 0 ? "-" : sprintf("%+.2f%%", 100 * (cm - pm) / pm)
			printf "%-30s %-6s %2d/%-2d %14.6g %14.6g %9s %14.6g\n", name, better[name], wins[name], c, pm, cm, delta, q(p, c, 0.75) - q(p, c, 0.25)
		}
	}'
for side in parent change; do
	printf "%s failed ops: %s\n" "$side" "$(cat "$runs/$side".*.json | jq -s 'map(.failed) | add')"
done
