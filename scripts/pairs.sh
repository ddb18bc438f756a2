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
# relative difference and the parent's quartile spread (Q3 - Q1), the table
# of scripts/pairstats.awk. A gain shows as a win in (nearly) every pair and
# a median difference larger than that spread. Failed ops of either side
# are printed last. Needs jq.
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
done | awk -v title="$workload, $n pairs" -f scripts/pairstats.awk
for side in parent change; do
	printf "%s failed ops: %s\n" "$side" "$(cat "$runs/$side".*.json | jq -s 'map(.failed) | add')"
done
