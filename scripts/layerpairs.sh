#!/usr/bin/env bash
# scripts/layerpairs.sh — compare two commits on one package's Go
# benchmarks by alternating pairs of runs: a layer pair.
#
#   scripts/layerpairs.sh PARENT CHANGE PKG BENCH N [CPUS]
#   scripts/layerpairs.sh HEAD~1 HEAD ./internal/sched BenchmarkUniFollow 10 1
#
# Each commit is exported (git archive) into its own tree under
# .bench_build/layerpairs/, where go test -c builds its test binary for PKG;
# the trees are removed when the script exits. Pair i runs both binaries in
# PKG's directory with -test.run '^$' -test.bench BENCH -test.benchmem
# -test.cpu CPUS (default 1) -test.timeout 1h, the parent first in odd pairs
# and the change first in even ones. Each run's output is kept in
# .bench_build/layerpairs/runs/.
#
# For every sub-benchmark and unit (ns/op, B/op, allocs/op and custom units
# such as Minstr/s) it prints the pairs the change won, both medians, their
# relative difference and the parent's quartile spread (Q3 - Q1), the table
# of scripts/pairstats.awk. A unit per second is better higher, every other
# unit lower.
set -euo pipefail
if [ $# -lt 5 ] || [ $# -gt 6 ] || ! [[ "$5" =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: scripts/layerpairs.sh PARENT CHANGE PKG BENCH N [CPUS]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
pkg=$3 bench=$4 n=$5 cpus=${6:-1}
pairs="$root/.bench_build/layerpairs"
runs="$pairs/runs"

trap 'rm -rf "$pairs/parent" "$pairs/change"' EXIT
rm -rf "$pairs"
mkdir -p "$runs"
for side in parent change; do
	rev=$([ "$side" = parent ] && echo "$1" || echo "$2")
	mkdir -p "$pairs/$side"
	git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$pairs/$side"
	(cd "$pairs/$side" && go test -c -o "$pairs/$side.test" "$pkg")
	echo "== $side: $rev ($(git rev-parse --short "$rev^{commit}"))" >&2
done

run() { # run SIDE PAIR
	echo "== pair $2: $1" >&2
	(cd "$pairs/$1/$pkg" && "$pairs/$1.test" -test.run '^$' -test.bench "$bench" -test.benchmem -test.cpu "$cpus" -test.timeout 1h) \
		>"$runs/$1.$2.txt" || echo "== pair $2: $1 exited non-zero" >&2
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

# One line per sub-benchmark, unit and pair: name unit better parent change.
for i in $(seq "$n"); do
	awk '
		/^Benchmark/ {
			side = FILENAME == ARGV[1] ? "parent" : "change"
			for (f = 3; f < NF; f += 2) {
				key = $1 " " $(f + 1)
				if (side == "parent" && !(key in seen)) { seen[key] = 1; order[++m] = key }
				v[side, key] = $f
			}
		}
		END {
			for (j = 1; j <= m; j++) {
				key = order[j]
				c = (("change", key) in v) ? v["change", key] : "null"
				print key, (key ~ /\/s$/ ? "higher" : "lower"), v["parent", key], c
			}
		}' "$runs/parent.$i.txt" "$runs/change.$i.txt"
done | awk -v title="$pkg $bench -cpu $cpus, $n pairs" -f scripts/pairstats.awk
