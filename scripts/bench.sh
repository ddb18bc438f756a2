#!/bin/sh
# scripts/bench.sh — run the paper-figure benchmarks and publish the
# deterministic metrics they report.
#
#   scripts/bench.sh              # bench once, refresh BENCH_*.json
#   BENCH=VerifySkip scripts/bench.sh   # subset by benchmark name regexp
#   scripts/bench.sh check        # also fail if BENCH_*.json drifted
#
# Artifacts:
#
#   BENCH_<name>.json   committed — the deterministic simulator metrics
#                       each benchmark reports (cycle-derived, so the
#                       values are bit-identical on any host; only ns/op
#                       varies with the machine, and it is excluded)
#   bench/current.txt   this run's raw text (not committed)
#
# Wall-clock time is not this script's business: ns/op of one iteration
# of a paper figure swings by a third from run to run. Host time is
# measured by benchmark/ (end to end) and the layer benchmarks under
# internal/ (paired parent/change binaries; EXPERIMENTS.md).
set -e
cd "$(dirname "$0")/.."

mode="${1:-run}"
case "$mode" in
run | check) ;;
*)
	echo "usage: scripts/bench.sh [check]" >&2
	exit 2
	;;
esac

COUNT="${COUNT:-3}"
PATTERN="${BENCH:-.}"

mkdir -p bench
echo "== go test -bench=$PATTERN -count=$COUNT (benchtime=1x)"
go test -run='^$' -bench="$PATTERN" -benchtime=1x -count="$COUNT" -timeout 60m . | tee bench/current.txt

# Fold each benchmark's reported metrics (averaged over -count runs; the
# simulator makes every run identical) into BENCH_<name>.json.
awk '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i + 1 <= NF; i += 2) {
        u = $(i + 1)
        if (u == "ns/op" || u == "B/op" || u == "allocs/op") continue
        k = name SUBSEP u
        if (!(k in sum)) order[name] = (order[name] == "" ? u : order[name] "\t" u)
        sum[k] += $i; cnt[k]++
    }
    runs[name]++
}
END {
    for (name in runs) {
        f = "BENCH_" tolower(name) ".json"
        printf "{\n  \"benchmark\": \"%s\",\n  \"metrics\": {", name > f
        n = split(order[name], us, "\t")
        for (j = 1; j <= n; j++) {
            u = us[j]; k = name SUBSEP u
            printf "%s\n    \"%s\": %.6g", (j > 1 ? "," : ""), u, sum[k] / cnt[k] > f
        }
        print "\n  }\n}" > f
        close(f)
        print "  -> " f
    }
}' bench/current.txt

if [ "$mode" = check ]; then
	echo "== deterministic metric gate (BENCH_*.json must match the committed values)"
	if ! git diff --exit-code -- 'BENCH_*.json'; then
		echo "bench.sh: benchmark metrics drifted from the committed BENCH_*.json" >&2
		echo "re-run scripts/bench.sh and commit the refreshed artifacts" >&2
		exit 1
	fi
	if [ -n "$(git ls-files --others --exclude-standard -- 'BENCH_*.json')" ]; then
		echo "bench.sh: new BENCH_*.json artifacts are not committed:" >&2
		git ls-files --others --exclude-standard -- 'BENCH_*.json' >&2
		exit 1
	fi
fi
