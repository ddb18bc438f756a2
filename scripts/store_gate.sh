#!/bin/sh
# store_gate.sh — the fleet-scale storage gate: proves the daemon's
# chunk-dedup store end to end against a live `doubleplay serve`.
#
#   1. Two same-workload, different-seed recordings land in the store and
#      share chunks: on-disk bytes < raw sum, dedup_saved_bytes > 0.
#   2. Recordings served back through the chunked reader are
#      byte-identical to their advertised sha256 digest, and epoch-range
#      extraction over HTTP matches offline `doubleplay log extract`.
#   3. Replay-by-id reproduces the recorded final hash from the chunked
#      artifact.
#   4. Pinning protects a recording through a retention GC that reclaims
#      the other one; shared chunks survive because the pinned manifest
#      still references them.
#   5. After SIGTERM drain, offline `doubleplay store fsck` walks the
#      swept store clean and `store stats` still shows the dedup.
#   6. The doubleplay_store_* gauges, which puts advance and GC recounts,
#      equal the `GET /admin/store` walk after the puts and after the GC.
#   7. A put creates files only for spans that can be shared: the store
#      holds fewer chunk files than the two manifests declare spans, and
#      the drained store has no stale temp file.
#
# Run from the repo root (verify.sh and the CI serve-store job do).
set -e
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
srv_pid=""
trap 'kill "${srv_pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/doubleplay" ./cmd/doubleplay

"$tmp/doubleplay" serve -listen 127.0.0.1:0 -data "$tmp/dpdata" \
    -addr-file "$tmp/addr" -pool 2 >"$tmp/serve.log" 2>&1 &
srv_pid=$!
for i in $(seq 1 100); do [ -s "$tmp/addr" ] && break; sleep 0.1; done
addr=$(cat "$tmp/addr")
[ -n "$addr" ] || { echo "store gate: daemon never bound" >&2; cat "$tmp/serve.log" >&2; exit 1; }

# JSON field extraction without jq: string fields and bare numbers.
field() { grep -o "\"$1\": \"[^\"]*\"" | head -1 | cut -d'"' -f4; }
nfield() { grep -o "\"$1\": [0-9][0-9.]*" | head -1 | awk '{print $2}'; }

# The store gauges are running totals, /admin/store is the walk over the
# directories: they must agree whenever nothing is in flight.
gauges_match_walk() { # gauges_match_walk <when>
    curl -fsS "http://$addr/metrics" -o "$tmp/metrics.txt"
    curl -fsS "http://$addr/admin/store" -o "$tmp/walk.json"
    for f in chunks manifests logical_bytes stored_bytes; do
        # %.0f: the exposition prints large gauges as 1.234567e+06.
        g=$(awk -v m="doubleplay_store_$f" '$1==m{printf "%.0f", $2}' "$tmp/metrics.txt")
        w=$(nfield "$f" <"$tmp/walk.json")
        if [ -z "$g" ] || [ "$g" != "$w" ]; then
            echo "store gate: $1: gauge doubleplay_store_$f='$g', /admin/store says $f=$w" >&2
            exit 1
        fi
    done
}

wait_done() { # wait_done <job-id>
    st=queued
    for i in $(seq 1 600); do
        st=$(curl -fsS "http://$addr/jobs/$1" | field state)
        case "$st" in done|failed|canceled) break;; esac
        sleep 0.1
    done
    if [ "$st" != done ]; then
        echo "store gate: job $1 ended $st" >&2
        curl -fsS "http://$addr/jobs/$1" >&2 || true
        cat "$tmp/serve.log" >&2
        exit 1
    fi
}

# Two recordings of the same workload under different seeds: the seeds
# perturb schedules and boundary hashes, but the syscall-result and
# sync-order groups repeat — the redundancy the chunk store exists for.
ida=$(curl -fsS -X POST "http://$addr/jobs" \
    -d '{"kind":"record","workload":"kvdb","workers":2,"seed":11}' | field id)
idb=$(curl -fsS -X POST "http://$addr/jobs" \
    -d '{"kind":"record","workload":"kvdb","workers":2,"seed":12}' | field id)
[ -n "$ida" ] && [ -n "$idb" ] || { echo "store gate: submission failed" >&2; exit 1; }
wait_done "$ida"
wait_done "$idb"

gauges_match_walk "after two recordings"

# Recordings fetch byte-exactly: the body reassembled from chunks must
# hash to the digest the daemon advertises.
curl -fsS -D "$tmp/ha" "http://$addr/jobs/$ida/recording" -o "$tmp/a.dplog"
curl -fsS -D "$tmp/hb" "http://$addr/jobs/$idb/recording" -o "$tmp/b.dplog"
dig_a=$(tr -d '\r' <"$tmp/ha" | awk -F': ' 'tolower($1)=="x-recording-digest"{print $2}')
sum_a="sha256-$(sha256sum "$tmp/a.dplog" | cut -d' ' -f1)"
if [ -z "$dig_a" ] || [ "$sum_a" != "$dig_a" ]; then
    echo "store gate: served recording hashes to $sum_a, daemon advertised '$dig_a'" >&2
    exit 1
fi

# The store dedups across the two seeds.
curl -fsS "http://$addr/admin/store" -o "$tmp/stats.json"
logical=$(nfield logical_bytes <"$tmp/stats.json")
unique=$(nfield unique_raw_bytes <"$tmp/stats.json")
saved=$(nfield dedup_saved_bytes <"$tmp/stats.json")
raw_sum=$(( $(wc -c <"$tmp/a.dplog") + $(wc -c <"$tmp/b.dplog") ))
[ "$logical" -eq "$raw_sum" ] || {
    echo "store gate: logical_bytes $logical != downloaded sum $raw_sum" >&2; exit 1; }
[ -n "$saved" ] && [ "$saved" -gt 0 ] || {
    echo "store gate: no chunk sharing across seeds (dedup_saved_bytes=$saved)" >&2
    cat "$tmp/stats.json" >&2; exit 1; }
[ "$unique" -lt "$logical" ] || {
    echo "store gate: unique bytes $unique not below logical $logical" >&2; exit 1; }

# Small spans travel in the manifest, so the chunk files are fewer than the
# spans — by at least one per section, since every epoch's metadata span
# (boundary hashes and schedule, ~120 bytes on kvdb) is below the inline
# bound; sharing alone, which saves three files here, does not pass. The
# span count is read off the manifests themselves: the third varint after
# the "DPMF" magic (version, total, count).
spans_of() {
    od -An -v -tu1 -j4 -N30 "$1" | awk 'BEGIN { m = 1 }
        { for (i = 1; i <= NF; i++) {
            v += ($i % 128) * m; m *= 128
            if ($i < 128) { if (++n == 3) { print v; exit }; v = 0; m = 1 } } }'
}
spans=0
for man in "$tmp"/dpdata/manifests/*/sha256-*; do
    spans=$((spans + $(spans_of "$man")))
done
sections=0
for log in "$tmp/a.dplog" "$tmp/b.dplog"; do
    n=$("$tmp/doubleplay" log inspect -log "$log" | awk '$1 == "sections:" { print $2 }')
    sections=$((sections + n))
done
chunks=$(nfield chunks <"$tmp/stats.json")
[ "$sections" -gt 0 ] && [ $((chunks + sections)) -le "$spans" ] || {
    echo "store gate: $chunks chunk files for $spans spans in $sections sections: small spans have files again" >&2
    exit 1; }

# Epoch-range extraction through the chunked reader must match offline
# extraction from the downloaded artifact, byte for byte.
curl -fsS "http://$addr/recordings/$ida/epochs/1..2" -o "$tmp/sub_http.dplog"
"$tmp/doubleplay" log extract -log "$tmp/a.dplog" -epochs 1..2 -o "$tmp/sub_cli.dplog" >/dev/null
cmp -s "$tmp/sub_http.dplog" "$tmp/sub_cli.dplog" || {
    echo "store gate: HTTP epoch range differs from offline log extract" >&2; exit 1; }

# Replay-by-id reads the recording through the chunk store and must
# reproduce the recorded final hash.
rec_hash=$(curl -fsS "http://$addr/jobs/$ida" | field final_hash)
rid=$(curl -fsS -X POST "http://$addr/jobs" \
    -d "{\"kind\":\"replay\",\"recording_job\":\"$ida\",\"mode\":\"sequential\"}" | field id)
wait_done "$rid"
rep_hash=$(curl -fsS "http://$addr/jobs/$rid" | field final_hash)
if [ -z "$rec_hash" ] || [ "$rep_hash" != "$rec_hash" ]; then
    echo "store gate: replay-by-id hash $rep_hash != recorded $rec_hash" >&2; exit 1
fi

# Pin A, then age everything out: the pinned recording and every chunk
# it references survive; B's manifest and unshared chunks are reclaimed.
curl -fsS -X POST "http://$addr/jobs/$ida/pin" >/dev/null
curl -fsS -X POST "http://$addr/admin/gc" -d '{"max_age_ms": 1}' -o "$tmp/gc.json"
[ "$(nfield manifests_removed <"$tmp/gc.json")" = 1 ] || {
    echo "store gate: gc did not reclaim exactly the unpinned recording" >&2
    cat "$tmp/gc.json" >&2; exit 1; }
gauges_match_walk "after the retention gc"
code_b=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/jobs/$idb/recording")
[ "$code_b" = 404 ] || {
    echo "store gate: collected recording still served ($code_b)" >&2; exit 1; }
curl -fsS "http://$addr/jobs/$ida/recording" -o "$tmp/a_after_gc.dplog"
cmp -s "$tmp/a.dplog" "$tmp/a_after_gc.dplog" || {
    echo "store gate: pinned recording damaged by gc" >&2; exit 1; }

# The survivor still replays by id after the sweep.
rid2=$(curl -fsS -X POST "http://$addr/jobs" \
    -d "{\"kind\":\"replay\",\"recording_job\":\"$ida\",\"mode\":\"sequential\"}" | field id)
wait_done "$rid2"
rep2=$(curl -fsS "http://$addr/jobs/$rid2" | field final_hash)
[ "$rep2" = "$rec_hash" ] || {
    echo "store gate: post-gc replay hash $rep2 != $rec_hash" >&2; exit 1; }

# Drain and run the offline tools over the swept store.
kill -TERM "$srv_pid"
wait "$srv_pid"
srv_pid=""

"$tmp/doubleplay" store fsck -data "$tmp/dpdata" >"$tmp/fsck.out" || {
    echo "store gate: fsck failed on the post-gc store" >&2
    cat "$tmp/fsck.out" >&2; exit 1; }
grep -q "fsck: ok" "$tmp/fsck.out" || {
    echo "store gate: fsck did not report ok" >&2; cat "$tmp/fsck.out" >&2; exit 1; }
"$tmp/doubleplay" store fsck -data "$tmp/dpdata" -json >"$tmp/fsck.json"
[ "$(nfield stale_temps <"$tmp/fsck.json")" = 0 ] || {
    echo "store gate: the drained store holds stale temp files" >&2
    cat "$tmp/fsck.json" >&2; exit 1; }
"$tmp/doubleplay" store stats -data "$tmp/dpdata" -json >"$tmp/offline.json"
[ "$(nfield manifests <"$tmp/offline.json")" = 1 ] || {
    echo "store gate: offline stats disagree about survivors" >&2
    cat "$tmp/offline.json" >&2; exit 1; }
# A dry-run unbounded gc over the clean store reclaims nothing.
"$tmp/doubleplay" store gc -data "$tmp/dpdata" -dry-run -json >"$tmp/gc2.json"
[ "$(nfield manifests_removed <"$tmp/gc2.json")" = 0 ] || {
    echo "store gate: orphans left behind after the online sweep" >&2
    cat "$tmp/gc2.json" >&2; exit 1; }

echo "store gate: all checks passed"
