#!/bin/sh
# verify.sh — the repo's full local gate: formatting, vet, build, tests,
# and the static screen over every builtin workload (dpvet exits non-zero
# on error findings or any disagreement with the suite's Racy metadata).
set -e
cd "$(dirname "$0")"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build + test"
go build ./...
go test ./...

echo "== dpvet (static screen, all builtin workloads)"
go run ./cmd/dpvet -q

echo "== benchmark guard (golden cycle counts, nil-sink and traced)"
go test ./internal/core/ -run 'TestGoldenCyclesUnchanged|TestTracingDoesNotPerturbCycles' -count=1

echo "== baseline guard (traced baselines bit-identical, streamed = buffered)"
go test ./internal/baseline/ -run 'TestCrewTracingBitIdentical|TestUniprocessorTracingBitIdentical' -count=1
go test ./internal/core/ -run 'TestStreamedRecordingMatchesBuffered' -count=1

echo "== observability gate (streamed trace -> dptrace, prometheus lint)"
obs=$(mktemp -d)
trap 'kill "${srv_pid:-}" 2>/dev/null || true; rm -rf "$obs"' EXIT
go run ./cmd/doubleplay record -w racey -workers 2 -seed 11 \
    -trace "$obs/a.json" -prom "$obs/m.prom" >/dev/null
go run ./cmd/dptrace stats "$obs/a.json" >/dev/null
go run ./cmd/dptrace promlint "$obs/m.prom" >/dev/null
# Same seed: the diff must report agreement (exit 0).
go run ./cmd/doubleplay record -w racey -workers 2 -seed 11 -trace "$obs/a2.json" >/dev/null
go run ./cmd/dptrace diff "$obs/a.json" "$obs/a2.json" >/dev/null
# Different seed on a racy workload: the diff must find a divergent epoch
# (exit 3).
go run ./cmd/doubleplay record -w racey -workers 2 -seed 12 -trace "$obs/b.json" >/dev/null
if go run ./cmd/dptrace diff "$obs/a.json" "$obs/b.json" >/dev/null 2>&1; then
    echo "dptrace diff failed to flag divergent seeds" >&2
    exit 1
fi

echo "== adaptive gate (controller recordings replay bit-identically)"
# A filling pipeline: pbzip with 4 workers starting from one active slot
# forces the controller to grow. Keep the log, the trace, and the stats.
go run ./cmd/doubleplay record -w pbzip -workers 4 -spares 1 \
    -adaptive -min-spares 1 -max-spares 4 -seed 11 \
    -o "$obs/ad.dplog" -trace "$obs/ad.json" >"$obs/ad.out"
grep -q "controller:" "$obs/ad.out" || {
    echo "adaptive: controller never fired on a filling pipeline" >&2; exit 1; }
# The recording must replay from the log alone, every boundary hash
# verified (replay exits 1 on any mismatch).
go run ./cmd/doubleplay replay -w pbzip -workers 4 -log "$obs/ad.dplog" >/dev/null
# Same seed and bounds: a second adaptive recording must diff clean
# (exit 0) — controller decisions are deterministic.
go run ./cmd/doubleplay record -w pbzip -workers 4 -spares 1 \
    -adaptive -min-spares 1 -max-spares 4 -seed 11 -trace "$obs/ad2.json" >/dev/null
go run ./cmd/dptrace diff "$obs/ad.json" "$obs/ad2.json" >/dev/null
# A pinned controller (min = max = spares) must reproduce the fixed-spares
# timeline the observability gate recorded.
go run ./cmd/doubleplay record -w racey -workers 2 \
    -adaptive -min-spares 2 -max-spares 2 -seed 11 -trace "$obs/pin.json" >/dev/null
go run ./cmd/dptrace diff "$obs/pin.json" "$obs/a.json" >/dev/null
# dptrace lag must narrate the controller's decisions from the trace.
go run ./cmd/dptrace lag "$obs/ad.json" | grep -q "controller: bounds" || {
    echo "adaptive: dptrace lag missing controller narration" >&2; exit 1; }

echo "== certification gate (static race-freedom proof, verify-skip soundness)"
# The certifier must classify every builtin workload, and must never mark
# a Racy workload race-free (dpvet certify exits 1 on any such
# disagreement with the suite's ground-truth metadata).
go run ./cmd/dpvet certify >/dev/null
# A certified recording skips every epoch's verification pass...
go run ./cmd/doubleplay record -w sigping -workers 2 -seed 11 \
    -verify-policy certified -o "$obs/cert.dplog" >"$obs/cert.out"
grep -q "verification skipped" "$obs/cert.out" || {
    echo "certify: sigping kept verification under -verify-policy certified" >&2; exit 1; }
# ...and must still replay to the exact final state the fully-verified
# recording of the same seed reaches.
go run ./cmd/doubleplay record -w sigping -workers 2 -seed 11 \
    -o "$obs/full.dplog" >/dev/null
cert_hash=$(go run ./cmd/doubleplay replay -w sigping -workers 2 -log "$obs/cert.dplog" |
    grep -o 'final hash [0-9a-f]*')
full_hash=$(go run ./cmd/doubleplay replay -w sigping -workers 2 -log "$obs/full.dplog" |
    grep -o 'final hash [0-9a-f]*')
if [ -z "$cert_hash" ] || [ "$cert_hash" != "$full_hash" ]; then
    echo "certify: certified replay diverged from the verified recording ('$cert_hash' vs '$full_hash')" >&2
    exit 1
fi
# A possibly-racy workload must fall back to full verification.
go run ./cmd/doubleplay record -w racey -workers 2 -seed 11 \
    -verify-policy certified >"$obs/racy.out"
grep -q "full verification kept" "$obs/racy.out" || {
    echo "certify: racey skipped verification — soundness bug" >&2; exit 1; }

echo "== profiling gate (record/replay guest profiles bit-identical, flame renders)"
# Recording with -guest-profile and replaying the log with -guest-profile
# must produce byte-identical pprof artifacts — the profiler's whole
# contract is that the profile is a pure function of the recorded
# instruction streams.
go run ./cmd/doubleplay record -w racey -workers 2 -seed 11 \
    -guest-profile "$obs/rec.pb" -o "$obs/prof.dplog" >/dev/null
go run ./cmd/doubleplay replay -w racey -workers 2 -log "$obs/prof.dplog" \
    -guest-profile "$obs/rep.pb" >/dev/null
cmp -s "$obs/rec.pb" "$obs/rep.pb" || {
    echo "profile: replay profile differs from record profile" >&2; exit 1; }
# verify runs the same check itself, against every replay strategy.
go run ./cmd/doubleplay verify -w fft -workers 2 -parallel \
    -guest-profile "$obs/v.pb" | grep -q "guest profile:     OK" || {
    echo "profile: verify did not report the profile self-check" >&2; exit 1; }
# Certified recordings profile the thread-parallel execution itself;
# replay must still regenerate that profile exactly.
go run ./cmd/doubleplay record -w sigping -workers 2 -seed 11 \
    -verify-policy certified -guest-profile "$obs/certrec.pb" \
    -o "$obs/certprof.dplog" >/dev/null
go run ./cmd/doubleplay replay -w sigping -workers 2 -log "$obs/certprof.dplog" \
    -guest-profile "$obs/certrep.pb" >/dev/null
cmp -s "$obs/certrec.pb" "$obs/certrep.pb" || {
    echo "profile: certified recording's profile not regenerated by replay" >&2; exit 1; }
# dptrace flame renders both views from the same artifact.
go run ./cmd/dptrace flame -top 5 "$obs/rec.pb" | grep -q "function" || {
    echo "profile: dptrace flame top table missing" >&2; exit 1; }
go run ./cmd/dptrace flame -folded "$obs/rec.pb" | grep -q "main" || {
    echo "profile: dptrace flame folded stacks missing" >&2; exit 1; }

echo "== log-format gate (sectioned v6: inspect, extract, upgrade, doc links)"
# A freshly recorded artifact must inspect as a seekable v6 log with an
# intact index and no damaged section bodies.
go run ./cmd/doubleplay log inspect -log "$obs/full.dplog" >"$obs/li.out"
grep -q "dplog v6" "$obs/li.out" || {
    echo "log inspect: recording is not a v6 log" >&2; exit 1; }
grep -Eq "sections: +[1-9]" "$obs/li.out" || {
    echo "log inspect: no sections reported" >&2; exit 1; }
if grep -q "ERROR" "$obs/li.out"; then
    echo "log inspect: damaged section bodies" >&2; cat "$obs/li.out" >&2; exit 1
fi
# The section table ends with a compressed/raw totals row.
grep -Eq "total +[0-9]+ +[0-9]+ +[0-9]+\.[0-9]+" "$obs/li.out" || {
    echo "log inspect: totals row missing from the section table" >&2; exit 1; }
# -epoch narrows the output to one section's frame + boundary info.
go run ./cmd/doubleplay log inspect -log "$obs/full.dplog" -epoch 1 >"$obs/li1.out"
grep -q "boundary: start" "$obs/li1.out" || {
    echo "log inspect -epoch: boundary info missing" >&2; exit 1; }
if grep -q "total" "$obs/li1.out"; then
    echo "log inspect -epoch: still dumps the totals table" >&2; exit 1
fi
# Extracting an epoch range must yield a standalone 2-section log.
go run ./cmd/doubleplay log extract -log "$obs/full.dplog" -epochs 1..2 -o "$obs/sub.dplog" >/dev/null
go run ./cmd/doubleplay log inspect -log "$obs/sub.dplog" | grep -Eq "sections: +2" || {
    echo "log extract: subset does not hold exactly 2 sections" >&2; exit 1; }
# A retired-format (v5) fixture is refused by every reader — the error
# must say how to convert it — and upgrades in place to v6.
cp internal/dplog/testdata/v5.dplog "$obs/legacy.dplog"
if go run ./cmd/doubleplay log inspect -log "$obs/legacy.dplog" >"$obs/lv5.out" 2>&1; then
    echo "log inspect: opened a v5 file; only log upgrade may decode one" >&2; exit 1
fi
grep -q "log upgrade" "$obs/lv5.out" || {
    echo "log inspect: refusing a v5 file without naming log upgrade" >&2; cat "$obs/lv5.out" >&2; exit 1; }
go run ./cmd/doubleplay log upgrade -log "$obs/legacy.dplog" >/dev/null
go run ./cmd/doubleplay log inspect -log "$obs/legacy.dplog" | grep -q "dplog v6" || {
    echo "log upgrade: legacy log did not migrate to v6" >&2; exit 1; }
# Every relative link in the documentation must resolve.
./scripts/check_links.sh >/dev/null

echo "== debug gate (time-travel debugger: bisect pins the divergent epoch)"
go build -o "$obs/dpdebug" ./cmd/dpdebug
# Two recordings of the racy workload under different seeds start from
# the identical state; the seeds only jitter the recorded schedules, so
# the races resolve differently and the executions drift apart at a
# fixed, known epoch. Recording is fully deterministic — the answer is
# pinned, not flaky.
go run ./cmd/doubleplay record -w racey -workers 2 -seed 1 -o "$obs/ra.dplog" >/dev/null
go run ./cmd/doubleplay record -w racey -workers 2 -seed 4 -o "$obs/rb.dplog" >/dev/null
bst=0
"$obs/dpdebug" bisect -a "$obs/ra.dplog" -b "$obs/rb.dplog" >"$obs/bi.out" || bst=$?
[ "$bst" -eq 3 ] || {
    echo "dpdebug bisect: exit $bst, want 3 (divergence found)" >&2
    cat "$obs/bi.out" >&2; exit 1; }
grep -q "first divergent boundary: epoch 1 " "$obs/bi.out" || {
    echo "dpdebug bisect: first divergent epoch is not the known epoch 1" >&2
    cat "$obs/bi.out" >&2; exit 1; }
# The answer must be byte-identical whichever byte path backs the
# sessions: seeking the v6 log vs decoding the whole recording.
"$obs/dpdebug" bisect -a "$obs/ra.dplog" -b "$obs/rb.dplog" -json >"$obs/bi1.json" || true
"$obs/dpdebug" bisect -a "$obs/ra.dplog" -b "$obs/rb.dplog" -json -decode >"$obs/bi2.json" || true
cmp -s "$obs/bi1.json" "$obs/bi2.json" || {
    echo "dpdebug bisect: reader-backed and decoded sessions disagree" >&2; exit 1; }
# A recording against itself never diverges (exit 0).
"$obs/dpdebug" bisect -a "$obs/ra.dplog" -b "$obs/ra.dplog" >/dev/null || {
    echo "dpdebug bisect: self-bisect reported divergence" >&2; exit 1; }
# The repl steps, reverse-steps, and stops on a data watchpoint.
printf 'run 1\nstep 3\nrstep 2\nwatch 0x100001\ncontinue\nquit\n' |
    "$obs/dpdebug" repl -log "$obs/ra.dplog" 2>/dev/null >"$obs/repl.out"
grep -q "at epoch 1 step 0 " "$obs/repl.out" || {
    echo "dpdebug repl: run-to-epoch did not land on the boundary" >&2; exit 1; }
grep -q "watch hit \[0x100001\]" "$obs/repl.out" || {
    echo "dpdebug repl: continue did not stop on the watchpoint" >&2; exit 1; }

echo "== serve gate (job daemon: record + replay-by-id over HTTP)"
go build -o "$obs/doubleplay" ./cmd/doubleplay
go build -o "$obs/dptrace" ./cmd/dptrace
"$obs/doubleplay" serve -listen 127.0.0.1:0 -data "$obs/dpdata" \
    -addr-file "$obs/addr" -pool 2 >"$obs/serve.log" 2>&1 &
srv_pid=$!
for i in $(seq 1 100); do [ -s "$obs/addr" ] && break; sleep 0.1; done
addr=$(cat "$obs/addr")

# JSON field extraction without jq.
field() { grep -o "\"$1\": \"[^\"]*\"" | head -1 | cut -d'"' -f4; }

# Submit the same recording the observability gate made via the CLI.
id=$(curl -fsS -X POST "http://$addr/jobs" \
    -d '{"kind":"record","workload":"racey","workers":2,"seed":11}' | field id)
[ -n "$id" ] || { echo "serve: submission returned no job id" >&2; exit 1; }
state=queued
for i in $(seq 1 300); do
    state=$(curl -fsS "http://$addr/jobs/$id" | field state)
    case "$state" in done|failed|canceled) break;; esac
    sleep 0.1
done
if [ "$state" != done ]; then
    echo "serve: record job ended $state" >&2; cat "$obs/serve.log" >&2; exit 1
fi
rec_hash=$(curl -fsS "http://$addr/jobs/$id" | field final_hash)

# Replay the stored recording by id, epoch-parallel; the hash must match.
rid=$(curl -fsS -X POST "http://$addr/jobs" \
    -d "{\"kind\":\"replay\",\"recording_job\":\"$id\",\"mode\":\"parallel\"}" | field id)
state=queued
for i in $(seq 1 300); do
    state=$(curl -fsS "http://$addr/jobs/$rid" | field state)
    case "$state" in done|failed|canceled) break;; esac
    sleep 0.1
done
rep_hash=$(curl -fsS "http://$addr/jobs/$rid" | field final_hash)
if [ "$state" != done ] || [ -z "$rec_hash" ] || [ "$rep_hash" != "$rec_hash" ]; then
    echo "serve: replay-by-id ended $state (hash $rep_hash vs $rec_hash)" >&2; exit 1
fi

# The served trace must agree with the CLI trace of the same seed.
curl -fsS "http://$addr/jobs/$id/trace" -o "$obs/served.json"
"$obs/dptrace" diff "$obs/served.json" "$obs/a.json" >/dev/null

# The daemon's /metrics must lint clean.
curl -fsS "http://$addr/metrics" -o "$obs/serve.prom"
"$obs/dptrace" promlint "$obs/serve.prom" >/dev/null

# SIGTERM must drain cleanly: exit 0 with artifacts flushed.
kill -TERM "$srv_pid"
wait "$srv_pid"
srv_pid=""

echo "== store gate (one object per recording, pinning, retention gc, offline fsck)"
./scripts/store_gate.sh

echo "verify.sh: all checks passed"
