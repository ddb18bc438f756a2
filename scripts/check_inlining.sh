#!/bin/sh
# scripts/check_inlining.sh — fail if a hot-path helper stops inlining.
#
# The page-cache hits (mem.Memory's LoadHit and StoreHit) and a window's
# common load (vm.Window's loadHit) are inlined into the interpreter's
# loops, which is most of what they save. Each sits close to the
# compiler's inlining budget, so an edit can push it over without any
# test failing; this asks the compiler (go build -gcflags=-m) and fails
# when one of them is no longer reported as "can inline".
set -e
cd "$(dirname "$0")/.."
out=$(go build -gcflags=-m ./internal/mem ./internal/vm 2>&1)
for f in 'Memory\)\.LoadHit' 'Memory\)\.StoreHit' 'Window\)\.loadHit'; do
	if ! echo "$out" | grep -Eq "can inline \(\*$f\$"; then
		echo "check_inlining.sh: no longer inlined: (*$f)" | tr -d '\\' >&2
		exit 1
	fi
done
