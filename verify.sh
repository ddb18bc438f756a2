#!/bin/sh
# verify.sh — the repo's full local gate: formatting, vet, build, the test
# suite and the documentation's relative links. Every end-to-end check is a
# Go test: each command's TestCLI under cmd/ drives the built binary, and
# cmd/doubleplay's TestServe drives the daemon as a child process.
# docs/CI.md maps each check to its test.
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

echo "== markdown links"
./scripts/check_links.sh >/dev/null

echo "verify.sh: all checks passed"
