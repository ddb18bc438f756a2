#!/bin/sh
# scripts/golines.sh — print the repo's size: the number of lines of
# non-test Go outside the frozen benchmark/ harness, the shared CLI test
# helpers (internal/clitest) counted. With no argument, files git tracks
# or would add (not ignored) count; with a revision, the files of that
# commit do. This is the one definition of the line count that ROADMAP.md
# and CHANGES.md quote.
#
#   scripts/golines.sh         # prints one number, for the work tree
#   scripts/golines.sh HEAD~3  # the same count at a git revision
set -e
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
	git rev-parse --verify -q "$1^{commit}" >/dev/null || { echo "golines.sh: no revision $1" >&2; exit 2; }
	git grep -c '' "$1" -- '*.go' ':!:*_test.go' ':!:benchmark/' |
		awk -F: '{ n += $NF } END { print n + 0 }'
	exit
fi
git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:benchmark/' |
	xargs -0 cat | wc -l | tr -d ' '
