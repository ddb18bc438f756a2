#!/bin/sh
# scripts/golines.sh — print the repo's size: the number of lines of
# non-test Go outside the frozen benchmark/ harness, the shared CLI test
# helpers (internal/clitest) counted. Files git tracks or would add (not
# ignored) count. This is the one definition of the line count that
# ROADMAP.md and CHANGES.md quote.
#
#   scripts/golines.sh    # prints one number
set -e
cd "$(dirname "$0")/.."
git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:benchmark/' |
	xargs -0 cat | wc -l | tr -d ' '
