#!/bin/sh
# scripts/unlinked.sh — list the code that no shipped binary links.
#
# Builds the ten shipped binaries (cmd/*, examples/* and benchmark) into a
# temporary directory and prints each function declared in non-test Go
# under internal/ and in the root package that none of them contains, one
# "file:line: name" line each. A package that no binary imports
# (`go list -deps`) is one "dir: no shipped binary imports it" line
# instead of one line per function. A report: it exits 0 once the
# binaries build.
#
# A function is linked when a binary's text symbols (`go tool nm`) hold
# it, or when building their packages with -gcflags=-m reports an
# "inlining call to" it in one of them: a function inlined at
# every call has no symbol of its own. Symbols and calls are matched with
# their type arguments dropped, so a generic function matches by its
# "Name[" prefix and a method of a generic type by its type's name. A
# root-package function that README.md or docs/ names as doubleplay.Name
# is public API and counts as linked.
#
# Known false positives:
#   - trace.(*Sink).sink, the method that seals the trace.Recorder
#     interface: nothing calls it, but the interface needs it;
#   - a function that only the packages no binary imports call (asm's
#     opcode emitters and simos.EncodeString, which guestgen's program
#     generator uses): unlinked, but not dead.
# Known false negatives: a function whose only callers are themselves
# unlinked but inline it (the caller's package still reports the
# inlining), and a method the linker keeps only because an interface it
# may satisfy is used; so deleting a listed function can expose another.
#
#   scripts/unlinked.sh          # prints the list
#   scripts/unlinked.sh | wc -l  # and its count
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bins='./cmd/... ./examples/... ./benchmark'
# shellcheck disable=SC2086
go build -o "$tmp/bin/" $bins
# The same packages again, for the compiler's inlining report alone.
# shellcheck disable=SC2086
go build -gcflags="$mod/...=-m" $bins 2>"$tmp/m"
# shellcheck disable=SC2086
go list -deps $bins >"$tmp/deps"

# norm drops type arguments (balanced brackets), receiver parentheses and a
# method value's "-fm" suffix, so that "(*T[go.shape.int]).M" and
# "(*T).M-fm" read "T.M", the key a declaration gets.
norm='function norm(s,   out, c, i, depth) {
	out = ""; depth = 0
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "[") depth++
		else if (c == "]") depth--
		else if (depth == 0 && c != "(" && c != ")" && c != "*") out = out c
	}
	sub(/-fm$/, "", out)
	return out
}'

# Linked keys, "importpath.T.M" or "importpath.F": every text symbol, every
# callee the compiler inlined, qualified by the caller's package when -m
# spells it unqualified, and the root package's documented functions.
{
	for b in "$tmp"/bin/*; do go tool nm "$b"; done |
		awk "$norm"'$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print norm($0) }'
	go list -f '{{.Name}} {{.ImportPath}}' ./internal/... . |
		awk -v mod="$mod" "$norm"'
		NR == FNR { path[$1] = $2; next }
		/: inlining call to / {
			file = $0; sub(/:.*/, "", file); sub(/^\.\//, "", file)
			if (file ~ /^\//) next
			dir = file; sub(/\/?[^\/]*$/, "", dir)
			callee = $0; sub(/.*: inlining call to /, "", callee)
			pkg = callee; sub(/\..*/, "", pkg)
			if (pkg in path) print path[pkg] "." norm(substr(callee, length(pkg) + 2))
			else print (dir == "" ? mod : mod "/" dir) "." norm(callee)
		}' - "$tmp/m"
	# The root package is the library's API: a function that README.md or
	# docs/ shows as doubleplay.Name has its callers outside the repository.
	grep -ohE "$mod\.[A-Z][A-Za-z0-9_]*" README.md docs/*.md
} | sort -u >"$tmp/linked"

go list -f '{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}' ./internal/... . |
	while read -r path dir files; do
		rel=${dir#"$root"}
		rel=${rel#/}
		if ! grep -qx "$path" "$tmp/deps"; then
			echo "$rel: no shipped binary imports it" >>"$tmp/pkgs"
			continue
		fi
		for f in $files; do
			awk -v pkg="$path" -v file="${rel:+$rel/}$f" '
			/^func / {
				s = substr($0, 6)
				key = ""
				if (s ~ /^\(/) {
					recv = substr(s, 2, index(s, ")") - 2)
					s = substr(s, index(s, ")") + 2)
					sub(/^.* /, "", recv)
					sub(/^\*/, "", recv)
					sub(/\[.*$/, "", recv)
					key = recv "."
				}
				match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = substr(s, 1, RLENGTH)
				if (name == "init" && key == "") next
				print file ":" FNR, pkg "." key name
			}' "$dir/$f"
		done
	done >"$tmp/decls"

awk 'FILENAME == ARGV[1] { linked[$1] = 1; next }
	!($2 in linked) { print $1 ": " $2 }' "$tmp/linked" "$tmp/decls" | sort
[ -f "$tmp/pkgs" ] && sort "$tmp/pkgs"
exit 0
