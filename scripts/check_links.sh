#!/bin/sh
# scripts/check_links.sh — verify every relative markdown link resolves.
#
# Scans all committed *.md files for inline links/images `[text](target)`
# and fails if a repo-relative target does not exist, or if its #fragment
# names no heading of the target file (the same file for a bare #anchor).
# Skipped targets: absolute URLs (http/https/mailto) and ../../* paths,
# which are GitHub-web-relative (the CI badge) rather than files in the
# repo.
set -e
cd "$(dirname "$0")/.."

# anchors FILE prints the anchor of every heading in FILE by GitHub's rule:
# lower-case; drop every character that is not a letter, digit, space, -
# or _; spaces become -; a repeated anchor gets -1, -2, ... Headings inside
# fenced code blocks do not count.
anchors() {
	LC_ALL=C awk '
	/^ *(```|~~~)/ { fence = !fence; next }
	fence || !/^#+ / { next }
	{
		h = $0
		sub(/^#+ +/, "", h)
		sub(/ +#+ *$/, "", h)
		h = tolower(h)
		gsub(/[^a-z0-9 _-]/, "", h)
		gsub(/ /, "-", h)
		if (h in seen) print h "-" seen[h]++
		else { print h; seen[h] = 1 }
	}' "$1"
}

fail=0
for f in $(git ls-files -c -o --exclude-standard '*.md'); do
	dir=$(dirname "$f")
	for target in $(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//'); do
		case "$target" in
		http://* | https://* | mailto:* | ../../*) continue ;;
		esac
		path="${target%%#*}"
		file="$f"
		if [ -n "$path" ]; then
			file="$dir/$path"
			if [ ! -e "$file" ]; then
				echo "$f: broken link -> $target" >&2
				fail=1
				continue
			fi
		fi
		case "$target" in
		*'#'*) ;;
		*) continue ;;
		esac
		if ! anchors "$file" | grep -qxF -- "${target#*#}"; then
			echo "$f: no heading for anchor -> $target" >&2
			fail=1
		fi
	done
done
[ "$fail" -eq 0 ] || exit 1
echo "check_links.sh: all relative markdown links and anchors resolve"
