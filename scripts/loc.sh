#!/bin/sh
# Prints the non-test, non-blank, non-comment Go line count of each
# directory (its own files only, not subdirectories).
#
# Usage: scripts/loc.sh [dir...]      (default: internal/serve cmd/htserved)
#
# This is the number the ROADMAP's line budgets are stated in and every
# PR quotes in CHANGES.md. Counting code lines only means deleting comments or blank
# lines does not register as a reduction; _test.go files are excluded,
# so moving code into them does — reviewers check for that by hand.
# A line counts when anything other than whitespace is left after
# removing // comments and /* */ blocks (a "//" or "/*" inside a string
# literal is treated as a comment start; close enough for a budget).
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- internal/serve cmd/htserved

for dir in "$@"; do
    n=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        [ -f "$f" ] || continue
        c=$(awk '
            {
                line = $0
                out = ""
                while (line != "") {
                    if (inblock) {
                        i = index(line, "*/")
                        if (i == 0) { line = ""; break }
                        line = substr(line, i + 2); inblock = 0
                        continue
                    }
                    s = index(line, "//"); b = index(line, "/*")
                    if (s > 0 && (b == 0 || s < b)) { out = out substr(line, 1, s - 1); line = ""; break }
                    if (b > 0) { out = out substr(line, 1, b - 1); line = substr(line, b + 2); inblock = 1; continue }
                    out = out line; line = ""
                }
                if (out ~ /[^ \t\r]/) n++
            }
            END { print n + 0 }' "$f")
        n=$((n + c))
    done
    printf '%-24s %d\n' "$dir" "$n"
done
