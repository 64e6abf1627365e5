#!/usr/bin/env bash
# Print every `pub fn`/`pub struct`/`pub enum`/`pub trait` in the six
# library crates whose name is referenced nowhere in non-test code except
# on its own defining line: a candidate for deletion (ROADMAP.md, design
# aim "the least code").
#
# Non-test code is every tracked `*.rs` file outside `tests/` directories
# and `vendor/`, cut at its first `#[cfg(test)]`, with whole-line comments
# (doc comments included) dropped. Names are matched as whole identifiers,
# so a method that shares its name with another item (`new`, `len`) is
# never reported: the list can miss dead code, but each line it prints
# names an item nothing else mentions.
#
# Usage: ./scripts/dead_pub.sh

set -euo pipefail
cd "$(dirname "$0")/.."

libs='^crates/(numerics|fluid|core|congestion|simulator|scenarios)/src/'

git ls-files -- '*.rs' ':(exclude)vendor/**' |
    grep -Ev '(^|/)tests/' |
    while read -r f; do
        awk -v f="$f" '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            { print f ":" FNR ":" $0 }
        ' "$f"
    done |
    awk -F: -v libs="$libs" '
        {
            loc = $1 ":" $2
            text = substr($0, length(loc) + 2)
            line[NR] = text
            n = 0
            rest = text
            while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
                w = substr(rest, RSTART, RLENGTH)
                total[w]++
                rest = substr(rest, RSTART + RLENGTH)
            }
            if ($1 ~ libs &&
                match(text, /^[[:space:]]*pub (fn|struct|enum|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
                def = substr(text, RSTART, RLENGTH)
                sub(/^[[:space:]]*pub /, "", def)
                split(def, kw, " ")
                ndefs++
                dloc[ndefs] = loc
                dkind[ndefs] = kw[1]
                dname[ndefs] = kw[2]
                dline[ndefs] = NR
            }
        }
        END {
            for (i = 1; i <= ndefs; i++) {
                name = dname[i]
                own = 0
                rest = line[dline[i]]
                while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    if (substr(rest, RSTART, RLENGTH) == name) own++
                    rest = substr(rest, RSTART + RLENGTH)
                }
                if (total[name] == own) {
                    printf "%s: %s %s\n", dloc[i], dkind[i], name
                    dead++
                }
            }
            printf "%d unreferenced pub items\n", dead
        }'
