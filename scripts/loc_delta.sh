#!/usr/bin/env bash
# Print the net Rust line count of HEAD against a base ref: lines added,
# lines removed, and their difference, over every tracked `*.rs` file
# outside the vendored crates (`vendor/`) and build output (`target/`).
# Every change reports this number (ROADMAP.md).
#
# The diff starts at the merge base of <base-ref> and HEAD, so commits
# that landed on the base after the branch point are not counted. In a
# shallow clone without that history it falls back to <base-ref> itself,
# which for a pull request's merge commit is exactly the PR's change.
#
# Usage: ./scripts/loc_delta.sh <base-ref>

set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:?usage: $0 <base-ref>}"
from="$(git merge-base "$base" HEAD 2>/dev/null || echo "$base")"

git diff --numstat "$from" HEAD -- '*.rs' \
    ':(exclude)vendor/**' ':(exclude,glob)**/target/**' |
    awk -v base="$base" '
        { added += $1; removed += $2 }
        END {
            printf "Rust LoC vs %s: +%d / -%d = net %+d\n",
                base, added, removed, added - removed
        }'
