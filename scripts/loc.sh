#!/usr/bin/env bash
# Rust line counts as ROADMAP.md quotes them, per crate and in total:
#   first     every line of every .rs file under crates/ and src/, outside
#             tests/ directories;
#   non-test  the same files, each cut at its first `#[cfg(test)]` line.
# `src/` is the `igq` facade crate. To compare two commits, run the script
# in a checkout (or `git archive`) of each.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the repository holding
# this script)
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

# Prints "<first> <non-test>" for the Rust files under the given paths.
measure() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
        xargs -0 -r awk 'FNR == 1 { cut = 0 }
                         /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
                         { all++; if (!cut) kept++ }
                         END { print all + 0, kept + 0 }' |
        awk '{ all += $1; kept += $2 } END { print all + 0, kept + 0 }'
}

printf '%-16s %8s %9s\n' crate first non-test
for dir in crates/*/ src/; do
    read -r first kept < <(measure "$dir")
    printf '%-16s %8d %9d\n' "${dir%/}" "$first" "$kept"
done
read -r first kept < <(measure crates src)
printf '%-16s %8d %9d\n' total "$first" "$kept"
