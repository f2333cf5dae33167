#!/usr/bin/env bash
# The repo's line-count rule (ROADMAP item 6, CHANGES.md since PR 13): every
# tracked `.rs` outside `tests/` directories and `benchmark/`, counted up to
# (not including) its first `#[cfg(test)]` line. Prints one row per crate
# (the root package's `src/` and `examples/` count as `spca-repro`) and the
# total. With `--check` (what `ci.sh` runs) it also exits non-zero when the
# total is above the one number in `scripts/loc.ceiling`; a PR that needs
# more lines raises that number in its own diff.
set -euo pipefail
cd "$(dirname "$0")/.."

table=$(git ls-files -z '*.rs' | grep -zv -e '^benchmark/' -e '\(^\|/\)tests/' |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting {
            n = split(FILENAME, parts, "/")
            crate = (parts[1] == "crates" && n > 2) ? parts[2] : "spca-repro"
            lines[crate]++
            total++
        }
        END {
            for (crate in lines) printf "%-12s %6d\n", crate, lines[crate] | "sort"
            close("sort")
            printf "%-12s %6d\n", "total", total
        }')
echo "$table"
if [[ "${1:-}" == "--check" ]]; then
    total=$(awk '$1 == "total" { print $2 }' <<<"$table")
    ceiling=$(<scripts/loc.ceiling)
    if ((total > ceiling)); then
        echo "loc: total $total is above scripts/loc.ceiling ($ceiling)" >&2
        exit 1
    fi
fi
