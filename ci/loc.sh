#!/bin/sh
# Non-test line count of the workspace crates, per crate and in total.
#
# A line counts when it is in a `.rs` file under `crates/*/src`, above the
# `#[cfg(test)]` that gates the file's inline test module (`mod name {`,
# with only attribute and comment lines between the two); files named
# `*tests.rs` do not count at all. A `#[cfg(test)]` on any other item (a
# function, an enum variant, a `mod name;` declaration) does not end the
# count. Blank lines and comments count. Run from anywhere inside the
# repository:
#
#     ci/loc.sh
set -eu
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    # `held` counts the lines since a `#[cfg(test)]` whose item is not yet
    # known; they count once that item turns out to be no inline module.
    lines=$(find "$crate/src" -name '*.rs' ! -name '*tests.rs' -exec awk '
        FNR == 1 { held = 0; stopped = 0 }
        stopped { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { n += held; held = 1; next }
        held && /^[[:space:]]*(#|\/\/)/ { held++; next }
        held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{/ {
            held = 0; stopped = 1; next
        }
        { n += held + 1; held = 0 }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-14s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-14s %7d\n' total "$total"
