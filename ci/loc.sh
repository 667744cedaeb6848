#!/bin/sh
# Non-test line count of the workspace crates, per crate and in total.
#
# A line counts when it is in a `.rs` file under `crates/*/src`, above the
# file's first `#[cfg(test)]`; files named `*tests.rs` do not count at all.
# Blank lines and comments count. Run from anywhere inside the repository:
#
#     ci/loc.sh
set -eu
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "$crate/src" -name '*.rs' ! -name '*tests.rs' -exec \
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-14s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-14s %7d\n' total "$total"
