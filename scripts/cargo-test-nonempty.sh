#!/usr/bin/env bash
# Usage: scripts/cargo-test-nonempty.sh <cargo test arguments...>
#
# Runs `cargo test` with the given arguments (typically a package and a
# test-name filter) and fails when the run passed no test at all: a filter
# that matches nothing — say, after a test was moved or renamed — would
# otherwise pass silently. The count is the sum of the "passed" field of
# every `test result:` line, across all test binaries the run touched.
set -euo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test "$@" 2>&1 | tee "$log"
passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
if [ "$passed" -eq 0 ]; then
    echo "error: \`cargo test $*\` ran 0 tests; the filter matches nothing" >&2
    exit 1
fi
echo "\`cargo test $*\`: $passed tests passed"
