#!/bin/sh
# Run one golden command and compare its stdout with the committed
# file, printing `diff -u` on a mismatch:
#   sh tests/golden/check.sh BUILD NAME
dir=$(dirname "$0")
. "$dir/cases.sh"
out=$(mktemp) || exit 2
trap 'rm -f "$out"' EXIT
run_case "$1" "$2" >"$out" || {
    echo "golden: $2 exited with status $?"
    exit 1
}
diff -u "$dir/$2.txt" "$out"
