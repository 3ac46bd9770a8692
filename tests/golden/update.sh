#!/bin/sh
# Rewrite every golden file from a build tree's binaries:
#   sh tests/golden/update.sh build
# Only for a change that moves simulated output on purpose; its
# CHANGES.md line names each file that moved and says why.
set -e
dir=$(dirname "$0")
. "$dir/cases.sh"
for name in $CASES; do
    run_case "$1" "$name" >"$dir/$name.txt"
done
