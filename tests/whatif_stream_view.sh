#!/bin/sh
# iocost_mon --in renders an iocost_whatif stream: one row per
# whatif_diff document and a summary that counts the whatif_error
# documents (here, a query naming an unknown cgroup).
#
# usage: whatif_stream_view.sh IOCOST_WHATIF IOCOST_MON
set -eu
whatif=$1
mon=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf '%s\n' '{"q":"weight","cg":"web","value":300,"from":"100ms"}' \
    '{"q":"weight","cg":"nope","value":300}' |
    "$whatif" --cold --scenario \
        "device=newgen;seconds=0.4;marks=100ms;job=web:weight=200:depth=16;job=batch:weight=100:depth=16" \
        > "$dir/stream.jsonl" 2> /dev/null
view=$("$mon" --in "$dir/stream.jsonl")
case $view in
*'weight cg=web value=300 from=100000000'*) ;;
*) echo "no row for the weight query: $view"; exit 1 ;;
esac
case $view in
*'whatif stream: 1 diffs, 1 errors'*) ;;
*) echo "wrong stream summary: $view"; exit 1 ;;
esac
echo "whatif stream renders one diff row and counts one error"
