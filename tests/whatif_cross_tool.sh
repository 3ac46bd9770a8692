#!/bin/sh
# One flag set and one scenario string must describe the same host:
# iocost_sim --whatif (scenario built from CLI flags) and
# iocost_whatif --cold (scenario parsed from a spec string) must print
# byte-identical whatif_diff documents for the same jobs and seed.
# The buffered job also checks the CLI-only 512M page-cache default
# against an explicit pagecache= key.
#
# usage: whatif_cross_tool.sh IOCOST_SIM IOCOST_WHATIF
set -eu
sim=$1
whatif=$2
query='{"q":"weight","cg":"web","value":300,"from":"250ms"}'
web=web:weight=200:depth=16
buf=log:weight=100:buffered=1:bs=65536:fsync=8

from_flags=$("$sim" --seconds 1 --seed 5 --controller "iocost min=40" \
    --job "$web" --job "$buf" --whatif "$query")
from_spec=$(echo "$query" | "$whatif" --cold 2>/dev/null --scenario \
    "seconds=1;seed=5;controller=iocost min=40;pagecache=512M;job=$web;job=$buf")

case $from_flags in
'{"type":"whatif_diff"'*) ;;
*) echo "iocost_sim gave no whatif_diff: $from_flags"; exit 1 ;;
esac
if [ "$from_flags" != "$from_spec" ]; then
    echo "iocost_sim --whatif:"
    echo "$from_flags"
    echo "iocost_whatif --cold:"
    echo "$from_spec"
    exit 1
fi
echo "identical whatif_diff from flags and from the spec string"
