#!/bin/sh
# One fleet driver behind both CLIs: the same spec run through
# iocost_sim --fleet and iocost_mon --fleet must write byte-identical
# aggregate JSON, which iocost_mon --in renders; and iocost_mon's
# per-host replay JSONL must read back as a per-day host table.
# A truncated aggregate or sweep document is a fatal error naming
# the file, not a table of zeros or of the configs read so far.
#
# usage: fleet_cross_tool.sh IOCOST_SIM IOCOST_MON
set -eu
sim=$1
mon=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
spec="hosts=6 days=2 devices=A slice=10ms warmup=10ms fetch=64K \
fetch_deadline=5ms cleanup=4 cleanup_io=4K cleanup_deadline=2ms"

"$sim" --fleet --scenario "$spec" --jobs 2 --out "$dir/a.json" > /dev/null
"$mon" --fleet --scenario "$spec" --jobs 2 --out "$dir/b.json" > /dev/null
if ! cmp "$dir/a.json" "$dir/b.json"; then
    echo "iocost_sim and iocost_mon wrote different aggregates"
    exit 1
fi
rendered=$("$mon" --in "$dir/a.json")
case $rendered in
'fleet aggregate: hosts=6 days=2 host-days=12'*) ;;
*) echo "iocost_mon --in did not render the aggregate: $rendered"; exit 1 ;;
esac

# usage: truncated FILE BYTES — iocost_mon --in on the first BYTES
# of FILE must fail with a fatal: line that names the cut file.
truncated() {
    head -c "$2" "$1" > "$dir/cut.json"
    if out=$("$mon" --in "$dir/cut.json" 2>&1); then
        echo "iocost_mon --in accepted $2 bytes of $1: $out"
        exit 1
    fi
    case $out in
    *"fatal: $dir/cut.json: "*) ;;
    *) echo "no fatal line naming the file: $out"; exit 1 ;;
    esac
}
truncated "$dir/a.json" 200
"$sim" --fleet --scenario "$spec sweep=iocost;iolatency" --jobs 2 \
    --out "$dir/s.json" > /dev/null
"$mon" --in "$dir/s.json" | grep -q 'config\[1\]: iolatency'
truncated "$dir/s.json" 500

"$mon" --fleet --scenario fig18 --hosts 2 --days 2 \
    --out "$dir/r.jsonl" > /dev/null
table=$("$mon" --in "$dir/r.jsonl")
case $table in
*'  day      hosts    records'*) ;;
*) echo "iocost_mon --in gave no per-day host table: $table"; exit 1 ;;
esac
echo "identical fleet aggregates from both CLIs; replay JSONL reads back"
