#!/usr/bin/env bash
# ctest smoke test: every workload at --smoke size, traced, in
# parallel. Checks that every metric BENCHMARK.json names is printed
# with its unit, that every digest matches expected.json, and that
# --help and a bad flag behave.
#   usage: smoke.sh PATH/TO/iocost_e2e PATH/TO/BENCHMARK.json
set -uo pipefail

bin="$1"
spec="$2"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

"$bin" --help > "$tmp/help" 2>&1
if [[ $? -ne 0 ]] || ! grep -q '^usage:' "$tmp/help"; then
    echo "FAIL: --help must print usage and exit 0"
    fail=1
fi
"$bin" --workload saturate --no-such-flag > /dev/null 2>&1
if [[ $? -ne 2 ]]; then
    echo "FAIL: an unknown flag must exit 2"
    fail=1
fi

# BENCHMARK.json keeps one metric per line: {"name": ..., "unit": ...
metrics=$(sed -n 's/.*"name": *"\([^"]*\)", *"unit": *"\([^"]*\)".*/\1 \2/p' \
          "$spec")
if [[ -z "$metrics" ]]; then
    echo "FAIL: no metrics found in $spec"
    exit 1
fi

workloads=(saturate buffered sweep8 fleet10k whatif)
pids=()
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --smoke --trace 1 > "$tmp/$w.out" 2>&1 &
    pids+=($!)
done
for i in "${!workloads[@]}"; do
    w=${workloads[$i]}
    if ! wait "${pids[$i]}"; then
        echo "FAIL: $w exited non-zero"
        cat "$tmp/$w.out"
        fail=1
    fi
    while read -r name unit; do
        if ! grep -Eq "^$w ${name//./\\.} [-+0-9.eE]+ $unit\$" \
             "$tmp/$w.out"; then
            echo "FAIL: $w does not print '$name' in $unit"
            fail=1
        fi
    done <<< "$metrics"
    if ! grep -q "^$w digest\.0 " "$tmp/$w.out" ||
       grep "^$w digest\." "$tmp/$w.out" | grep -qv ' match$'; then
        echo "FAIL: $w smoke digests do not match expected.json"
        grep "^$w digest" "$tmp/$w.out"
        fail=1
    fi
done

[[ $fail -eq 0 ]] && echo "PASS: e2e smoke"
exit $fail
