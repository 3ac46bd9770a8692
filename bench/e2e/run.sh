#!/usr/bin/env bash
# End-to-end benchmark: builds bench/e2e into build/e2e, then runs
# each selected workload in its own process. See README.md.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: bench/e2e/run.sh [--workload NAME] [--seed N] [--reps N]
                        [--seconds S] [--smoke] [--trace 0|1]
                        [--out FILE] [--help]

Builds the benchmark (build tree build/e2e) and runs the workloads
saturate, buffered, sweep8, fleet10k and whatif, or only --workload
NAME, each in its own process. Every metric is printed as
'<workload> <metric> <value> <unit>'; each workload ends with one
JSON summary line. --trace 1 adds the per-layer metrics and writes
build/e2e/trace-<workload>.json. --out FILE also writes the output
to FILE. Exit status is non-zero when any check fails.
EOF
}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/build/e2e"
workloads=(saturate buffered sweep8 fleet10k whatif)
pass=()
out=""

while [[ $# -gt 0 ]]; do
    case "$1" in
        --help|-h) usage; exit 0 ;;
        --workload) [[ $# -ge 2 ]] || { usage >&2; exit 2; }
                    workloads=("$2"); shift 2 ;;
        --seed|--reps|--seconds|--trace)
                    [[ $# -ge 2 ]] || { usage >&2; exit 2; }
                    pass+=("$1" "$2"); shift 2 ;;
        --smoke)    pass+=("$1"); shift ;;
        --out)      [[ $# -ge 2 ]] || { usage >&2; exit 2; }
                    out="$2"; shift 2 ;;
        *)          echo "run.sh: unknown argument '$1'" >&2
                    usage >&2; exit 2 ;;
    esac
done

generator=()
if command -v ninja > /dev/null; then
    generator=(-G Ninja)
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/bench/e2e" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

if [[ -n "$out" ]]; then
    : > "$out"
fi
status=0
for w in "${workloads[@]}"; do
    if [[ -n "$out" ]]; then
        "$build/iocost_e2e" --workload "$w" "${pass[@]}" | tee -a "$out" \
            || status=1
    else
        "$build/iocost_e2e" --workload "$w" "${pass[@]}" || status=1
    fi
done
exit "$status"
