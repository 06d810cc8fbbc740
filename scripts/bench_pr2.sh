#!/bin/sh
# bench_pr2.sh runs the campaign-scale benchmarks (E4 Fig. 11 coverage, E5
# total defect coverage, and the per-engine E5 variants) once each and writes
# the timings to BENCH_PR2.json, recording the speedup of the batched engine
# over full per-defect execution.
#
# Usage: scripts/bench_pr2.sh [output.json]
set -eu

out=${1:-BENCH_PR2.json}
cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench 'E4|E5' -benchtime 1x .)
echo "$raw" >&2

echo "$raw" | awk -v out="$out" '
$1 ~ /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns[name] = $3
}
END {
    order = "BenchmarkE4_Fig11AddressBusCoverage " \
            "BenchmarkE5_TotalDefectCoverage " \
            "BenchmarkE5_EngineExecute " \
            "BenchmarkE5_EngineBatch"
    n = split(order, names, " ")
    printf "{\n" > out
    printf "  \"bench\": {\n" >> out
    for (i = 1; i <= n; i++) {
        if (!(names[i] in ns)) {
            printf "missing benchmark %s\n", names[i] > "/dev/stderr"
            exit 1
        }
        printf "    \"%s\": {\"ns_per_op\": %d}%s\n", \
            names[i], ns[names[i]], (i < n) ? "," : "" >> out
    }
    printf "  },\n" >> out
    printf "  \"e5_speedup_execute_over_batch\": %.2f\n", \
        ns["BenchmarkE5_EngineExecute"] / ns["BenchmarkE5_EngineBatch"] >> out
    printf "}\n" >> out
}
'
echo "wrote $out" >&2
