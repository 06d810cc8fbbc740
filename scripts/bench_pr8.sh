#!/bin/sh
# bench_pr8.sh runs the batched-screening benchmarks (the E5 campaign and
# the 64-wire wide-bus campaign under the batched engine) once each and
# writes the timings to BENCH_PR8.json. The PR 8 acceptance gate requires
# the batched E5 time to beat BENCH_PR2.json's 0.27 s E5 reference.
#
# Usage: scripts/bench_pr8.sh [output.json]
set -eu

out=${1:-BENCH_PR8.json}
cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench 'BenchmarkE5_EngineBatch$|BenchmarkWideBus64_EngineBatch$' -benchtime 1x .)
echo "$raw" >&2

echo "$raw" | awk -v out="$out" '
$1 ~ /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns[name] = $3
}
END {
    order = "BenchmarkE5_EngineBatch " \
            "BenchmarkWideBus64_EngineBatch"
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
    printf "  }\n" >> out
    printf "}\n" >> out
    if (ns["BenchmarkE5_EngineBatch"] + 0 >= 270000000) {
        printf "FAIL: batched E5 %.3f s does not beat the 0.27 s reference\n", \
            ns["BenchmarkE5_EngineBatch"] / 1e9 > "/dev/stderr"
        exit 1
    }
}
'
echo "wrote $out" >&2
