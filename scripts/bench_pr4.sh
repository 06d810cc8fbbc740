#!/bin/sh
# bench_pr4.sh records the distributed-fleet comparison: the E5 campaign run
# standalone (batched engine, one node) versus dispatched by a fleet
# coordinator across 4 in-process HTTP workers, written to BENCH_PR4.json.
# On a single machine the fleet shares the standalone run's cores, so the
# ratio records the distribution overhead a real multi-machine fleet
# amortizes away.
#
# Usage: scripts/bench_pr4.sh [output.json]
set -eu

out=${1:-BENCH_PR4.json}
cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench 'E5_EngineBatch|E5_Fleet4Workers' -benchtime 1x .)
echo "$raw" >&2

echo "$raw" | awk -v out="$out" '
$1 ~ /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns[name] = $3
}
END {
    order = "BenchmarkE5_EngineBatch BenchmarkE5_Fleet4Workers"
    n = split(order, names, " ")
    printf "{\n" > out
    printf "  \"bench\": {\n" >> out
    for (i = 1; i <= n; i++) {
        if (!(names[i] in ns)) {
            printf "missing benchmark %s\n", names[i] > "/dev/stderr"
            exit 1
        }
        # %s, not %d: ns counts above ~2.1s overflow 32-bit awk integers.
        printf "    \"%s\": {\"ns_per_op\": %s}%s\n", \
            names[i], ns[names[i]], (i < n) ? "," : "" >> out
    }
    printf "  },\n" >> out
    printf "  \"e5_fleet4_over_standalone\": %.2f\n", \
        ns["BenchmarkE5_Fleet4Workers"] / ns["BenchmarkE5_EngineBatch"] >> out
    printf "}\n" >> out
}
'
echo "wrote $out" >&2
