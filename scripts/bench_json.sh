#!/bin/sh
# bench_json.sh — run a suite of benchmarks and emit their ns/op, B/op and
# allocs/op as JSON on stdout. Each benchmark runs COUNT (5) times; every
# entry records the median run with the min and max beside it, so a
# reader can tell a change from noise without benchstat.
#
# Usage:
#   scripts/bench_json.sh [benchtime] [suite]   # default 20x classify
#   scripts/bench_json.sh 100x > BENCH_classify.json
#   scripts/bench_json.sh 100x mechanisms > BENCH_mechanisms.json
#
# The classify suite's three headline benchmarks cover the
# classification hot paths (see DESIGN.md §12): the redirect-chain
# classifier, the banner-index search, and the fingerprint identify
# sweep. ExtractTitle rides along as the smallest isolated extractor.
#
# The mechanisms suite covers the per-probe mechanism costs (DESIGN.md
# §13): DNS answer parsing, ClientHello classification, quirk signature
# matching, and the netsim-backed RST/DNS probe round trips.
#
# The monitor suite covers the continuous-measurement loop (DESIGN.md
# §14): one full scheduler tick, watch-broker fanout, and the
# connection-reuse win of pooled list measurement over dial-per-request.
#
# The cluster suite covers distributed scan-out (DESIGN.md §15): the
# mechanism survey through a coordinator with 1, 2 and 4 local workers,
# showing the shard fan-out speedup.
#
# The world suite covers the scale realm (DESIGN.md §16): a dial into a
# never-touched synthetic ISP against one into an ISP already dialed,
# live heap per 10k probed hosts, the full identify scan over the
# realm ("lazy") vs the test-only reference build at 1 and 8 workers,
# and a nation identify pass at GOMAXPROCS 1 and 2, whose ratio is the
# scan's 1-vs-2-core scaling (DESIGN.md §7).
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-20x}"
SUITE="${2:-classify}"
# Every suite's JSON records the cores it ran on and the GOMAXPROCS its
# benchmarks saw; pinning GOMAXPROCS here makes the stamp exact.
NPROC=$(nproc)
GOMAXPROCS="${GOMAXPROCS:-$NPROC}"
export GOMAXPROCS

# Runs per benchmark. Each JSON entry reports the median of its runs
# (the middle one) and, beside it, the min and max.
COUNT=5

run() { # run <package> <benchmark regex> [benchtime]
	# A benchtime given here overrides the suite's for benchmarks whose
	# op is too short to time in a few iterations; the entry records it.
	go test -run xxx -bench "$2" -benchtime "${3:-$BENCHTIME}" -count "$COUNT" -benchmem "$1" 2>&1 |
		awk -v bt="${3:-}" '
		function add(name, metric, v,    k) {
			k = name SUBSEP metric
			vals[k, ++n[k]] = v
		}
		# spread prints metric as "median, min, max" fields, or null
		# when no run reported it.
		function spread(name, metric,    k, m, i, j, t, v) {
			k = name SUBSEP metric
			m = n[k]
			if (m == 0) return sprintf(", \"%s\": null", metric)
			for (i = 1; i <= m; i++) v[i] = vals[k, i]
			for (i = 2; i <= m; i++)
				for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
					t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
				}
			return sprintf(", \"%s\": %s, \"%s_min\": %s, \"%s_max\": %s",
				metric, v[int((m + 1) / 2)], metric, v[1], metric, v[m])
		}
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in runs)) order[++names] = name
			runs[name]++
			# Columns vary (b.SetBytes adds MB/s), so key on unit labels.
			for (i = 3; i <= NF; i++) {
				if ($i == "ns/op") add(name, "ns_per_op", $(i - 1))
				else if ($i == "B/op") add(name, "bytes_per_op", $(i - 1))
				else if ($i == "allocs/op") add(name, "allocs_per_op", $(i - 1))
				else if ($i == "heapB/10khosts") add(name, "heap_bytes_per_10k_hosts", $(i - 1))
			}
		}
		END {
			for (o = 1; o <= names; o++) {
				name = order[o]
				line = spread(name, "ns_per_op") spread(name, "bytes_per_op") spread(name, "allocs_per_op")
				if (n[name SUBSEP "heap_bytes_per_10k_hosts"] > 0) line = line spread(name, "heap_bytes_per_10k_hosts")
				if (bt != "") line = line sprintf(", \"benchtime\": \"%s\"", bt)
				printf "  { \"name\": \"%s\", \"runs\": %d%s },\n", name, runs[name], line
			}
		}'
}

case "$SUITE" in
classify)
	COMMENT="classification-core hot paths (DESIGN.md §12)"
	out=$(
		run ./internal/blockpage/ '^BenchmarkClassifyChain$'
		run ./internal/scanner/ '^BenchmarkIndexSearch$'
		run ./internal/fingerprint/ '^BenchmarkFingerprintIdentify$'
		run ./internal/fingerprint/ '^BenchmarkExtractTitle$'
	)
	;;
mechanisms)
	COMMENT="per-probe mechanism costs: codecs, signature matching, netsim probe round trips (DESIGN.md §13)"
	out=$(
		run ./internal/mechanism/ '^BenchmarkMechanismProbes$'
		run ./internal/measurement/ '^BenchmarkMechanismProbes$'
	)
	;;
monitor)
	COMMENT="continuous-measurement loop: scheduler tick, watch fanout, pooled vs dial-per-request list measurement (DESIGN.md §14)"
	out=$(
		run ./internal/monitor/ '^BenchmarkMonitorTick$'
		run ./internal/monitor/ '^BenchmarkWatchFanout$'
		run ./internal/measurement/ '^BenchmarkListReuse$'
	)
	;;
cluster)
	COMMENT="distributed scan-out: mechanism survey via coordinator + 1/2/4 single-thread workers; speedup tracks available cores (DESIGN.md §15)"
	out=$(
		run ./internal/cluster/ '^BenchmarkClusterFanout$'
	)
	;;
world)
	COMMENT="scale realm: cold vs warm synthetic dial, heap per 10k probed hosts, full city identify scan realm (lazy) vs reference build (DESIGN.md §16), nation identify pass at GOMAXPROCS 1 and 2 (DESIGN.md §7)"
	out=$(
		run ./internal/world/ '^BenchmarkScaleColdDial$' 20000x
		run ./internal/world/ '^BenchmarkScaleWarmDial$' 20000x
		run ./internal/world/ '^BenchmarkScaleMemoryPer10kHosts$'
		run ./internal/world/ '^BenchmarkScaleFullScan$'
		run ./internal/world/ '^BenchmarkScaleNationScan$'
	)
	;;
*)
	echo "bench_json.sh: unknown suite \"$SUITE\" (classify, mechanisms, monitor, cluster, world)" >&2
	exit 2
	;;
esac
if [ -z "$out" ]; then
	echo "bench_json.sh: no benchmark output captured" >&2
	exit 1
fi

printf '{\n"comment": "%s",\n"benchtime": "%s",\n"count": %s,\n"nproc": %s,\n"gomaxprocs": %s,\n"benchmarks": [\n%s\n]\n}\n' \
	"$COMMENT" "$BENCHTIME" "$COUNT" "$NPROC" "$GOMAXPROCS" "$(printf '%s' "$out" | sed '$ s/,$//')"
