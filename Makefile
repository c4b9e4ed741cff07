# Tier-1: the gate every change must pass (see ROADMAP.md).
.PHONY: test
test:
	go build ./... && go test ./...

# Tier-2: static analysis plus the full suite under the race detector.
# The engine-backed pipelines run every stage through a shared worker
# pool, so -race is load-bearing here, not ceremonial.
.PHONY: race
race:
	go vet ./... && go test -race ./...

# Regenerate the paper's tables/figures and compare against the golden
# files (also covered by `make test` via golden_test.go).
.PHONY: golden
golden:
	go test -run TestGolden -count=1 .

# The longitudinal end-to-end check: identify at two virtual times with
# injected churn, persist through the snapshot store, and pin the fmhist
# diff rendering (and fmserve's GET /v1/diff agreement) to its golden;
# then pin every snapshot kind's diff JSON, diff text, monitor summary
# and timeline over a hand-built pair to testdata/diff_kinds.golden.
.PHONY: hist-golden
hist-golden:
	go test -run 'TestGoldenHistDiff|TestGoldenDiffKinds' -count=1 .

# The discovery end-to-end check: the multi-round crawl must find novel
# blocked URLs deterministically and match testdata/discovery.golden
# byte-for-byte. Regenerate the golden after an intentional change with
# `go run ./cmd/fmdiscover > testdata/discovery.golden`.
.PHONY: discover-golden
discover-golden:
	go test -run 'TestGoldenDiscovery|TestDiscoverEndpointMatchesCLIDocument' -count=1 .

# The chaos determinism check: a full fmrepro run under the seeded
# fault-injection plan must complete with explicitly degraded results
# and be byte-identical at any worker count — clustered (shard fan-out)
# included, pinned to its own testdata/chaos_cluster.golden. Regenerate
# the single-process golden after an intentional change with
# `go run ./cmd/fmrepro -chaos 42 -only figure1,table3,table4 > testdata/chaos.golden`
# and the cluster golden with
# `UPDATE_GOLDEN=1 go test -run TestGoldenClusterChaos -count=1 .`.
.PHONY: chaos-golden
chaos-golden:
	go test -race -run 'TestChaos|TestGoldenClusterChaos' -count=1 .

# The mechanism-survey determinism check: the seeded multi-mechanism
# world (DNS poisoning, RST injection, SNI filtering) must attribute a
# product and mechanism to every censoring ISP, byte-identically at any
# worker count. Regenerate the golden after an intentional change with
# `go run ./cmd/fmrepro -only mechanisms > testdata/mechanisms.golden`.
.PHONY: mech-golden
mech-golden:
	go test -run 'TestGoldenMechanisms' -count=1 .

# The continuous-measurement determinism check: a seeded 4-tick monitor
# run (churn + re-scans) must match testdata/monitor.golden byte-for-byte
# at 1 and 8 workers under the race detector, and fmserve's /v1/watch
# stream must replay missed events across a mid-stream reconnect.
# Regenerate the golden after an intentional change with
# `UPDATE_GOLDEN=1 go test -run TestGoldenMonitor -count=1 .`.
.PHONY: monitor-golden
monitor-golden:
	go test -race -run 'TestGoldenMonitor|TestWatchSSEResume|TestWatchInvalidatesCache' -count=1 .

# The distributed scan-out determinism check: identify,
# characterization, mechanisms and discovery documents from a
# coordinator with four remote HTTP workers must be byte-identical to
# the standalone server's, with worker-crash lease expiry +
# reassignment, graceful drain, and replication-log followers exercised
# under the race detector (DESIGN.md §15). Every kind's fragment must
# merge the same through its wire form, and a fragment of another
# kind's shape must fail its shard's attempt: the job fails once every
# attempt did, and a good fragment from another worker still finishes it.
.PHONY: cluster-golden
cluster-golden:
	go test -race -run 'TestGoldenClusterScanOut|TestClusterWorker|TestClusterReplication' -count=1 .
	go test -race -run 'TestClusterByteIdentity' -count=1 ./internal/server/
	go test -race -count=1 -run 'TestMergePerPieceEqualsWhole|TestToyKindIsOneFile' ./internal/plan/
	go test -race -count=1 -run 'TestResultRejectsMisshapenFragments|TestResultRetriesMisshapenFragment' ./internal/cluster/

# The world-scaling determinism check (DESIGN.md §16): the synthetic
# population the scale realm answers must be byte-identical to the
# test-only reference build for every artifact at any worker count and
# access order, the default profile must reproduce every committed
# golden, and identification must match the ground truth at city scale.
# The second run, without -race, holds the nation ground-truth oracle
# and the dial-every-address memory guard (shadow memory would drown
# the heap ceiling, and nation identify is slow under -race).
.PHONY: world-golden
world-golden:
	go test -race -run 'TestScale|TestRealm|TestServeDirectDispatch' -count=1 . ./internal/world/ ./internal/netsim/
	go test -run 'TestScaleNationLazyMemoryCeiling|TestScaleIdentifyGroundTruth' -count=1 ./internal/world/

# The world-scaling benchmarks (DESIGN.md §16) as JSON: a dial into a
# never-touched synthetic ISP vs one already dialed, live heap per 10k
# probed hosts, the full city identify scan over the realm vs the
# reference build at 1/8 workers, and a nation identify pass at
# GOMAXPROCS 1 and 2 (DESIGN.md §7). Compare against the committed
# BENCH_world.json.
.PHONY: bench-world
bench-world:
	./scripts/bench_json.sh 10x world

# Short deterministic fuzzing of every wire-facing parser: each target
# runs its seed corpus plus a few seconds of mutation. A real fuzzing
# session replaces -fuzztime with minutes or hours.
FUZZTIME ?= 5s
.PHONY: fuzz-smoke
fuzz-smoke:
	go test -run xxx -fuzz FuzzReadRequest -fuzztime $(FUZZTIME) ./internal/httpwire/
	go test -run xxx -fuzz FuzzReadResponse -fuzztime $(FUZZTIME) ./internal/httpwire/
	go test -run xxx -fuzz FuzzClassifyResponse -fuzztime $(FUZZTIME) ./internal/blockpage/
	go test -run xxx -fuzz FuzzExtractTitle -fuzztime $(FUZZTIME) ./internal/fingerprint/
	go test -run xxx -fuzz FuzzParseDNSMessage -fuzztime $(FUZZTIME) ./internal/mechanism/
	go test -run xxx -fuzz FuzzParseClientHello -fuzztime $(FUZZTIME) ./internal/mechanism/

# Fail the build when any package (examples excluded) ships without a
# _test.go file.
.PHONY: test-gate
test-gate:
	./scripts/check_tests.sh

# The evaluation benchmarks, including the serial-vs-parallel
# identification scaling run.
.PHONY: bench
bench:
	go test -run xxx -bench . -benchtime 3x .

# Run the HTTP service (see DESIGN.md §8 and README "Running as a
# service" for the endpoint tour).
.PHONY: serve
serve:
	go run ./cmd/fmserve -addr :8080

# The service-layer benchmarks: the cached /v1/identify hot path through
# the full HTTP stack, and the miss path (search, validation on the
# replica, whois/geo) through Server.ServeHTTP.
.PHONY: bench-serve
bench-serve:
	go test -run xxx -bench 'BenchmarkServeCachedIdentify|BenchmarkServeIdentifyMiss' ./internal/server/

# The classification-core headline benchmarks (DESIGN.md §12) as JSON.
# Compare against the committed BENCH_classify.json "after" block; the
# allocation budgets themselves are enforced by `make alloc-gate`.
.PHONY: bench-classify
bench-classify:
	./scripts/bench_json.sh

# The mechanism-probe benchmarks (DESIGN.md §13) as JSON: DNS/TLS codec
# costs, quirk signature matching, and the netsim-backed RST/DNS probe
# round trips. Compare against the committed BENCH_mechanisms.json.
.PHONY: bench-mechanisms
bench-mechanisms:
	./scripts/bench_json.sh 20x mechanisms

# The continuous-measurement benchmarks (DESIGN.md §14) as JSON: one
# scheduler tick, watch-broker fanout, and pooled vs dial-per-request
# list measurement. Compare against the committed BENCH_monitor.json.
.PHONY: bench-monitor
bench-monitor:
	./scripts/bench_json.sh 20x monitor

# The cluster fan-out benchmarks (DESIGN.md §15) as JSON: the mechanism
# survey through coordinator + 1/2/4 local workers, showing the shard
# fan-out speedup. Compare against the committed BENCH_cluster.json.
.PHONY: bench-cluster
bench-cluster:
	./scripts/bench_json.sh 10x cluster

# Fail when a pinned hot path (SearchBytes, ExtractTitleBytes, the
# match detectors, the engine's per-item dispatch, the head-only
# response read, a scanner probe of a closed port, a refused DialProbe)
# allocates in steady state, or a path exceeds its allocation budget: a
# scanner probe of a canned banner (at most one), a dial answered by a
# netsim.Response (one, the cannedConn), Network.Addrs over a realm
# (three: the realm's list, the registered addresses and the result) or
# ClassifyResponse (none on a miss, at most one on a hit, the Category
# string).
.PHONY: alloc-gate
alloc-gate:
	go test -run 'TestZeroAlloc|TestAllocs' -count=1 ./internal/match/ ./internal/blockpage/ ./internal/scanner/ ./internal/fingerprint/ ./internal/engine/ ./internal/httpwire/ ./internal/netsim/

# The benchmark harness is its own module (bench/go.mod, replacing
# filtermap with ../) that compiles against internal packages, so the
# root `go build ./...` cannot see a break there. Build, vet and test it
# on its own.
.PHONY: bench-module
bench-module:
	cd bench && go vet ./... && go test ./...

# Keep deleted APIs deleted: fail when a non-test .go file outside the
# benchmark module carries a "// Deprecated:" marker. Delete the API
# instead; the goldens pin the behaviour that stays.
.PHONY: deprecated-gate
deprecated-gate:
	@if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build '// Deprecated:' .; then \
		echo "deprecated-gate: delete the API instead of deprecating it" >&2; exit 1; \
	fi

# Fail when a package-level identifier or method under internal/ (or an
# unexported one in a main package) is reached by no non-test file of
# this module or of bench/, or when a struct field under internal/ is
# never read by one, or is exported and never written by one (the
# field rule and its exemptions: DESIGN.md §11); the root unused_test.go
# holds the checker, its fixture test and the allowlist of test seams
# and test-only fields. Delete what it lists.
.PHONY: unused-gate
unused-gate:
	go test -run 'TestNoUnreachedAPI|TestUnreachedAPIFixture' -count=1 .

# Fail when any Go file outside the benchmark build cache is not
# gofmt-formatted; `gofmt -w` on the listed files fixes it.
.PHONY: fmt-gate
fmt-gate:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then \
		echo "$$out"; echo "fmt-gate: gofmt -w the files above" >&2; exit 1; \
	fi

.PHONY: ci
ci: test-gate deprecated-gate fmt-gate unused-gate test race chaos-golden monitor-golden cluster-golden world-golden bench-module
