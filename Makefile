# Developer entry points. `make verify` runs exactly what CI runs
# (.github/workflows/ci.yml), so a green local verify means a green PR.

GO ?= go

.PHONY: build vet lint test race fuzz bench bench-gate bench-validate chaos obs-smoke serve-smoke examples-smoke scale-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project's own determinism/concurrency analyzers (internal/lint):
# norand, nowallclock, floateq, senderr, maporder, hotalloc, lockscope,
# gorolife (see DESIGN.md §12 for the catalog).
lint:
	$(GO) run ./cmd/p2plint ./...

test:
	$(GO) test ./...

# The layers with real goroutines: sockets (netpeer), the loop core
# they drive (dprcore), the transport fabric, the simulator
# (compute-phase batching), the worker pool, and everything the
# parallel kernels touch — the index builds (search, serve) and by-page
# hashing (partition) included.
race:
	$(GO) test -race ./internal/netpeer/... ./internal/dprcore/... ./internal/transport/... \
		./internal/simnet/... ./internal/vecmath/... ./internal/pagerank/... \
		./internal/engine/... ./internal/par/... ./internal/telemetry/... \
		./internal/search/... ./internal/serve/... ./internal/partition/...

# The places bytes enter from outside — /search parameter parsing, the
# -fault and -reliable specs (parsed, then Validate, every float
# finite, every time the spec's milliseconds × 10⁶ ns, -reliable
# refusing every key but timeout), a peer's socket (frame reader → codec.Plain → a reliable
# peer's delivery, relay and acks in both transmission modes → one
# compute phase), a checkpoint file (Loop.Restore held to DecodeSnapshotRanks),
# and a crawl file in either format (binary: open, Validate, every
# accessor, rewrite; text: parse, Validate, rewrite) —
# the CSR storage layout against its row-major reference, every
# ranker's group layout (pages, degrees, efferent entries, offsets, merged
# counts, afferent transpose) against a counting-map recount on random
# crawls, strategies and ring sizes, Pastry
# routing over ID sets that share long prefixes (deep table rows hashed
# IDs never fill, every member pair's next hop against a reference copy
# of the routing rule, each table's row structure, and the XOR prefix
# length against a bit-by-bit reference), the
# response cache's slab against an unbounded map, and the serve tier's
# plan and scan (shard bitmaps, page signatures, the ceiling skip under
# tied, heavy-tailed and per-shard-constant scores) against the static
# index on random small tiers, its degraded path (healthy, slow and
# unreachable shards, replicas whose ceiling differs from the primary's)
# field by field against a reference that scans every shard, the Zipf
# sampler's guided search
# against a search of the whole CDF, and the event queue's execution
# order (schedules made from inside firing events: plain events, in- and
# out-of-order deliveries, timer re-arms, ties, cut two-phase batches)
# against a sort of everything scheduled, each over its seed corpus and whatever
# ten seconds of mutation reach (go test takes one -fuzz target per
# run). The CSR, cache, plan, degraded, group and Pastry targets cap minimization: shrinking each
# new-coverage input for the default minute would leave the pass a few
# thousand inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzQueryCache -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzFrontendPlan -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzFrontendDegraded -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzParseFault -fuzztime 10s ./internal/cliflags/
	$(GO) test -run '^$$' -fuzz FuzzParseReliable -fuzztime 10s ./internal/cliflags/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/netpeer/
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime 10s ./internal/dprcore/
	$(GO) test -run '^$$' -fuzz FuzzOpenGraph -fuzztime 10s ./internal/webgraph/
	$(GO) test -run '^$$' -fuzz FuzzReadText -fuzztime 10s ./internal/webgraph/
	$(GO) test -run '^$$' -fuzz FuzzCSRKernels -fuzztime 10s -fuzzminimizetime 1s ./internal/vecmath/
	$(GO) test -run '^$$' -fuzz FuzzPastryRoutes -fuzztime 10s -fuzzminimizetime 1s ./internal/pastry/
	$(GO) test -run '^$$' -fuzz FuzzBuildGroups -fuzztime 10s -fuzzminimizetime 1s ./internal/dprcore/
	$(GO) test -run '^$$' -fuzz FuzzZipfSample -fuzztime 10s ./internal/xrand/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerOrder -fuzztime 10s ./internal/simnet/

# Failure-path suite under the race detector: one crash/restart churn
# schedule run by both drivers (and refused the same way by both when
# bad), the served-staleness bound (2·Every−1) held across it through
# the checkpoint seam in both drivers, the live cluster closing while a
# restart is due, warm restarts (§4.2's suspend) in both drivers,
# checkpointed recovery, the engine refusing non-finite times, the
# reliable ack/retry/backoff layer, and the partition/straggler fault
# lattice (see DESIGN.md §11 and §17) —
# plus the end-to-end serve-under-partition smoke (dprnode -serve
# through a healing cut), the start/close-under-load loop that pins the
# netpeer accept/close race, and the hostile-chunk, hostile-relay and
# hostile-ack peer tests.
chaos:
	$(GO) test -race -count=1 -run 'Churn|Warm|KillRestart|NonFinite|Snapshot|Checkpoint|Reliable|Partition|Straggler|CloseUnderLoad|Hostile' \
		./internal/dprcore/... ./internal/engine/... ./internal/netpeer/... ./internal/serve/
	$(GO) test -run TestServeChaosPartitionDprnode -v ./internal/clitest/

# End-to-end observability check: boot a 3-ranker dprnode cluster with
# -obs, scrape /metrics while it runs, and require the round counters
# to advance between scrapes (internal/clitest).
obs-smoke:
	$(GO) test -run TestDprnodeObsSmoke -v ./internal/clitest/

# End-to-end serving check: dprnode -demo with the query tier and load
# generator on (HTTP /search + query metrics on /metrics; a short run's
# answered queries and served-staleness high-water mark), and the
# dprsim serving sweep at a toy scale (internal/clitest).
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./internal/clitest/

# The examples run end to end: quickstart (README's first example:
# generate, rank centrally and distributedly, compare), searchdemo
# (engine.Run's deployment feeding the query tier), tcpcluster (live
# peers, one killed mid-run), and educrawl and transports (experiments
# run through the registry), each required to exit 0 and print its
# result line (internal/clitest).
examples-smoke:
	$(GO) test -count=1 -run TestExamplesRun -v ./internal/clitest/

# Re-record the perf-ratchet baseline: the gated kernel + transmission
# benchmarks with allocation counts, as diffable JSON in
# BENCH_kernels.json. The suite (its -bench pattern and package list)
# is defined once, in cmd/benchgate.
bench:
	$(GO) run ./cmd/benchgate -write
	@cat BENCH_kernels.json

# One decade of the paper-scale experiment (N=10⁴ rankers, bounded
# virtual-time horizon) end to end: the event queue's delivery lane,
# batched delivery, and the §4.4–4.5 model-vs-telemetry validation. Takes a
# minute or two; CI runs it as a non-blocking job. The full measured
# curve (10³–10⁵) is `go run ./cmd/dprsim -exp scale`.
scale-smoke:
	P2PRANK_SCALE=1 $(GO) test -run TestScaleSmoke -v -timeout 20m ./internal/experiments/

# Perf ratchet: re-run the gated kernels and fail on any allocs/op
# increase (or vanished kernel) against the committed baseline. Times
# are judged end to end by the repo benchmark (BENCHMARK.json), not
# here.
bench-gate:
	$(GO) run ./cmd/benchgate

# API drift against the repo benchmark fails here, not in the driver:
# bench/ is its own module compiled against this tree's packages, so
# this builds it and checks BENCHMARK.json against what the harness
# computes, running no workload.
bench-validate:
	bash bench/run.sh -validate

verify: build vet lint test race fuzz chaos obs-smoke serve-smoke examples-smoke bench-gate bench-validate
	@echo "verify: all checks passed"
