# Developer entry points. `make verify` is the tier-1 gate every PR must
# keep green; it includes a -race pass over the parallelized query path
# (internal/search pools its per-query scratch and internal/index its
# accumulators across goroutines), over the serving
# path (middleware stack, graceful shutdown, fault injection), over the
# arena-reusing offline scoring pipeline (internal/prestige workers hand
# pooled citegraph scratch buffers between goroutines), over the sharded
# offline build (internal/corpus and internal/contextset fan per-shard
# construction across workers; internal/pattern's oracle test scores pattern
# contexts on two workers sharing one positional index), and over the sharded serving path
# (internal/shard's range engines and merge, and the server Coordinator).

GO ?= go

.PHONY: verify build test vet race unused-exports bench bench-query bench-prestige bench-build bench-shard bench-store test-no-mmap serve-smoke

verify: vet build unused-exports test race

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# (leaked goroutines, shared ports, package-level caches) can't hide.
# internal/server runs -short, here and under race: its failure-policy
# simulator (policy_sim_test.go), the one proof of the coordinator's failure
# handling, then keeps the one-backend schedules and a sample of the rest,
# under 2 s; CI's cluster-finish job runs all of them.
test:
	$(GO) test -shuffle=on $$($(GO) list ./... | grep -v /internal/server$$)
	$(GO) test -shuffle=on -short ./internal/server/

vet:
	$(GO) vet ./...

# No exported function under internal/ or in ctxsearch.go without a caller
# outside tests, resolved by type (the allow-list, with reasons, is in
# exports_test.go).
unused-exports:
	$(GO) test -run 'TestExportedFunctionsHaveCallers' .

# Every package: a hand-maintained list would silently miss new concurrent
# packages (as it briefly did when internal/shard landed).
race:
	$(GO) test -race -shuffle=on $$($(GO) list ./... | grep -v /internal/server$$)
	$(GO) test -race -shuffle=on -short ./internal/server/

# Black-box smoke test of the serve command: boots the real binary, waits
# for readiness, exercises the HTTP API with curl, and checks that SIGTERM
# produces a graceful exit. Every process boots from one state file built
# up front, and every page must equal an in-process-built server's. Also
# runs a 3-shard cluster phase and a chaos phase (2 ranges x 2 replicas,
# replica killed and restarted mid-traffic with byte-identical pages
# required throughout).
serve-smoke:
	./scripts/serve_smoke.sh

# Full benchmark suite (figures + query path).
bench:
	$(GO) test -bench=. -benchmem ./...

# Just the query-path benchmarks behind BENCH_PR1.json — among them
# BenchmarkEngineSearchFull, the serving benchmark's library_batch workload
# as a micro-benchmark (frozen engine, Limit 0, 800 papers / 160 terms),
# which fails itself above 21 allocs/op — plus the boolean evaluator's term /
# phrase / NOT arms on a state-booted index shape, one first page's snippets
# (BenchmarkSnippetPage, 10 rows at 800 papers / 160 terms through one
# Snippeter as the server renders them, which fails itself above 22
# allocs/op), the result-cache hit path (must stay allocation-free), and the
# served page through the handler chain, cache off, at 800 papers / 160
# terms: 10 rows, the 100-row default and a 2-range finishing exchange, each
# failing itself above its allocs-per-request ceiling (ns/op is a reading).
bench-query:
	$(GO) test -run xxx -bench 'BenchmarkSelectContexts|BenchmarkEngineSearch' -benchmem ./internal/search/
	$(GO) test -run xxx -bench 'BenchmarkIndexSearchVector|BenchmarkSearchQueryBoolean|BenchmarkSnippetPage' -benchmem ./internal/index/
	$(GO) test -run xxx -bench 'BenchmarkCacheHit' -benchmem ./internal/cache/
	$(GO) test -run xxx -bench 'BenchmarkSearchPage10|BenchmarkSearchPage100|BenchmarkShardFinish' -benchmem ./internal/server/

# The offline-build benchmarks behind BENCH_PR4.json, BENCH_PR12.json and
# BENCH_PR26.json: first the ascending-sum kernel under every cosine of the
# build (SumSorted vs slices.Sort at build-like run lengths, and on the
# bucket pass's worst case, which must stay within 2x), then one per stage
# of `build -v`: corpus generation, sharded corpus analysis at 1, 2 and 8
# workers (2 is what a 2-CPU host can show scaling with) and one paper's
# steady-state analysis, whose allocs/op CI gates,
# inverted/positional index construction, the postings-driven text context
# set, text prestige for one context and bulk scoring at >= 1k contexts, and
# the end-to-end system build at 1, 2 and 8 workers
# (BenchmarkSystemBuildWorkers2 is the one a 2-CPU host can show scaling with).
bench-build:
	$(GO) test -run xxx -bench 'BenchmarkSumSorted' -benchmem ./internal/vector/
	$(GO) test -run xxx -bench 'BenchmarkGenerate' -benchmem ./internal/corpus/
	$(GO) test -run xxx -bench 'BenchmarkAnalyzerBuild|BenchmarkAnalyzePaper' -benchmem ./internal/corpus/
	$(GO) test -run xxx -bench 'BenchmarkTextContextSet' -benchmem ./internal/contextset/
	$(GO) test -run xxx -bench 'BenchmarkIndexBuildWorkers' -benchmem ./internal/index/
	$(GO) test -run xxx -bench 'BenchmarkPosIndexBuild' -benchmem ./internal/pattern/
	$(GO) test -run xxx -bench 'BenchmarkTextScoreContext|BenchmarkScore1kContexts' -benchmem ./internal/prestige/
	$(GO) test -run xxx -bench 'BenchmarkSystemBuild' -benchmem .

# The sharded-serving benchmark: the coordinator's k-way merge of the
# ranges' sorted pages (shard.MergePages).
bench-shard:
	$(GO) test -run xxx -bench 'BenchmarkMergePages' -benchmem ./internal/shard/

# The cold-start benchmarks: the zero-copy mmap open of a state file
# (header/table-only) and the full engine-ready bind, and the writer. Page
# sharing across the processes of a cluster is the serving benchmark's
# cluster_page mem_mb.
bench-store:
	$(GO) test -run xxx -bench 'BenchmarkOpen|BenchmarkSave' -benchmem ./internal/store/

# The byte-copy fallback path (mmap unavailable or disabled): the same
# store/search/index/server suites must pass with zero-copy turned off.
test-no-mmap:
	CTXSEARCH_NO_MMAP=1 $(GO) test ./internal/store/ ./internal/index/ ./internal/search/ ./internal/shard/ ./internal/server/ .

# The prestige-pipeline benchmarks behind BENCH_PR3.json: the CSR-matrix
# query merge, matrix lookups, the arena-reusing subgraph+PageRank
# pipeline, and bulk scoring at >= 1k contexts.
bench-prestige:
	$(GO) test -run xxx -bench 'BenchmarkMergeHitsPrestige' -benchmem ./internal/search/
	$(GO) test -run xxx -bench 'BenchmarkPrestigeLookup|BenchmarkScore1kContexts' -benchmem ./internal/prestige/
	$(GO) test -run xxx -bench 'BenchmarkSubgraphPageRankPipeline|BenchmarkSubgraphScratch' -benchmem ./internal/citegraph/
