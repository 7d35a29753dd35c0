GO ?= go

.PHONY: all build vet test test-race fuzz-smoke bench bench-build bench-smoke fault-smoke cache-smoke chaos-smoke serve-smoke persist-smoke adapter-smoke fleet-smoke paperbench check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The runtime and source wrappers are concurrent; the race detector is
# part of the tier-1 bar, not an optional extra.
test-race:
	$(GO) test -race ./internal/sources/ ./internal/engine/ ./internal/containment/ ./internal/qcache/ ./internal/server/ .

# A few seconds of the evaluator's hash table against a map[string]int,
# from the committed seed corpus (internal/engine/testdata/fuzz): every
# memo lookup, join probe, binding dedup and head row goes through it.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzIDTable$$' -fuzztime=3s ./internal/engine/

bench:
	$(GO) test -bench=. -benchmem .

# bench/ is its own module (BENCHMARK.json builds it from the checkout),
# so `go build ./...` does not compile it: vet and build it here, or a
# facade rename breaks the repo benchmark without any test noticing.
bench-build:
	$(GO) -C bench vet . && $(GO) -C bench build -o /dev/null .

# One pass over the runtime-heavy benchmarks (E19 dedup ablation, the
# E20 streaming pipeline, E21 degradation, E22 query cache, E23 hedged
# requests; then E25, columnar evaluation against the map-based oracle
# it lives beside): runs each once, which also exercises their built-in
# acceptance assertions. Then the package microbenchmarks of the answer
# hand-off (row keys, Sorted fresh and frozen, a full answer hit, the
# wire flattening), of a plan miss (minimization, canonical key, one
# containment test, a whole plan build, an answer-tier miss beside 16
# and 1024 entries) and of the join (a call's join side by probe-key
# width and result size, idTable insert/find by width, an interner
# lookup), once each, so they keep compiling and running.
bench-smoke:
	$(GO) test -run='^$$' -bench='E19|E20|E21|E22|E23' -benchtime=1x .
	$(GO) test -run='^$$' -bench='E25Columnar|RowKey|RelSorted|BuildJoin|IDTable|InternLookup' -benchtime=1x ./internal/engine/
	$(GO) test -run='^$$' -bench='AnswersFullHit|AnswersMiss|PlanMiss' -benchtime=1x ./internal/qcache/
	$(GO) test -run='^$$' -bench='WireRows' -benchtime=1x ./internal/server/
	$(GO) test -run='^$$' -bench='BenchmarkCQ' -benchtime=1x ./internal/minimize/
	$(GO) test -run='^$$' -bench='CanonicalKey|ContainedCQ' -benchtime=1x ./internal/containment/

# Fault-injection smoke: the paper examples' underestimates with one
# source killed per run must degrade (partial answers + incompleteness
# report), never crash; run under -race since degradation exercises the
# per-rule teardown paths — on both step schedules, which the
# schedule-agreement table holds to the oracle with a source killed.
fault-smoke:
	$(GO) test -race -count=1 -run='TestFaultSmoke|TestExecPartial|TestStreamPartial|TestEvalPartial|TestSchedulesAgree|TestAnswerStarAgrees|TestShortTuple' . ./internal/engine/

# Semantic-cache smoke: every paper example executed twice through one
# shared query cache — the second (and a streamed third) pass must issue
# zero source calls and return byte-identical rows; under -race because
# the cache is shared across concurrent Exec callers in production.
cache-smoke:
	$(GO) test -race -count=1 -run='TestCacheSmoke|TestCacheConcurrentExec|TestExecQueryCacheProfile' .

# Chaos-schedule smoke: seeded randomized fault schedules (dropped and
# hung calls, injected latency, breakers, replica kills) over every
# paper example, plus the replica/hedging facade suite; answers must
# stay sound underestimates with no crashes, hangs, or goroutine leaks.
# Under -race because hedged legs race across replicas by design.
chaos-smoke:
	$(GO) test -race -count=1 -run='TestChaosSmoke|TestExecReplicas|TestHedge' . ./internal/engine/

# Serving smoke: boot the multi-tenant daemon in-process, hammer it with
# the closed-loop load generator under an overload-provoking config
# (delayed sources, two slots), and require a sound, schema-valid
# report plus a clean shutdown. ucqnload validates the report in memory
# and exits non-zero on any unsound answer, transport error, or dirty
# shutdown; -out '' keeps it from rewriting the committed BENCH_E24.json
# with this machine's numbers.
serve-smoke:
	$(GO) run ./cmd/ucqnload -boot -users 8 -duration 2s -quota 50 \
		-delay 1ms -concurrency 2 -queue 4 -queue-wait 5ms -out ''

# Persistence smoke: the crash-safe answer cache under fire — the
# crash-recovery property suite (random kill offsets and bit flips
# through the full Exec path, recovery must never fail and never serve
# a wrong row), the chaos crash/reopen cycles (rotating fault regimes,
# no goroutine or fd leaks), the faultfs-backed persist unit tests, and
# the E26 warm-restart harness end to end. Under -race because the
# spill path runs outside the cache lock by design.
persist-smoke:
	$(GO) test -race -count=1 -run='TestPersistCrashRecoveryExec|TestChaosPersistCrashReopenCycles' .
	$(GO) test -race -count=1 ./internal/qcache/persist/
	$(GO) test -race -count=1 -run='TestRunWarmRestart|TestValidateBenchReport' ./internal/server/

# External-adapter smoke: the SQL and HTTP adapters over the in-repo
# fakedb driver and httptest backends — the fault matrix (injected
# latency, failed statements, 5xx/429/connection-refused, malformed
# responses, open breakers), the batched-pushdown engine path, the
# interner-cap hammer, and the adapter differential suite (every
# adapter answer-equivalent to the in-memory relation it mirrors).
# Under -race because batch demux and HTTP coalescing are concurrent by
# design.
adapter-smoke:
	$(GO) test -race -count=1 ./internal/adapter/...
	$(GO) test -race -count=1 -run='TestRuntimeBatch|TestInternerCap' ./internal/engine/
	$(GO) test -race -count=1 -run='TestAdapterDifferentialEquivalence|TestAdapterBatchedJoinEquivalence' .
	$(GO) test -race -count=1 -run='TestRunBatchPushdown|TestMountCatalogConfig|TestValidateBenchReportE27' ./internal/server/

# Fleet smoke: the shared-cache fleet under fire — the kill-the-writer
# chaos suite (seeded crash/takeover/resurrection rounds on a virtual
# clock: takeover within TTL + one poll, a fenced writer's late write
# never leaks, acked entries always survive, no goroutine or fd leaks),
# the lease/follower/inbox property tests including the
# compaction-vs-follower seqlock interleavings, and the two-replica
# server E2E (warm start off a sibling, fleet-wide invalidation, E28
# harness). Under -race because replicas share one directory by design.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/qcache/fleet/
	$(GO) test -race -count=1 -run='TestLease|TestFollower|TestInbox|TestReadInboxes' ./internal/qcache/persist/
	$(GO) test -race -count=1 -run='TestServerFleet|TestRunFleetShare|TestServerHealthzDegraded|TestLoadGenInvalidationMix' ./internal/server/

paperbench:
	$(GO) run ./cmd/paperbench -quick

check: build vet bench-build test test-race fuzz-smoke persist-smoke adapter-smoke fleet-smoke
