GO ?= go

.PHONY: all build vet test test-race fuzz-smoke bench bench-build bench-smoke fault-smoke cache-smoke chaos-smoke serve-smoke persist-smoke adapter-smoke fleet-smoke paperbench check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The runtime and source wrappers are concurrent, and so are the
# server and the load generator's clients; the race detector is part of
# the tier-1 bar, not an optional extra.
test-race:
	$(GO) test -race ./internal/access/ ./internal/sources/ ./internal/engine/ ./internal/containment/ ./internal/qcache/ ./internal/server/ ./cmd/ucqnload/ .

# A few seconds of the evaluator's hash table against a map[string]int,
# from the committed seed corpus (internal/engine/testdata/fuzz): every
# memo lookup, join probe, binding dedup and head row goes through it.
# Then a few seconds of Rel.Sorted's keyless comparison against the
# order of the rows' keys, from its own seed corpus there, of the
# compiled containment checker against the map-based reference search
# (internal/containment/testdata/fuzz), of the /v1/query response
# encoder against encoding/json (internal/server/testdata/fuzz), of the
# persist record decoder against its encoder
# (internal/qcache/persist/testdata/fuzz), of the query parser (a text it
# accepts reparses from its printing, and appending to one parsed atom
# or rule leaves the others as they were), and of the hand-written
# request decoder against encoding/json's Decoder (same status, same
# fields).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzIDTable$$' -fuzztime=3s ./internal/engine/
	$(GO) test -run='^$$' -fuzz='^FuzzSortedOrder$$' -fuzztime=3s ./internal/engine/
	$(GO) test -run='^$$' -fuzz='^FuzzCheckerAgreesWithOracle$$' -fuzztime=3s ./internal/containment/
	$(GO) test -run='^$$' -fuzz='^FuzzWireCodecAgreesWithStdlib$$' -fuzztime=3s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRecord$$' -fuzztime=3s ./internal/qcache/persist/
	$(GO) test -run='^$$' -fuzz='^FuzzParseUCQ$$' -fuzztime=3s ./internal/parser/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRequestAgreesWithStdlib$$' -fuzztime=3s ./internal/server/

bench:
	$(GO) test -run='^$$' -bench=. -benchmem . ./cmd/paperbench/

# bench/ is its own module (BENCHMARK.json builds it from the checkout),
# so `go build ./...` does not compile it: vet and build it here, or a
# facade rename breaks the repo benchmark without any test noticing.
bench-build:
	$(GO) -C bench vet . && $(GO) -C bench build -o /dev/null .

# One pass over the runtime-heavy paper benchmarks (BenchmarkPaper in
# cmd/paperbench: E19 dedup ablation, the E20 streaming pipeline, E21
# degradation, E22 query cache, E23 hedged requests; each first runs its
# experiment's table once and asserts its count check and timing claim;
# then E25, columnar evaluation against the map-based oracle it lives
# beside). Then the package microbenchmarks of the answer hand-off (row
# keys, Sorted fresh and frozen, a batch's head rows, a three-rule
# union as the sink takes it over and as a full hit assembles it, a
# full answer hit, the wire flattening, the response encode beside
# encoding/json's), of a plan miss (minimization, canonical key, one
# containment test, a whole plan build, an answer-tier miss beside 16
# and 1024 entries), of the join (an answer's join side by probe-key
# width, result size and carrying or deduplicating step, built on its
# own, built from a held answer's columns or reused finished,
# idTable insert/find by width, a lookup in a catalog's interner), of a
# source call's bookkeeping (a short-answer step at 16 and 256 calls, a
# 256-vector SQL statement), of the persist log (one append, a
# recovery) and of a request's front end (a parse, a plan fast-key hit),
# once each, so they keep compiling and running. The answer-assembly,
# response-encode, plan-miss, call-bookkeeping and front-end lines add
# -benchmem, so the log shows their allocs/op.
bench-smoke:
	$(GO) test -run='^$$' -bench='Paper/E(19|20|21|22|23)' -benchtime=1x ./cmd/paperbench/
	$(GO) test -run='^$$' -bench='E25Columnar|BuildJoin|IDTable|InternLookup' -benchtime=1x ./internal/engine/
	$(GO) test -run='^$$' -bench='RowKey|RelSorted|HeadRows|RelUnion|BatchedStep' -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run='^$$' -bench='SQLCall' -benchtime=1x -benchmem ./internal/adapter/
	$(GO) test -run='^$$' -bench='AnswersFullHit|AnswersMiss|PlanMiss' -benchtime=1x -benchmem ./internal/qcache/
	$(GO) test -run='^$$' -bench='WireRows' -benchtime=1x ./internal/server/
	$(GO) test -run='^$$' -bench='WireCodec' -benchtime=1x -benchmem ./internal/server/
	$(GO) test -run='^$$' -bench='BenchmarkCQ' -benchtime=1x -benchmem ./internal/minimize/
	$(GO) test -run='^$$' -bench='CanonicalKey|ContainedCQ' -benchtime=1x -benchmem ./internal/containment/
	$(GO) test -run='^$$' -bench='TableScan' -benchtime=1x ./internal/sources/
	$(GO) test -run='^$$' -bench='LogAppend|LogOpen' -benchtime=1x ./internal/qcache/persist/
	$(GO) test -run='^$$' -bench='ParseUCQ' -benchtime=1x -benchmem ./internal/parser/
	$(GO) test -run='^$$' -bench='PlanFastHit' -benchtime=1x -benchmem ./internal/qcache/

# Fault-injection smoke: the paper examples' underestimates with one
# source killed per run must degrade (partial answers + incompleteness
# report), never crash; run under -race since degradation exercises the
# per-rule teardown paths — on both step schedules, which the
# schedule-agreement table holds to the oracle with a source killed —
# plus held answers and their held joins shared by parallel rules and
# executions, racing to build one join per step shape, across an
# invalidation, across an interner rollover that a running execution
# outlives, and at the table's bound; a plan's prepared rule programs
# shared by parallel executions and recompiled across a rollover and a
# generation bump; domain enumeration, whose rounds run on the
# driver, its retries and its rule teardown; a stream's report, built
# on the driver goroutine and read by the consumer; and the execution's
# call table, one call shared by parallel rules and streamed stages,
# failing every rule that reads it, keyed by relation, pattern and
# inputs, and bounded by the call budget; and executions of every kind
# running at once on scratch that earlier executions recycled.
fault-smoke:
	$(GO) test -race -count=1 -run='TestFaultSmoke|TestExecPartial|TestStreamPartial|TestEvalPartial|TestSchedulesAgree|TestAnswerStarAgrees|TestShortTuple|TestHeldAnswer|TestHeldJoin|TestPrepared|TestEnumerateDomain|TestExample8|TestStreamReportAfterNext|TestCallTable|TestRecycledScratch' . ./internal/engine/

# Semantic-cache smoke: every paper example executed twice through one
# shared query cache — the second (and a streamed third) pass must issue
# zero source calls and return byte-identical rows; under -race because
# the cache is shared across concurrent Exec callers in production. Then
# the safe-negation idioms in their unanswerable form, cached (miss and
# hit) against uncached and over HTTP: the same certified underestimate,
# the dismissed disjunct reported access-limited. Then the one planner:
# uncached and cached runs of drawn unions make the same calls, and a
# 20 000-disjunct union plans within the plan miss's budget. Then a
# repeated access-limited query — Example 4's union, a server query,
# and the same after a restart on a persistence log — answers from the
# cache with no source call, and a CachedCatalog's call caches forget
# rows fetched before an invalidation.
cache-smoke:
	$(GO) test -race -count=1 -run='TestCacheSmoke|TestCacheConcurrentExec|TestExecQueryCacheProfile|TestNegationIdiom|TestOnePlannerAcrossPaths|TestMinimizedUnionCallsOnEveryPath|TestAccessLimitedHitMakesNoCalls|TestPersistAccessLimitedAnswers|TestCachedCatalogForgetsEarlierGenerations|TestFeasibleDismissedUnionAnsweredExactly' .
	$(GO) test -race -count=1 -run='TestServerWideUnionPlansWithinBudget|TestServerInfeasibleHitMakesNoCalls' ./internal/server/

# Chaos-schedule smoke: seeded randomized fault schedules (dropped and
# hung calls, injected latency, breakers, replica kills) over every
# paper example, plus the replica/hedging facade suite; answers must
# stay sound underestimates with no crashes, hangs, or goroutine leaks.
# Under -race because hedged legs race across replicas by design.
chaos-smoke:
	$(GO) test -race -count=1 -run='TestChaosSmoke|TestExecReplicas|TestHedge' . ./internal/engine/

# Serving smoke: boot the multi-tenant daemon in-process, hammer it with
# the closed-loop load generator under an overload-provoking config
# (delayed sources, two slots), and require a sound run plus a clean
# shutdown. ucqnload prints its summary, writes no file, and exits
# non-zero on any unsound answer, transport error, stale generation,
# zero completed requests, or dirty shutdown.
serve-smoke:
	$(GO) run ./cmd/ucqnload -boot -users 8 -duration 2s -quota 50 \
		-delay 1ms -concurrency 2 -queue 4 -queue-wait 5ms

# Persistence smoke: the crash-safe answer cache under fire — the
# crash-recovery property suite (random kill offsets and bit flips
# through the full Exec path, recovery must never fail and never serve
# a wrong row), the chaos crash/reopen cycles (rotating fault regimes,
# no goroutine or fd leaks), a clean warm restart served at zero source
# calls, and the faultfs-backed persist unit tests. Under -race because
# the spill path runs outside the cache lock by design.
persist-smoke:
	$(GO) test -race -count=1 -run='TestPersistCrashRecoveryExec|TestChaosPersistCrashReopenCycles|TestPersistWarmRestart' .
	$(GO) test -race -count=1 ./internal/qcache/persist/

# External-adapter smoke: the SQL and HTTP adapters over the in-repo
# fakedb driver and httptest backends — the fault matrix (injected
# latency, failed statements, 5xx/429/connection-refused, malformed
# responses, open breakers), the batched-pushdown engine path, the
# per-catalog interner rollover (materialized, streamed, concurrent
# executions racing it), a step's short answers sharing one join and
# one call slab (held to the oracle, and a call's allocations), the
# adapter differential suite (every adapter answer-equivalent to the
# in-memory relation it mirrors; a 256-binding group is one round
# trip), and a catalog config mounted on the server. Under -race
# because batch demux and HTTP coalescing are concurrent by design.
adapter-smoke:
	$(GO) test -race -count=1 ./internal/adapter/...
	$(GO) test -race -count=1 -run='TestRuntimeBatch|TestInternerRollover|TestStepJoinSharesShortAnswers|TestStepCallAllocs' ./internal/engine/
	$(GO) test -race -count=1 -run='TestAdapterDifferentialEquivalence|TestAdapterBatchedJoinEquivalence' .
	$(GO) test -race -count=1 -run='TestMountCatalogConfig|TestRunBatchPushdown' ./internal/server/

# Fleet smoke: the shared-cache fleet under fire — the kill-the-writer
# chaos suite (seeded crash/takeover/resurrection rounds on a virtual
# clock: takeover within TTL + one poll, a fenced writer's late write
# never leaks, acked entries always survive, no goroutine or fd leaks),
# the lease/follower/inbox property tests including the
# compaction-vs-follower seqlock interleavings, the two-replica server
# E2E (warm start off a sibling, fleet-wide invalidation, E28's exact
# call counts), and the load generator's invalidation mix (no stale
# generation after an ack). Under -race because replicas share one
# directory by design.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/qcache/fleet/
	$(GO) test -race -count=1 -run='TestLease|TestFollower|TestInbox|TestReadInboxes' ./internal/qcache/persist/
	$(GO) test -race -count=1 -run='TestServerFleet|TestServerHealthzDegraded' ./internal/server/
	$(GO) test -race -count=1 -run='TestLoadGenInvalidationMix' ./cmd/ucqnload/

# Every paper experiment at its quick sizes; exits non-zero when an
# experiment's count check fails. Prints only, writes no file.
paperbench:
	$(GO) run ./cmd/paperbench -quick

check: build vet bench-build test test-race fuzz-smoke persist-smoke adapter-smoke fleet-smoke
