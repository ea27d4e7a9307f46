# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet vet-metrics vet-imports vet-schema vet-schema-update test race chaos crash slo replay trace wirecompat fuzz-smoke bench bench-smoke bench-delta bench-json bench-regress bench-rebaseline cover figures examples grantd-demo

all: build vet vet-metrics vet-imports vet-schema test

race:
	go test -race ./...

# Fault-injection harness: agents against real TCP servers through a chaos
# proxy (outage -> fail-static -> fail-open -> reconvergence), plus the
# dead-server wedge regression, all under the race detector.
chaos:
	go test -race -count=1 -timeout 180s -v \
		-run 'TestChaosEnforcementSurvivesOutage|TestAgentRunNotWedgedByDeadServer' \
		./internal/integration/
	go test -race -count=1 -timeout 120s ./internal/faults/ ./internal/wire/

# Durability plane: the randomized crash-recovery property (Kill + torn
# journal tail, 50 seeded runs), the WAL decoder corruption suite, the
# overload/queue-timeout admission tests, and the end-to-end SIGKILL drill —
# a real grantd subprocess killed mid-storm must restart on its journal,
# serve pre-kill decisions byte-identically, re-decide in-flight work, and
# leave agents converged. All under the race detector.
crash:
	go test -race -count=1 -timeout 300s \
		-run 'TestCrashRecoveryProperty|TestOverloadShed|TestQueueTimeout|TestWAL|TestReplayWAL|TestJournalCheckpointRotation|TestServiceCleanRestart' \
		./internal/granting/
	go test -race -count=1 -timeout 300s -v \
		-run 'TestGrantdCrashRecoverySockets' ./internal/integration/

build:
	go build ./...

vet:
	go vet ./...

# Metric-name lint: scans every obs.Register* call site in the tree and
# fails unless each metric name matches ^entitlement_[a-z0-9_]+$ and is
# registered exactly once process-wide (duplicate names would also panic at
# init, but the scan catches them without having to link the package).
vet-metrics:
	go vet ./...
	go test -run TestVetMetricNames -count=1 ./internal/obs/

# Stdlib-only lint: scans the import block of every .go file in the module
# and fails if anything imports outside the standard library and this module.
# Guards the repo invariant that builds need no network and no vendoring.
vet-imports:
	go test -run TestVetStdlibImports -count=1 ./internal/obs/

# Schema compatibility gate: re-derives a fingerprint for every wire schema
# from the live Go types and fails if any shape drifted from the committed
# schema/v1/schema.lock without a version bump. Compatible changes
# regenerate the lock with vet-schema-update (the lock diff documents
# exactly what changed on the wire); breaking changes need a new schema
# version. Policy: schema/v1 package doc and DESIGN.md §14.
vet-schema:
	go run ./cmd/schemavet

vet-schema-update:
	go run ./cmd/schemavet -update

test:
	go test ./...

# SLO conformance plane: engine/recorder unit+property tests, then the
# acceptance drill — an injected network incident must breach exactly one
# contract, fire the fast-burn alert exactly once, and burn the error
# budget monotonically, asserted from the report JSON and live /metrics.
slo:
	go test -race -count=1 -timeout 120s ./internal/slo/
	go test -race -count=1 -timeout 120s -run TestSLOConformanceIncident -v ./internal/integration/

# Incident black box: lifecycle/budget/crash-tail unit tests, the capture
# decoder's fuzz seed corpus, the drain-race accounting invariant, and the
# golden end-to-end drill — a recorded incident must replay byte-identically
# through the real engine and the envelope must name the injected root cause.
# All under the race detector.
replay:
	go test -race -count=1 -timeout 180s \
		-run 'TestBlackbox|TestEnvelopeRoundtrip|TestDrainDropAccountingRace|FuzzBlackboxDecode' \
		./internal/slo/
	go test -race -count=1 -timeout 180s -v \
		-run 'TestBlackboxIncidentReplay' ./internal/integration/

bench:
	go test -count=1 -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or panic without paying for a full measurement run.
bench-smoke:
	go test -count=1 -run=NONE -bench=. -benchtime=1x ./...

# Incremental re-assessment gate: one pass of the cold/warm/delta Assess
# benchmarks, then TestDeltaSpeedup — which FAILS if a delta re-assessment
# after a <=10%-of-links mutation is not >= 10x faster than cold (both in
# scenarios re-simulated and p50 wall clock). The bar is asserted by the
# test, never eyeballed from bench output.
bench-delta:
	go test -count=1 -run=NONE -bench='BenchmarkAssess(Cold|Warm|Delta)' -benchtime=1x ./internal/risk/
	go test -count=1 -run 'TestDeltaSpeedup' -v ./internal/risk/

# Distributed tracing spine: the trace package's unit/property/fuzz-seed
# suite, the wire propagation and SetTrace race tests, and the golden
# cross-process drill — one grant submitted over real TCP must come back as
# ONE trace spanning submitter, grantd, and contractdb with correct
# parent/child edges and monotone timings, and tail sampling must keep 100%
# of incident traces while probabilistically dropping healthy ones. All
# under the race detector.
trace:
	go test -race -count=1 -timeout 120s ./internal/obs/trace/
	go test -race -count=1 -timeout 120s -run 'TestCallPropagatesSpanTree|TestSetTraceRaceWithConcurrentCalls' ./internal/wire/
	go test -race -count=1 -timeout 180s -v -run 'TestDistributedTraceSpine|TestTailSamplingRetention' ./internal/integration/

# Wire robustness gate for the binary envelope, the only framing the wire
# protocol speaks: torn and oversized frames, garbage bodies, a JSON-looking
# frame mid-connection (each answered with an error response, the
# connection kept unless the stream cannot resync), the pinned golden
# envelope bytes, and the kvstore frame-buffer aliasing regression — all
# under the race detector. Every listed name must match a test: a stale
# entry fails the target instead of silently running nothing.
WIRECOMPAT_WIRE := TestBinaryServerRejectsTornAndOversizedFrames TestDecodeTruncatedEnvelopes \
	TestReadFrameTruncated TestServerRejectsOversizedFrameWithError \
	TestBinaryResponseTooLargeKeepsConnection TestServerAnswersGarbageFrameAndKeepsServing \
	TestCallBinaryServerMisbehaves TestBinaryServerRejectsJSONFrameMidConnection \
	TestBinaryServerRejectsUnparseableJSONFrame TestCrossCodecGolden
WIRECOMPAT_KVSTORE := TestBinaryPutKeysDoNotAliasFrameBuffer

empty :=
space := $(empty) $(empty)

# run-listed PKG,NAMES: fail unless every name in NAMES is a test in PKG,
# then run exactly those tests under -race.
define run-listed
	@have="$$(go test -list . $(1))"; for t in $(2); do \
		echo "$$have" | grep -qx "$$t" || { echo "$(1): no test named $$t"; exit 1; }; \
	done
	go test -race -count=1 -timeout 120s -run '^($(subst $(space),|,$(strip $(2))))$$' $(1)
endef

wirecompat:
	$(call run-listed,./internal/wire/,$(WIRECOMPAT_WIRE))
	$(call run-listed,./internal/kvstore/,$(WIRECOMPAT_KVSTORE))

# Short fuzz pass over every parser that faces untrusted bytes: the wire
# binary envelope and its framing, the journal replay path, the black-box
# capture decoder, the traceparent codec, and the metrics text scraper.
# ~30s per target keeps the whole pass under CI's patience while still
# churning well past the seed corpus.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -count=1 -run=NONE -fuzz 'FuzzBinaryFrameDecode' -fuzztime $(FUZZTIME) ./internal/wire/
	go test -count=1 -run=NONE -fuzz 'FuzzJournalReplay' -fuzztime $(FUZZTIME) ./internal/granting/
	go test -count=1 -run=NONE -fuzz 'FuzzBlackboxDecode' -fuzztime $(FUZZTIME) ./internal/slo/
	go test -count=1 -run=NONE -fuzz 'FuzzParseTraceContext' -fuzztime $(FUZZTIME) ./internal/obs/trace/
	go test -count=1 -run=NONE -fuzz 'FuzzParseText' -fuzztime $(FUZZTIME) ./internal/obs/

# Regenerate the perf-trajectory files: BENCH_risk.json (cold vs warm vs
# delta Assess p50, allocator ns/op + allocs/op), BENCH_slo.json
# (flight-recorder append, engine evaluate p50, black-box span append,
# incident replay wall-clock), BENCH_trace.json (span start/finish ns/op
# against the 200ns budget, traceparent codec, tree assembly), and
# BENCH_wire.json (binary vs JSON codec, payload and socket level).
bench-json:
	go run ./cmd/benchjson -out BENCH_risk.json -slo-out BENCH_slo.json -trace-out BENCH_trace.json -wire-out BENCH_wire.json

# Perf-regression gate: re-measure every BENCH_*.json into a scratch dir
# and fail if any timing field regressed past 2x the committed baseline
# (sub-1µs baselines are skipped as noise). Deliberate slowdowns
# re-baseline with bench-rebaseline, so the new perf envelope is part of
# the same diff.
bench-regress:
	mkdir -p .bench-fresh
	go run ./cmd/benchjson -out .bench-fresh/BENCH_risk.json -slo-out .bench-fresh/BENCH_slo.json -trace-out .bench-fresh/BENCH_trace.json -wire-out .bench-fresh/BENCH_wire.json
	go run ./cmd/benchgate -ratio 2 -min-baseline-ns 1000 \
		BENCH_risk.json:.bench-fresh/BENCH_risk.json \
		BENCH_slo.json:.bench-fresh/BENCH_slo.json \
		BENCH_trace.json:.bench-fresh/BENCH_trace.json \
		BENCH_wire.json:.bench-fresh/BENCH_wire.json

# Escape hatch for deliberate perf changes: rewrite the committed baselines
# from a fresh run and commit the diff.
bench-rebaseline: bench-json

cover:
	go test -cover ./internal/... ./schema/...

# Regenerate every evaluation figure (text). Use FIGURE=fig-25 to filter.
figures:
	go run ./cmd/benchgen $(if $(FIGURE),-figure $(FIGURE),)

# Self-contained grantd walkthrough: in-process contract database, one
# online grant through the service, two enforcement agents picking it up.
grantd-demo:
	go run ./cmd/grantd -demo

examples:
	go run ./examples/quickstart
	go run ./examples/segmentedhose
	go run ./examples/drill
	go run ./examples/misbehaving
	go run ./examples/agents
	go run ./examples/capacityplanning
