# Shared entry points for CI (.github/workflows/ci.yml) and humans.
GO ?= go

# bench-guard workload: must match the checked-in BENCH_PR5.json and
# BENCH_PR4.json baselines (cmd/benchguard refuses to compare differing
# workloads).
BENCH_N ?= 50000
BENCH_R ?= 0.0025
# Allowed relative regression before bench-guard fails (0.25 = +25%).
# The baselines were measured on this repo's single-core dev container;
# wall-clock comparisons only hold on comparable hardware, so raise the
# tolerance (or re-measure the baselines) when running on slower or
# noisier runners.
BENCH_TOLERANCE ?= 0.25

# Every checked-in BENCH baseline records gomaxprocs 1, and benchguard
# refuses to compare runs whose GOMAXPROCS differs, so every command
# that measures against or regenerates a baseline runs under one P,
# whatever the machine's CPU count. discload passes it on to the
# discserve it spawns.
PIN_PROCS = GOMAXPROCS=1

# bench-serve workload: must match the checked-in BENCH_SERVE.json
# identity (n/dim/radius/seed/workers/duration/mix are all part of it —
# benchguard refuses to compare differing serve workloads).
SERVE_N ?= 2000
SERVE_WORKERS ?= 4
SERVE_DURATION ?= 10s

.PHONY: build test lint bench bench-guard bench-serve snapshot-bench doclint kernel-props crash-props chaos-props fuzz-smoke

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full suite with the race detector
test:
	$(GO) test -race ./...

## lint: go vet plus the gofmt gate CI enforces
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

## bench: one-iteration smoke pass over every benchmark, then
## regenerate the checked-in BENCH_PR5.json perf baseline, the
## BENCH_PR6.json incremental-update baseline and the BENCH_PR7.json
## high-dimensional kernel baseline from the canonical 50k workloads
## (commit the refreshed files when the change is a deliberate perf
## shift measured on the baseline hardware).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -timeout 25m ./...
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp perf -n $(BENCH_N) -r $(BENCH_R) -format=json > BENCH_PR5.json
	@cat BENCH_PR5.json
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp stream -n $(BENCH_N) -r $(BENCH_R) -format=json > BENCH_PR6.json
	@cat BENCH_PR6.json
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp highdim -n $(BENCH_N) -format=json > BENCH_PR7.json
	@cat BENCH_PR7.json
	$(MAKE) bench-serve

## bench-serve: regenerate the checked-in BENCH_SERVE.json measured-SLO
## baseline: build discserve and discload, spawn the server on a free
## port (with a throwaway WAL dir so the durable path is exercised),
## drive the default read/write mix for SERVE_DURATION from
## SERVE_WORKERS concurrent clients, and record per-endpoint
## throughput + p50/p99 plus the server-side /metrics counter deltas.
## The post-run /metrics scrape lands in serve-metrics.prom (a CI
## artifact). Commit the refreshed BENCH_SERVE.json only when measured
## on the baseline hardware.
bench-serve:
	$(GO) build -o bin/discserve ./cmd/discserve
	$(GO) build -o bin/discload ./cmd/discload
	$(PIN_PROCS) ./bin/discload -spawn ./bin/discserve -n $(SERVE_N) -workers $(SERVE_WORKERS) \
		-duration $(SERVE_DURATION) -out BENCH_SERVE.json -metrics-out serve-metrics.prom
	@cat BENCH_SERVE.json

## bench-guard: vet + compile-and-run gate over the selection and
## steady-state neighbour-query benchmarks with allocation reporting,
## plus the regression gates: the canonical 50k workload is re-measured
## for the perf experiment (bench-current.json, diffed against the
## checked-in BENCH_PR5.json — Build/Select/component-Select metrics),
## the snapshot experiment (snapshot-bench.json, diffed against
## BENCH_PR4.json — save/load metrics) and the stream experiment
## (stream-bench.json, diffed against BENCH_PR6.json — updates/sec
## floor and repair-latency p99 ceiling) and the highdim experiment
## (highdim-bench.json, diffed against BENCH_PR7.json — per-metric
## batched-join speedup, gated by an absolute 2x floor that transfers
## across hardware because it is a same-machine ratio) and the serve
## load run (serve-current.json from cmd/discload against a spawned
## discserve, diffed against BENCH_SERVE.json — per-endpoint
## throughput floor and p99 ceiling), failing on
## anything more than BENCH_TOLERANCE (default +25%) over its baseline.
## All outputs are uploaded as CI artifacts so the repo's perf
## trajectory is inspectable per commit. Also runs the zero-allocation
## regression tests, which carry a !race build tag and are therefore
## invisible to `make test`.
bench-guard:
	$(GO) vet ./...
	$(GO) test ./internal/core -run ZeroAlloc -v -count=1
	@$(GO) test -run '^$$' -bench='Select|Neighbors|GreedyDisC' -benchtime=1x -benchmem -timeout 20m ./... > bench-guard.txt 2>&1; \
	status=$$?; cat bench-guard.txt; exit $$status
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp perf -n $(BENCH_N) -r $(BENCH_R) -format=json > bench-current.json
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp snapshot -n $(BENCH_N) -r $(BENCH_R) -format=json > snapshot-bench.json
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp stream -n $(BENCH_N) -r $(BENCH_R) -format=json > stream-bench.json
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp highdim -n $(BENCH_N) -format=json > highdim-bench.json
	$(GO) build -o bin/discserve ./cmd/discserve
	$(GO) build -o bin/discload ./cmd/discload
	$(PIN_PROCS) ./bin/discload -spawn ./bin/discserve -n $(SERVE_N) -workers $(SERVE_WORKERS) \
		-duration $(SERVE_DURATION) -out serve-current.json -metrics-out serve-metrics.prom
	$(GO) run ./cmd/benchguard -baseline BENCH_PR5.json -current bench-current.json \
		-snapshot-baseline BENCH_PR4.json -snapshot-current snapshot-bench.json \
		-stream-baseline BENCH_PR6.json -stream-current stream-bench.json \
		-highdim-baseline BENCH_PR7.json -highdim-current highdim-bench.json \
		-serve-baseline BENCH_SERVE.json -serve-current serve-current.json \
		-tolerance $(BENCH_TOLERANCE)

## snapshot-bench: measure cold-build vs snapshot-save vs warm-load on
## the canonical 50k workload (the BENCH_PR4.json trajectory metric).
## CI uploads the output alongside the bench-guard artifacts; refresh
## the checked-in baseline with
## `make snapshot-bench && cp snapshot-bench.json BENCH_PR4.json`.
snapshot-bench:
	$(PIN_PROCS) $(GO) run ./cmd/discbench -exp snapshot -n $(BENCH_N) -r $(BENCH_R) -format=json > snapshot-bench.json
	@cat snapshot-bench.json

## kernel-props: the kernel/filter property suites (bit-identity of the
## batched and pre-filtered scans against the per-pair reference) under
## both ends of the amd64 microarchitecture spectrum: GOAMD64=v1 (plain
## SSE2 codegen) and GOAMD64=v3 (AVX/FMA-era codegen). The widened
## thresholds must hold whatever instruction selection the compiler
## picks; on non-amd64 hosts the variable is ignored and the suites
## simply run twice. The coverage-graph Restrict suites ride along: a
## graph restricted to a smaller radius equals a fresh float32 join
## there only while the pre-filter stays conservative at every radius.
kernel-props:
	GOAMD64=v1 $(GO) test ./internal/object -run 'RawBatch|Filter|Within|Float32|Float64' -count=1
	GOAMD64=v1 $(GO) test ./internal/core -run Restrict -count=1
	GOAMD64=v3 $(GO) test ./internal/object -run 'RawBatch|Filter|Within|Float32|Float64' -count=1
	GOAMD64=v3 $(GO) test ./internal/core -run Restrict -count=1

## crash-props: the durability property suites under the race detector
## — the WAL's torn-tail/bit-flip/rotation invariants, the fault
## injectors' own contracts, the every-byte crash-prefix recovery
## property (recovered selection bit-identical to a from-scratch
## component Select over the surviving op prefix), the checkpoint
## crash-window states, the durable create's equivalence and crash
## windows (birth snapshot as the commit point), and the server's
## crash-restart and load-shedding behaviour.
crash-props:
	$(GO) test -race -count=1 ./internal/wal ./internal/faultio
	$(GO) test -race -count=1 -run 'TestCrashPrefixRecoveryEveryByte|TestCrashRecoveryInjectedWriter|TestCheckpointCrashStates|TestWALPoisoningOnSyncFailure|TestWALShortWriteTornTail|TestCreateUpdater' .
	$(GO) test -race -count=1 -run 'TestDurableCreate' ./internal/manager
	$(GO) test -race -count=1 -run 'TestLiveCrashRestart|TestDurableCreate|TestAdmissionControl|TestRequestTimeout|TestPanicRecovery|TestLiveFsyncModesOverHTTP' ./internal/server

## fuzz-smoke: a short native-fuzzing pass over the snapshot reader
## (FuzzSnapRead: no panic on any input; an accepted snapshot
## re-encodes to a stable file). The seed corpus and any committed
## crashers under internal/snap/testdata/fuzz run first.
fuzz-smoke:
	$(GO) test ./internal/snap -run '^$$' -fuzz '^FuzzSnapRead$$' -fuzztime 20s -parallel 2

## chaos-props: the fault-isolation property suites under the race
## detector — randomized multi-dataset fault sweeps against a server
## holding three concurrently-served datasets (WAL append EIO, sync
## failure, torn writes, checkpoint ENOSPC, boot-time read faults,
## interior corruption). The property: datasets that were not faulted
## keep serving with zero errors throughout, while the faulted one
## either recovers a selection bit-identical to its acknowledged op
## prefix or quarantines loudly. Also runs the manager's own lifecycle
## suites (degraded mode, quarantine round-trip, backoff parking) and
## the root checkpoint-ENOSPC authority test.
chaos-props:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/server
	$(GO) test -race -count=1 ./internal/manager
	$(GO) test -race -count=1 -run 'TestCheckpointENOSPCLeavesStateAuthoritative' .

## doclint: verify that relative links and file references in the
## repo's markdown docs resolve (the CI doc-link gate; see
## doclint_test.go).
doclint:
	$(GO) test . -run TestDocLinks -count=1 -v
