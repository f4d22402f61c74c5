GO ?= go

.PHONY: build test vet race check check-benchmark check-386 mutants kill-matrix bench bench-cluster bench-dispatch bench-engine bench-obs fuzz clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The full suite. Its root package holds the typed source gates, on one
# go/types load of the tree: TestExportsAreReached, TestFieldsAreWritten,
# TestPoliciesRunThroughHooks, TestMetricNamesAreLegal,
# TestNothingReadsTheEnvironment, TestNoAmbientState and
# TestHostStateHasNoLocks.
test:
	$(GO) test ./...

# The race detector, in two lines. The first runs every package but
# internal/experiments: the facade, the CLIs and all of internal/ — the
# fleet at -workers > 1 (cluster, par), syrupd's server ops posted to the
# mailbox of the loop that runs the host (the one door into a host: its map
# ops beside a policy that XADDs the same map, the chaos suite's quarantine
# and revoke tests, a live daemon's ops replayed), the adapt controller, and the single-owner layers (ebpf, hook, ghost, nic,
# netstack, rocksdb, obs, trace, ...) whose suites staying clean shows
# nothing they call shares state behind their back. The second runs the
# slice of internal/experiments that starts goroutines: the fleet's worker
# differentials (rocksdb and mica), the parallel sweep and its -workers
# plumbing, and the adaptive controller's differential and determinism
# tests (~15 s); the rest of that package takes ~9 min under -race and
# drives only what the first line covers. The zero-alloc gates
# (TestZeroAlloc*) run here and again under test: a device-owned free list
# keeps every packet put back, race detector or not, the RocksDB store
# answers Get and Scan from its key count (TestZeroAllocStore), and the workload
# generator's request table settles an answered request
# (TestZeroAllocSendComplete) and a dropped one (TestZeroAllocLossyRun)
# without allocating.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v /internal/experiments)
	$(GO) test -race ./internal/experiments -run '^(TestClusterWorkersDifferential|TestClusterMicaWorkersDifferential|TestSweepPreservesOrderAndParallelizes|TestWorkersReachTheSweep|TestAdaptDifferentialOff|TestAdaptiveDeterminism)$$'

# The benchmark is a module of its own (benchmark/go.mod, `replace syrup
# => ../`), so ./... does not reach it, yet it calls the program's APIs
# directly: the sampler and its store, the controller, the deploy path.
# Vet builds it; its test runs every workload's probes once
# (TestWorkloadsEmitTheManifest).
check-benchmark:
	cd benchmark && GOFLAGS=-mod=mod $(GO) vet . && GOFLAGS=-mod=mod $(GO) test .

# The tree on a 32-bit int: vet and the whole suite for GOARCH=386, which
# runs natively on amd64, TestGolden included against the amd64 goldens, so
# a value that passes 2^31 in an int fails here rather than moving a digest
# (~30 s).
check-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./...

# Do the gates bite? Every committed mutant, a patch under a package's
# testdata/mutants/ that names its gate, is overlaid on a copy of the
# files it touches and must fail that gate, run alone for at most 60 s;
# the comment-only fixture must survive it, which shows the runner can
# fail. Then the committed kill matrix must have one row per mutant with
# its gate among its killers, and the check must fail on the planted
# matrix. See mutants.sh (~1 min on 2 vCPUs).
mutants:
	GO=$(GO) sh mutants.sh

# Rewrite testdata/kill_matrix.txt: each mutant against the whole suite
# (go test -overlay -json ./...), one line per mutant naming its gate and
# every top-level test it fails (~10 min on 2 vCPUs with a warm build
# cache). Not part of check: `make mutants` only checks the
# committed matrix against the mutants.
kill-matrix:
	GO=$(GO) sh mutants.sh matrix

# check is the PR gate. Every differential, determinism, chaos and
# zero-alloc test is a plain test of its package, so race and test run
# them all; DESIGN.md names each one with its go test command.
check: build vet race test check-benchmark check-386 mutants

bench:
	$(GO) test -bench=. -benchmem ./...

# Fleet-scale scenario: 32 hosts behind the Maglev L4 LB, >1M flows,
# token-QoS policy deployed through the control plane's staged rollout.
# Bit-identical at any -workers value.
bench-cluster:
	$(GO) run ./cmd/syrup-bench -hosts 32

# Dispatch cost of Run on reused state (`run` rows) beside RunInterp on
# fresh state (`ref` rows, the oracle: a new zeroed run state per call — its
# speed is no goal); see DESIGN.md "Policy execution pipeline". The bar:
# every run row at 0 allocs/op, and map_policy/run reported against the
# parent commit on the same box.
bench-dispatch:
	$(GO) test ./internal/ebpf/ -run '^$$' -bench BenchmarkDispatch -benchmem

# Timer-wheel event-engine core (see DESIGN.md "Event engine internals"):
# steady-state schedule+fire, cancel-heavy, and ticker re-arm shapes. The
# steady state must hold >=2x over the old container/heap core with
# 0 allocs/op; the alloc floor is gated in `make check` by
# TestZeroAllocSteadyState / TestZeroAllocTicker in internal/sim, and the
# firing order against the heap core, up to math.MaxInt64, by
# TestDifferentialVsHeap / TestScheduleAtTheEndOfTime.
bench-engine:
	$(GO) test ./internal/sim/ -run '^$$' -bench BenchmarkEngine -benchmem

# Telemetry tick (see DESIGN.md "Telemetry plane", cost model): a window
# advance and a whole sampler tick at the ledger probe's shape — 16
# records per tick over a 4-octave span — busy and idle. Both must stay at
# 0 allocs/op (gated in `make check` by the TestZeroAlloc* tests of
# internal/metrics and internal/obs); the idle tick touches no bucket.
# Reference numbers live in EXPERIMENTS.md.
bench-obs:
	$(GO) test ./internal/metrics/ -run '^$$' -bench BenchmarkHistogramWindowAdvance -benchmem
	$(GO) test ./internal/obs/ -run '^$$' -bench BenchmarkSamplerSample -benchmem

# Extended fuzzing: every Fuzz target of every package, 30 s each (the seed
# corpora already run under plain `go test`). `go test -list` finds the
# targets, so a new one is fuzzed without editing this rule.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for fn in $$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz'); do \
			echo "$$pkg $$fn"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$fn$$" -fuzztime 30s; \
		done; \
	done

clean:
	$(GO) clean ./...
