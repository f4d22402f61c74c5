GO ?= go

.PHONY: build test vet race lint-metrics lint-env lint-globals alloc-gates chaos cluster-diff vm-diff obs-diff adapt-diff check bench bench-cluster bench-dispatch bench-engine bench-obs bench-profile fuzz clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# A gate whose -run regex selects nothing passes forever (`TestOpt` in the
# old opt-diff did, for six PRs). $(call selects,PATTERN,PKGS) takes one
# `go test -list` and fails unless every package in PKGS lists at least one
# test and every |-alternative of PATTERN names one of those listed;
# $(call gate,PATTERN,PKGS) is that check followed by the run.
define selects
@list=$$($(GO) test -list '$(1)' $(2)) || { echo "$$list"; exit 1; }; \
echo "$$list" | awk '/^(Test|Fuzz)/ {n++; next} /^ok/ {if (!n) {print "$@: -run selects no test in " $$2; bad = 1}; n = 0} END {exit bad}' || exit 1; \
for alt in $(subst |, ,$(1)); do \
	echo "$$list" | grep -E '^(Test|Fuzz)' | grep -qE "$$alt" \
		|| { echo "$@: -run alternative '$$alt' selects no test in $(2)"; exit 1; }; \
done
endef
define gate
$(call selects,$(1),$(2))
$(GO) test -run '$(1)' $(2)
endef

# The race detector over every package but one: the facade, the CLIs and
# all of internal/ — the VM's concurrent-Run contract and run-state pool,
# the RocksDB store's readers beside one writer, the fleet at -workers > 1
# (cluster, par), syrupd's server ops against the event loop, and the
# single-owner layers (hook, ghost, nic, netstack, obs, trace, ...) whose
# suites staying clean shows nothing they call shares state behind their
# back. internal/experiments is left out: it takes ~9 min under -race and
# found nothing the packages it drives do not find here. The receive-path
# alloc gates (nic, netstack) run here too: a device-owned free list keeps
# every packet put back, race detector or not.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v /internal/experiments)

# Zero-alloc gates (see DESIGN.md): the event-engine steady state, eBPF
# Run, hook dispatch (single and vectorized, traced and
# untraced), the span recorder's Record path — including disabled/nil
# recorders, i.e. the tracing-off hot path — the generator's send+complete
# round across request-table pages, the receive path (NIC receive with the
# device's own packets → socket enqueue, offload and XDP attached), the
# telemetry tick (histogram reads, sampler tick, a controller tick on
# which no rule acts), the ghOSt agent loop (message batch → Schedule →
# commit, also under sustained overload), Map.LookupUint64 and Store.Get
# must all stay at 0 allocs/op; a Store.Scan allocates its result only.
alloc-gates: pkgs = ./internal/sim/ ./internal/trace/ ./internal/hook/ ./internal/ebpf/ ./internal/workload/ ./internal/nic/ ./internal/netstack/ ./internal/obs/ ./internal/adapt/ ./internal/metrics/ ./internal/ghost/ ./internal/apps/rocksdb/
alloc-gates:
	$(call selects,TestZeroAlloc|TestCompiledRunZeroAllocs,$(pkgs))
	$(GO) test -run 'TestZeroAlloc|TestCompiledRunZeroAllocs' -v $(pkgs) | grep -E '^(=== RUN|--- (PASS|FAIL)|FAIL|ok)'

# Chaos gate (see DESIGN.md "Fault injection and quarantine"): the
# fault-plan suite plus the syrupd quarantine/revoke tests — including the
# server ops hammered from racing goroutines — under the race detector,
# then the experiments-level fall-open and determinism gates.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/syrupd/
	$(call gate,TestChaos,./internal/experiments/)

# Cluster determinism gate (see DESIGN.md "Cluster layer"): the 4-host
# LS/BE and sharded-MICA scenarios at -workers 1 vs 4 must produce
# byte-identical per-host and fleet stats digests, and the Maglev and
# rollout invariants must hold.
cluster-diff:
	$(GO) test ./internal/cluster/ ./internal/par/
	$(call gate,TestCluster,./internal/experiments/)

# Metric names must be prometheus-style snake_case: lowercase letters,
# digits, and underscores, starting with a letter. The grep matches every
# string-literal name given to a counter listing entry or registered on a
# sampler series or histogram and rejects anything outside that alphabet
# (dashes, dots, camelCase); hook-point counter keys are reduced to it by
# hook.NewPoint. See DESIGN.md "Telemetry plane".
lint-metrics:
	@bad=$$(grep -rnoE '(CounterValue\{Name: |\.(Gauge|Rate|Histogram|WindowHistogram)\()"[^"]*"' \
		--include='*.go' internal/ cmd/ syrup.go \
		| grep -vE '"[a-z][a-z0-9_]*"$$' || true); \
	if [ -n "$$bad" ]; then \
		echo 'lint-metrics: metric names must be snake_case ([a-z][a-z0-9_]*):'; \
		echo "$$bad"; \
		exit 1; \
	fi

# Policies take one path (verify, decode, walk) and no environment variable
# may fork it — or anything else: outside benchmark/, which pins its own
# build cache, the tree reads and writes no environment.
lint-env:
	@if grep -rn 'os\.\(Getenv\|LookupEnv\|Setenv\)' --include='*.go' . | grep -v '^\./benchmark/'; then \
		echo 'lint-env: no environment-variable switches outside benchmark/'; \
		exit 1; \
	fi

# No ambient state in the telemetry, policy-execution, per-request
# datapath, event-engine and experiment-harness packages: a package-level
# atomic, mutex or mutated map there is shared by every host in the
# process, which is how per-host attribution was lost once. The awk
# lists package-level declarations (var lines and var blocks) of non-test
# files that mention an atomic or a mutex; each package-level map is then
# grepped for an element write or delete. sync.Pool and lookup tables that
# are never assigned after their initializer pass. In experiments and sim a
# package-level var with no initializer fails too: a plain scalar that
# exists only to be assigned later is the shape the last two toggles had
# (`var obsPeriod sim.Time`, `var poolWorkers int`), and the patterns above
# cannot see one. Initialized tables (fig6Mix, DefaultWindows) pass; a
# multi-line initializer inside a `var (` block would not, so write it as
# its own `var x = ...`.
lint-globals:
	@decls='/^var \(/{blk=1;next} /^\)/{blk=0} blk||/^var /'; \
	bad=$$(for d in metrics obs trace hook ebpf syrupd nic workload experiments sim; do \
		files=$$(ls internal/$$d/*.go | grep -v _test.go); \
		awk "$$decls"' {if (/atomic\.|sync\.(RW)?Mutex/) print FILENAME":"FNR": "$$0}' $$files; \
		for m in $$(awk "$$decls"' {if (/map\[/) {sub(/^var /,""); print $$1}}' $$files); do \
			grep -nE "(^|[^.[:alnum:]_])$$m\[[^]]*\] *(=[^=]|\+\+|--|[-+|&^]=)|delete\($$m," $$files; \
		done; \
		case $$d in experiments|sim) \
			awk "$$decls"' {if (!/=/ && !/^[[:space:]]*(\/\/|$$)/) print FILENAME":"FNR": "$$0}' $$files;; \
		esac; \
	done); \
	if [ -n "$$bad" ]; then \
		echo 'lint-globals: package-level atomic, mutex, mutated map or uninitialized var:'; \
		echo "$$bad"; \
		exit 1; \
	fi

# VM differential gate (see DESIGN.md "Policy execution pipeline"), in two
# halves. Semantics against literal vectors: alu and jumpTaken — the one
# table the verifier and the walker both evaluate through — against values
# written from the ISA definition, the verifier's folded constants against
# run-time values, and every op byte's decoding against the outcome the
# field-decoding interpreter gave. Decodings against each other: Run (kinds
# pinned by the verifier's facts, reused state) against the reference (the
# same walker over the plain decoding, fresh state) on the same loaded
# stream — verdicts, errors, map and packet effects, full ExecStats and
# instret/runs/faults charging — over random programs, the fuzz seed
# corpus and every shipped policy, whose hot-path slots must also decode to
# their pinned kinds, and the text round-trip suite syrup-policy disasm
# depends on.
vm-diff:
	$(call gate,TestALUTable|TestJumpTable|TestVerifierFold|TestDecodeIsTotal|TestDifferential|FuzzRunMatchesReference|TestShippedPolicies|TestTextRoundTrip,./internal/ebpf/)

# Telemetry gate (see DESIGN.md "Telemetry plane"): the sampler rides the
# engine's passive hook — figure-slice digests (fig2/6/8/9 + the fleet
# scenario) must be bit-identical with the sampler off vs on, the sampler
# hot path must stay zero-alloc, and the profiling suite must show exact
# hit counts, identical under Run and the reference — a faulting
# instruction credits its own slot and nothing after it.
obs-diff:
	$(GO) test ./internal/obs/ ./internal/sim/
	$(call gate,TestProfile|TestAnnotatedDisasm,./internal/ebpf/)
	$(call gate,TestObsDifferential,./internal/experiments/)

# Adaptive-control gate (see DESIGN.md "Adaptive control loop"): the
# controller's burn-rate/debounce unit suite under the race detector, the
# syrupd/cluster wiring, then the experiments-level differential — an
# armed controller whose rules never fire must leave the simulation
# bit-identical to a run without one — plus the committed demo's exact
# decision trace, its replay determinism, and the frontier domination
# over every static policy.
adapt-diff:
	$(GO) test -race ./internal/adapt/
	$(call gate,TestAdapt|TestRollout,./internal/cluster/ ./internal/syrupd/)
	$(call gate,TestAdapt,./internal/experiments/)

# check is the PR gate: build, vet, lints, the race detector over every
# package but experiments, alloc gates, chaos suite, cluster determinism
# gate, VM differential gate, telemetry gate, adaptive-control gate, then
# the full suite (whose root package holds the typed source gates:
# TestExportsAreReached, TestFieldsAreWritten, TestPoliciesRunThroughHooks).
check: build vet lint-metrics lint-env lint-globals race alloc-gates chaos cluster-diff vm-diff obs-diff adapt-diff test

bench:
	$(GO) test -bench=. -benchmem ./...

# Fleet-scale scenario: 32 hosts behind the Maglev L4 LB, >1M flows,
# token-QoS policy deployed through the control plane's staged rollout.
# Bit-identical at any -workers value.
bench-cluster:
	$(GO) run ./cmd/syrup-bench -hosts 32

# Dispatch cost of Run (`run` rows) beside the reference (`ref` rows, an
# oracle that decodes per call — its speed is no goal); see DESIGN.md
# "Policy execution pipeline". The bar: every run row at 0 allocs/op, and
# map_policy/run within 1.5x of the 55 ns/op the fused closure tier measured
# before PR 23 deleted it (EXPERIMENTS.md "The tier that fusion paid for").
bench-dispatch:
	$(GO) test ./internal/ebpf/ -run '^$$' -bench BenchmarkDispatch -benchmem

# Timer-wheel event-engine core (see DESIGN.md "Event engine internals"):
# steady-state schedule+fire, cancel-heavy, and ticker re-arm shapes. The
# steady state must hold >=2x over the old container/heap core with
# 0 allocs/op; the alloc floor is gated in `make check` by
# TestZeroAllocSteadyState / TestZeroAllocTicker in internal/sim.
bench-engine:
	$(GO) test ./internal/sim/ -run '^$$' -bench BenchmarkEngine -benchmem

# Telemetry tick (see DESIGN.md "Telemetry plane", cost model): a window
# advance and a whole sampler tick at the ledger probe's shape — 16
# records per tick over a 4-octave span — busy and idle. Both must stay at
# 0 allocs/op (gated in `make alloc-gates`); the idle tick touches no
# bucket. Reference numbers live in EXPERIMENTS.md.
bench-obs:
	$(GO) test ./internal/metrics/ -run '^$$' -bench BenchmarkHistogramWindowAdvance -benchmem
	$(GO) test ./internal/obs/ -run '^$$' -bench BenchmarkSamplerSample -benchmem

# Profiling overhead margin (see EXPERIMENTS.md "Profiling overhead"): the
# dispatch shapes with per-instruction profiling off vs on. Profiling is
# opt-in per deployment.
bench-profile:
	$(GO) test ./internal/ebpf/ -run '^$$' -bench BenchmarkDispatchProfile -benchmem

# Extended differential fuzzing of Run against the reference decoding (the
# seed corpus already runs under plain `go test`).
fuzz:
	$(call selects,FuzzRunMatchesReference,./internal/ebpf/)
	$(GO) test ./internal/ebpf/ -run '^$$' -fuzz FuzzRunMatchesReference -fuzztime 30s

clean:
	$(GO) clean ./...
