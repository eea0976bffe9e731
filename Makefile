# Developer workflow for the xmoe reproduction.
#
#   make ci      - what the CI job runs: gofmt, the transport-name grep, vet, build, the GEMM portability builds, the six race-enabled gates, fuzz smoke, tests, quick bench
#   make test    - full test suite (includes the slow sweep tests)
#   make race    - full race-detector pass (go test -race ./...)
#   make race-fast - race pass over just the concurrency-heavy packages
#   make fuzz-smoke - every Fuzz target in the tree for 10 s each
#   make bench   - package microbenchmarks with allocation counts
#   make bench-figs - paper-figure benchmarks (slow)
#   make loc     - non-test Go lines per package and for the tree

GO ?= go

.PHONY: all build loc fmt-check no-transport-strings vet portability test race race-fast race-full chaos-fast verify-devent verify-zero verify-rbd verify-ft fuzz-smoke bench bench-figs bench-json bench-save ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines of every package and of the tree, without blank lines
# or `//` comment lines: the filter the line counts in CHANGES.md quote.
loc:
	@$(GO) list -f '{{.Dir}} {{range .GoFiles}}{{.}} {{end}}' ./... | \
	while read dir files; do \
		[ -n "$$files" ] || continue; \
		n=$$(cd $$dir && cat $$files | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l); \
		printf '%7d %s\n' $$n $${dir#$(CURDIR)/}; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# Fails when any file is not gofmt-clean (gofmt -l prints its name).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Fails when a transport is selected by comparing its name outside
# internal/transport: everything else takes a transport.Kind, so a fourth
# transport is one implementation there, not a hunt for string switches.
no-transport-strings:
	@out=$$(grep -rnE '"(pft|padded|rbd)"' --include='*.go' internal cmd | grep -v _test.go | grep -v '^internal/transport/'); \
	if [ -n "$$out" ]; then echo "transport names outside internal/transport:"; echo "$$out"; exit 1; fi

# The GEMM body's other builds: the SSE body built with GOAMD64=v3 against
# the bit reference (Go must still not contract x*y+z into an FMA there),
# and the non-amd64 stub compiled for arm64. The arm64 vet only compiles
# the stub; nothing here runs arm64 code, so its bits are unchecked.
portability:
	GOAMD64=v3 $(GO) test ./internal/tensor
	GOARCH=arm64 $(GO) vet ./internal/tensor

test:
	$(GO) test ./...

# Everything under the race detector — the verify gate for the async
# collective handles and chunked overlap pipelines. The bench sweeps run
# ~10x slower with -race, so the default 10m per-package timeout is not
# enough.
race:
	$(GO) test -race -timeout 60m ./...

# The concurrency-critical packages only: worker pool + tensor arenas
# (tensor), rank goroutines, rendezvous collectives and async handles
# (simrt), cost memoization (netsim), overlapped-span recording (trace),
# pooled + chunked pipelines (moe, rbd, kernels), the layer every caller
# drives them through (transport), and the overlapped distributed trainer
# (train).
race-fast:
	$(GO) test -race ./internal/tensor ./internal/simrt ./internal/netsim \
		./internal/trace ./internal/moe ./internal/kernels ./internal/rbd \
		./internal/transport ./internal/train ./internal/fault ./internal/devent \
		./internal/topology

# Kept as an alias for the historical target name.
race-full: race

# $(call race-named,<gate>,<-run pattern>,<package:floor ...>) runs the
# tests a gate picks by name, under the race detector — after checking
# that `go test -list` still names at least <floor> tests for the pattern
# in each package, so a rename fails the gate instead of passing it
# vacuously. Floors are the counts at the commit that last touched them.
define race-named
	@for pf in $(3); do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		n=$$($(GO) test -list '$(2)' $$pkg | grep -c '^Test'); \
		if [ "$$n" -lt "$$floor" ]; then \
			echo "$(1): -run '$(2)' names $$n tests in $$pkg, want >= $$floor"; \
			exit 1; \
		fi; \
	done
	$(GO) test -race -run '$(2)' $(foreach pf,$(3),$(firstword $(subst :, ,$(pf))))
endef

# Event-engine verification gate: the analytic/event cross-validation
# suite (flat-topology exactness to 1e-12 s, byte-accounting identities,
# contention divergence on rail graphs, derate plumbing) plus the
# determinism tests (identical seeds + concurrent collectives must give
# bit-identical event logs and clocks; an engine that samples congestion in
# query order keeps its clocks at any GOMAXPROCS, so the simrt floor is 5
# since TestSampledCongestionKeepsIssueOrder), all under the race detector.
verify-devent:
	$(GO) test -race ./internal/devent ./internal/topology
	$(call race-named,verify-devent,Engine|ConcurrentCollectives|CommHandleOverlap|SetLinkDerate|SampledCongestion,./internal/simrt:5)

# ZeRO verification gate: the sharded gradient-sync stack under the race
# detector — async reduction collectives (simrt), bucket partitioning and
# bit-identity (zero), the sharded trainer step + checkpoint resharding
# (train), the memmodel state predictions, and the bucketed wire-byte
# invariants (netsim). simrt has no non-blocking all-gather (nothing
# republished parameters through one), so its floor is the four tests of
# all-reduce, reduce-scatter and ShardRange.
verify-zero:
	$(GO) test -race ./internal/zero
	$(call race-named,verify-zero,ZeRO|StateBytes|ShardRange|ReduceAsync|AllReduceAsync|ReduceScatterAsync|OnDWReady|Bucketed,\
		./internal/simrt:4 ./internal/moe:2 ./internal/train:7 ./internal/memmodel:1 ./internal/netsim:3)

# RBD verification gate: the hierarchical dispatch/combine stack under the
# race detector (rbd: the C = 1 and C = 4 golden bits, the dispatch-geometry
# table behind FuzzRBDGeometry, the chunk-count determinism matrix and the
# gradient-parity pins — pooled==fresh bitwise, RBD==PFT/padded at float
# tolerance), the RBD rows of the distributed trainer —
# checkpoint/shrink cycles, ZeRO stages, typed option rejections — the
# golden bits of the two single-layer bench harnesses, and the pin that a
# symbolic pass of every transport prices what the numeric one does.
verify-rbd:
	$(GO) test -race ./internal/rbd
	$(call race-named,verify-rbd,RBD|Redundancy|LayerHarness|SymbolicPricesLikeNumeric,./internal/train:6 ./internal/bench:3 ./internal/baselines:1 ./internal/transport:1)

# Fault-tolerance verification gate: the elastic-resilience stack under
# the race detector — the fault plan grammar and injector windows,
# grow/shrink cycle bit-determinism, async==blocking checkpoint weight
# parity (with the mid-write fallback pin), hot-spare promotion, the
# straggler-aware capacity rebalance, and the all-features determinism
# acceptance run.
verify-ft:
	$(GO) test -race ./internal/fault
	$(call race-named,verify-ft,GrowShrink|AsyncCkpt|Spare|Mitigation|FaultTolerant|Rebalance|CheckpointBytes|BuildPFTCaps,\
		./internal/train:12 ./internal/moe:3 ./internal/memmodel:1)

# Chaos pass: the seeded fault-injection suite under the race detector —
# rank crashes mid-collective, stragglers, flaky retries, degraded links,
# checkpoint rollback and elastic recovery, and pricing that panics or is
# still running when a rank crashes. Every schedule is deterministic
# (fault.Plan seeds), so failures reproduce exactly. The simrt floor is 9
# since TestCrashMidExchangeLeavesNoPricer (the ReducerPanic test covers
# the non-blocking collectives as cases, not as new tests).
chaos-fast:
	$(call race-named,chaos-fast,Crash|Fault|Inject|Straggler|Flaky|Desync|ReducerPanic|Checkpoint|Gone|Derate,\
		./internal/simrt:9 ./internal/fault:7 ./internal/netsim:1 ./internal/train:10)

# Every fuzz target of every package for ten seconds each, against its
# checked-in seeds and whatever the engine mutates from them: the targets
# compare rewritten code with the reference it replaced (PFT construction,
# the event engine's all-to-all-v, the tiled GEMMs) or check a property
# (RBD geometry, the fault-plan grammar's round trip), which `go test`
# alone only runs on the seeds. Fails when the tree lists no target, so a rename
# cannot pass vacuously.
fuzz-smoke:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ {names[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2 ":" names[i]; n = 0}'); \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: go test -list '^Fuzz' names no target"; exit 1; fi; \
	for t in $$targets; do \
		echo "fuzz-smoke: $${t%%:*} $${t##*:}"; \
		$(GO) test -run=NONE -fuzz="^$${t##*:}\$$" -fuzztime=10s $${t%%:*} || exit 1; \
	done

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/tensor \
		./internal/kernels ./internal/moe ./internal/rbd ./internal/train \
		./internal/baselines ./internal/devent

bench-figs:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x .

bench-json:
	$(GO) run ./cmd/xmoe-bench -quick -json

# Record the per-PR performance trajectory into BENCH_results.json (which
# is committed): the scaling figures in quick mode for host-side ns/op and
# allocs/op stability, plus the overlap ablations at full fidelity (EP=64,
# the acceptance configuration) for the simulated speedups.
bench-save:
	$(GO) run ./cmd/xmoe-bench -quick -json -experiment fig10a,fig10b,fig11,fig12
	$(GO) run ./cmd/xmoe-bench -json -experiment abl-overlap,abl-overlap-bwd,abl-faults,abl-engine-delta,abl-zero
	@echo "BENCH_results.json updated; commit it with this PR"

# The microbenchmarks the CI smoke runs: one numeric fwd+bwd of the PFT
# layer and of the LM's MoE block built on it, one event-priced
# all-to-all-v that misses the memo (the water-filling engine), and the
# three GEMMs at the numeric trainer's shapes. A -bench
# pattern that matches nothing passes silently, so the smoke first
# requires `go test -list` to name every benchmark the pattern lists.
SMOKE_BENCH = BenchmarkPFTLayerForwardBackward|BenchmarkMoEFFNForwardBackward|BenchmarkA2AVMiss|BenchmarkMatMulInto|BenchmarkMatMulTInto|BenchmarkTMatMulInto
SMOKE_PKGS = ./internal/moe ./internal/train ./internal/devent ./internal/tensor

# Quick CI, and the only definition of it (.github/workflows/ci.yml runs
# this target): gofmt + the transport-name grep + vet + build + the GEMM
# portability builds + all six race-detector gates + the fuzz smoke + unit
# tests of every package + a quick microbenchmark smoke run.
ci: fmt-check no-transport-strings vet build portability race-fast chaos-fast verify-devent verify-zero verify-rbd verify-ft fuzz-smoke
	$(GO) test ./internal/... .
	@want=$$(echo '$(SMOKE_BENCH)' | tr '|' '\n' | grep -c .); \
	n=$$($(GO) test -list '^($(SMOKE_BENCH))$$' $(SMOKE_PKGS) | grep -c '^Benchmark'); \
	if [ "$$n" -lt "$$want" ]; then \
		echo "ci: -bench '$(SMOKE_BENCH)' names $$n benchmarks, want $$want"; \
		exit 1; \
	fi
	$(GO) test -run=NONE -bench='^($(SMOKE_BENCH))$$' -benchmem -benchtime=10x $(SMOKE_PKGS)
