# Developer workflow for the xmoe reproduction.
#
#   make ci      - what the CI job runs: vet, build, the six race-enabled gates, tests, quick bench
#   make test    - full test suite (includes the slow sweep tests)
#   make race    - full race-detector pass (go test -race ./...)
#   make race-fast - race pass over just the concurrency-heavy packages
#   make bench   - package microbenchmarks with allocation counts
#   make bench-figs - paper-figure benchmarks (slow)

GO ?= go

.PHONY: all build vet test race race-fast race-full chaos-fast verify-devent verify-zero verify-rbd verify-ft bench bench-figs bench-json bench-save ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# pooled + chunked pipelines (moe, rbd, kernels), and the overlapped
# distributed trainer (train).
race-fast:
	$(GO) test -race ./internal/tensor ./internal/simrt ./internal/netsim \
		./internal/trace ./internal/moe ./internal/kernels ./internal/rbd \
		./internal/collective ./internal/train ./internal/fault \
		./internal/devent ./internal/topology

# Kept as an alias for the historical target name.
race-full: race

# Event-engine verification gate: the analytic/event cross-validation
# suite (flat-topology exactness to 1e-12 s, byte-accounting identities,
# contention divergence on rail graphs, derate plumbing) plus the
# determinism tests (identical seeds + concurrent collectives must give
# bit-identical event logs and clocks), all under the race detector. The
# simrt half is picked by name, so the gate first checks that the pattern
# still names its four tests: a rename must fail here, not pass vacuously.
DEVENT_SIMRT_TESTS := Engine|ConcurrentCollectives|CommHandleOverlap|SetLinkDerate
verify-devent:
	$(GO) test -race ./internal/devent ./internal/topology
	@n=$$($(GO) test -list '$(DEVENT_SIMRT_TESTS)' ./internal/simrt | grep -c '^Test'); \
	if [ "$$n" -lt 4 ]; then \
		echo "verify-devent: -run '$(DEVENT_SIMRT_TESTS)' names $$n tests in internal/simrt, want >= 4"; \
		exit 1; \
	fi
	$(GO) test -race -run '$(DEVENT_SIMRT_TESTS)' ./internal/simrt

# ZeRO verification gate: the sharded gradient-sync stack under the race
# detector — async reduction collectives (simrt), bucket partitioning and
# bit-identity (zero), the sharded trainer step + checkpoint resharding
# (train), the memmodel state predictions, and the bucketed wire-byte
# invariants (netsim).
verify-zero:
	$(GO) test -race ./internal/zero
	$(GO) test -race -run 'ZeRO|StateBytes|ShardRange|ReduceAsync|AllReduceAsync|ReduceScatterAsync|AllGatherAsync|OnDWReady|Bucketed' \
		./internal/simrt ./internal/moe ./internal/train ./internal/memmodel ./internal/netsim

# RBD verification gate: the hierarchical dispatch/combine stack under the
# race detector (rbd), the backward determinism matrix and gradient-parity
# pins (chunked==blocking and pooled==fresh bitwise, RBD==PFT/padded at
# float tolerance), and the RBD rows of the distributed trainer —
# checkpoint/shrink cycles, ZeRO stages, typed option rejections.
verify-rbd:
	$(GO) test -race ./internal/rbd
	$(GO) test -race -run 'RBD|Redundancy' ./internal/train ./internal/bench ./internal/baselines

# Fault-tolerance verification gate: the elastic-resilience stack under
# the race detector — the fault plan grammar and injector windows,
# grow/shrink cycle bit-determinism, async==blocking checkpoint weight
# parity (with the mid-write fallback pin), hot-spare promotion, the
# straggler-aware capacity rebalance, and the all-features determinism
# acceptance run.
verify-ft:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'GrowShrink|AsyncCkpt|Spare|Mitigation|FaultTolerant|Rebalance|CheckpointBytes|BuildPFTCaps|BusyTimes' \
		./internal/train ./internal/moe ./internal/memmodel ./internal/simrt

# Chaos pass: the seeded fault-injection suite under the race detector —
# rank crashes mid-collective, stragglers, flaky retries, degraded links,
# checkpoint rollback and elastic recovery. Every schedule is
# deterministic (fault.Plan seeds), so failures reproduce exactly.
chaos-fast:
	$(GO) test -race -run 'Crash|Fault|Inject|Straggler|Flaky|Desync|ReducerPanic|Checkpoint|Gone|Derate' \
		./internal/simrt ./internal/fault ./internal/netsim ./internal/train

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

# Quick CI, and the only definition of it (.github/workflows/ci.yml runs
# this target): vet + build + all six race-detector gates + unit tests of
# every package + a quick microbenchmark smoke run.
ci: vet build race-fast chaos-fast verify-devent verify-zero verify-rbd verify-ft
	$(GO) test ./internal/... .
	$(GO) test -run=NONE -bench='BenchmarkPFTLayerForwardBackward|BenchmarkMoEFFNForwardBackward' \
		-benchmem -benchtime=10x ./internal/moe ./internal/train
