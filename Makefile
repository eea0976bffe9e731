# Developer workflow for the xmoe reproduction.
#
#   make ci      - what the CI job runs: gofmt, the transport-name grep, the one-body grep, the assembly FMA grep, vet, build, the assembly kernels' portability builds, the race gate, fuzz smoke, tests, quick bench
#   make test    - full test suite (includes the slow sweep tests)
#   make race    - full race-detector pass (go test -race ./...)
#   make race-fast - race pass over the concurrency-heavy packages and four named bench/baselines tests
#   make fuzz-smoke - every Fuzz target in the tree for 10 s each
#   make bench   - package microbenchmarks with allocation counts
#   make bench-figs - paper-figure benchmarks (slow)
#   make loc     - non-test Go lines per package and for the tree

GO ?= go

.PHONY: all build loc fmt-check no-transport-strings one-body no-asm-fma vet portability test race race-fast fuzz-smoke bench bench-figs bench-json bench-save ci

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

# Fails when a non-test file outside internal/moe charges one of the MoE
# layer body's own stages (the gate, the buffer dispatch, the expert FFN
# forward or backward): every transport plugs into that one body as a
# moe.Exchange, so a forked copy of the expert stage cannot come back
# silently. Also fails when a non-test file outside internal/transport,
# internal/rbd and benchmark/ (whose API pins it) builds an
# rbd.NewDispatcher: RBD's stages then run only inside a transport.Layer,
# so a dispatch-only harness that skips the body's gather cannot come back
# silently either.
one-body:
	@out=$$(grep -rnE 'Compute\(moe\.Stage(Gate|Dispatch|Experts|BwdExperts)\b' --include='*.go' . | grep -v _test.go | grep -v '^\./internal/moe/'); \
	if [ -n "$$out" ]; then echo "MoE layer body stages charged outside internal/moe:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'rbd\.NewDispatcher(' --include='*.go' . | grep -v _test.go | grep -vE '^\./(internal/transport|internal/rbd|benchmark)/'); \
	if [ -n "$$out" ]; then echo "RBD dispatcher built outside transport.Layer:"; echo "$$out"; exit 1; fi

# Fails on a fused multiply-add or multiply-subtract (VFMADD*, VFMSUB*,
# VFNMADD*, VFNMSUB*) in any tracked assembly file: each GEMM body must
# round a product to float32 before its add, as the Go loop and the bit
# reference do, the polar kernel (polar_amd64.s) must round every step
# of math.Log's amd64 body as it does, and the GeLU kernel (gelu_amd64.s)
# every step of math.tanh's polynomial and of the GeLU and GeLU′
# expressions as the Go loop does. The GEMM, polar and GeLU tests catch a
# fused body only on a CPU that runs it; this catches it on any host.
# Fails when git names no .s file, so a move cannot pass vacuously.
no-asm-fma:
	@files=$$(git ls-files '*.s'); \
	if [ -z "$$files" ]; then echo "no-asm-fma: git ls-files names no .s file"; exit 1; fi; \
	out=$$(grep -nHE 'VFN?M(ADD|SUB)' $$files); \
	if [ -n "$$out" ]; then echo "fused multiply-add in assembly:"; echo "$$out"; exit 1; fi

# The assembly kernels' other builds: all three GEMM bodies (the Go row
# loop that is the whole body off amd64, SSE, and AVX2 where the CPU has
# it), both polar bodies and both GeLU bodies (the Go loop and AVX2) tested
# with GOAMD64=v3 against their bit references (Go must still not contract
# x*y+z into an FMA in the Go loops or the references there), and the
# non-amd64 build (axpy_other.go, polar_other.go, gelu_other.go) compiled
# for arm64. The tests run the Go
# bodies on amd64 in every `go test`; the arm64 vet only compiles them, and
# nothing here runs arm64 code, whose backend may fuse x*y+z.
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

# The race gate: the concurrency-critical packages — worker pool + tensor
# arenas (tensor), rank goroutines, rendezvous collectives, async handles
# and fault injection (simrt, fault), cost memoization (netsim), the event
# engine and its link graphs (devent, topology), overlapped-span recording
# (trace), pooled + chunked pipelines (moe, rbd, kernels), the layer every
# caller drives them through (transport), the overlapped distributed
# trainer with checkpoints, elastic cycles and ZeRO (train), the bucketed
# gradient syncer (zero) and the memory model the trainer's state bytes are
# checked against (memmodel) — plus, by name, the four tests that drive
# RBD through the bench harnesses and the step simulator; the rest of
# bench and baselines are figure sweeps that run ~10x slower with -race.
# The -list check fails when a rename leaves the pattern naming fewer
# than the four, so the gate cannot pass vacuously.
RACE_PKGS = ./internal/tensor ./internal/simrt ./internal/netsim ./internal/trace \
	./internal/moe ./internal/kernels ./internal/rbd ./internal/transport ./internal/train \
	./internal/fault ./internal/devent ./internal/topology ./internal/zero ./internal/memmodel
RACE_NAMED = TestFigure12RBDShape|TestAblationRBDByEPSavingShrinks|TestLayerHarnessGoldenBits|TestSimulateStepRBDNativeBackward
race-fast:
	$(GO) test -race $(RACE_PKGS)
	@n=$$($(GO) test -list '^($(RACE_NAMED))$$' ./internal/bench ./internal/baselines | grep -c '^Test'); \
	if [ "$$n" -ne 4 ]; then echo "race-fast: -run '$(RACE_NAMED)' names $$n tests, want 4"; exit 1; fi
	$(GO) test -race -run '^($(RACE_NAMED))$$' ./internal/bench ./internal/baselines

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
# all-to-all-v that misses the memo (the water-filling engine), the
# three GEMMs at the numeric trainer's shapes, their shared body alone on
# one goroutine at n = 64, 128 and 1024, the fused GeLU forward and
# backward and the GeLU forward alone, one rank's RBD pilot selection at the Large layer's shape, Randn at
# the trainer's shape and SyntheticRouting at the layer's and the step's
# shapes (the block normal sampler under both), and one steady-state
# DistTrainer.Step of each of train_numeric's trainers. A -bench
# pattern that matches nothing passes silently, so the smoke first
# requires `go test -list` to name every benchmark the pattern lists.
SMOKE_BENCH = BenchmarkPFTLayerForwardBackward|BenchmarkMoEFFNForwardBackward|BenchmarkA2AVMiss|BenchmarkMatMulInto|BenchmarkMatMulTInto|BenchmarkTMatMulInto|BenchmarkAxpyGEMM|BenchmarkGeLUWithGrad|BenchmarkGeLU|BenchmarkSelectPilots|BenchmarkRandn|BenchmarkSyntheticRouting|BenchmarkDistTrainerStep
SMOKE_PKGS = ./internal/moe ./internal/train ./internal/devent ./internal/tensor ./internal/rbd

# Quick CI, and the only definition of it (.github/workflows/ci.yml runs
# this target): gofmt + the transport-name grep + the one-body grep + the
# assembly FMA grep + vet + build + the kernels' portability builds + the
# race gate + the fuzz smoke + unit tests of every package (benchmark/ and
# cmd/ included) + a quick microbenchmark smoke run.
ci: fmt-check no-transport-strings one-body no-asm-fma vet build portability race-fast fuzz-smoke
	$(GO) test ./...
	@want=$$(echo '$(SMOKE_BENCH)' | tr '|' '\n' | grep -c .); \
	n=$$($(GO) test -list '^($(SMOKE_BENCH))$$' $(SMOKE_PKGS) | grep -c '^Benchmark'); \
	if [ "$$n" -lt "$$want" ]; then \
		echo "ci: -bench '$(SMOKE_BENCH)' names $$n benchmarks, want $$want"; \
		exit 1; \
	fi
	$(GO) test -run=NONE -bench='^($(SMOKE_BENCH))$$' -benchmem -benchtime=10x $(SMOKE_PKGS)
