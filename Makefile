# Developer workflow for the xmoe reproduction.
#
#   make ci      - what the CI job runs: gofmt, the transport-name grep, the one-body grep (one layer body, one memory setup), the assembly FMA grep, the golden-import grep, vet, build, the portability builds (the kernels at GOAMD64=v3, every package vetted for arm64), the race gate, fuzz smoke, tests, quick bench
#   make test    - full test suite (includes the slow sweep tests)
#   make race    - full race-detector pass (go test -race ./...)
#   make race-fast - race pass over the concurrency-heavy packages and four named bench/baselines tests
#   make rebaseline - re-record the six golden tests' testdata/*.golden files, where DECLARED.md covers each moved key
#   make fuzz-smoke - every Fuzz target in the tree for 10 s each
#   make bench   - package microbenchmarks with allocation counts
#   make bench-figs - paper-figure benchmarks: per-figure host ns/op and allocs (slow)
#   make loc     - non-test Go lines per package and for the tree, then the tracked assembly lines

GO ?= go

.PHONY: all build loc fmt-check no-transport-strings one-body no-asm-fma no-golden-import vet portability test race race-fast rebaseline fuzz-smoke bench bench-figs ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines of every package and of the tree, without blank lines
# or `//` comment lines: the filter the line counts in CHANGES.md quote.
# The tracked assembly (.s) lines, under the same filter, follow on a line
# of their own, outside the Go total.
loc:
	@$(GO) list -f '{{.Dir}} {{range .GoFiles}}{{.}} {{end}}' ./... | \
	while read dir files; do \
		[ -n "$$files" ] || continue; \
		n=$$(cd $$dir && cat $$files | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l); \
		printf '%7d %s\n' $$n $${dir#$(CURDIR)/}; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'
	@n=$$(cat $$(git ls-files '*.s') | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l); \
	printf '%7d assembly (tracked .s files, not in the total)\n' $$n

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
# silently either. And fails on a memmodel.Setup literal in a non-test
# file outside internal/memmodel and internal/baselines: a system's memory
# setup is described once, by baselines.Config.MemSetup, so no figure can
# price a transport or kernel class its system does not run.
one-body:
	@out=$$(grep -rnE 'Compute\(moe\.Stage(Gate|Dispatch|Experts|BwdExperts)\b' --include='*.go' . | grep -v _test.go | grep -v '^\./internal/moe/'); \
	if [ -n "$$out" ]; then echo "MoE layer body stages charged outside internal/moe:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'rbd\.NewDispatcher(' --include='*.go' . | grep -v _test.go | grep -vE '^\./(internal/transport|internal/rbd|benchmark)/'); \
	if [ -n "$$out" ]; then echo "RBD dispatcher built outside transport.Layer:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn 'memmodel\.Setup{' --include='*.go' . | grep -v _test.go | grep -vE '^\./internal/(memmodel|baselines)/'); \
	if [ -n "$$out" ]; then echo "memory setup built outside baselines.Config.MemSetup:"; echo "$$out"; exit 1; fi

# Fails on a fused multiply-add or multiply-subtract (VFMADD*, VFMSUB*,
# VFNMADD*, VFNMSUB*) in any tracked assembly file: the GEMM's AVX2 body
# must round a product to float32 before its add, as the Go loop and the bit
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

# Fails when a non-test file imports internal/golden: the golden helper
# (and its -update flag) stays in test binaries, out of every program and
# off every benchmarked path.
no-golden-import:
	@out=$$(grep -rn '"xmoe/internal/golden"' --include='*.go' . | grep -v _test.go); \
	if [ -n "$$out" ]; then echo "internal/golden imported outside tests:"; echo "$$out"; exit 1; fi

# The assembly kernels' other builds: the GEMM's, the polar kernel's and
# the GeLU kernel's two bodies each (the Go loop, and AVX2 where the CPU
# has it) tested with GOAMD64=v3 against their bit references (Go must still not contract
# x*y+z into an FMA in the Go loops or the references there), and the
# whole module, tests included, compiled and vetted for arm64, so a
# non-amd64 compile break in any package fails (tensor's axpy_other.go,
# polar_other.go and gelu_other.go are the files only that build sees).
# The tests run the Go bodies on amd64 in every `go test`; the arm64 vet
# only compiles them, and nothing here runs arm64 code, whose backend may
# fuse x*y+z.
portability:
	GOAMD64=v3 $(GO) test ./internal/tensor
	GOARCH=arm64 $(GO) vet ./...

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

# Re-records the six golden tests' testdata/*.golden files with
# `go test -update`, over exactly the five packages that hold them (no
# other test binary defines -update). internal/golden refuses to rewrite a
# key whose value moved or that vanished unless a DECLARED.md entry covers
# it, and then fails naming the key; new keys are recorded freely. The
# -list check fails when a rename leaves the pattern naming fewer than the
# six, so the target cannot pass vacuously.
GOLDEN_PKGS = ./internal/bench ./internal/baselines ./internal/moe ./internal/rbd ./internal/simrt
GOLDEN_TESTS = TestExperimentRowsGolden|TestLayerHarnessGoldenBits|TestSimulateStepGoldenBits|TestSyntheticRoutingGoldenBits|TestBlockingGoldenBits|TestCollectiveGoldenBits
rebaseline:
	@n=$$($(GO) test -list '^($(GOLDEN_TESTS))$$' $(GOLDEN_PKGS) | grep -c '^Test'); \
	if [ "$$n" -ne 6 ]; then echo "rebaseline: -run '$(GOLDEN_TESTS)' names $$n tests, want 6"; exit 1; fi
	$(GO) test -run '^($(GOLDEN_TESTS))$$' $(GOLDEN_PKGS) -update

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
# assembly FMA grep + the golden-import grep + vet + build + the portability builds + the
# race gate + the fuzz smoke + unit tests of every package (benchmark/ and
# cmd/ included) + a quick microbenchmark smoke run.
ci: fmt-check no-transport-strings one-body no-asm-fma no-golden-import vet build portability race-fast fuzz-smoke
	$(GO) test ./...
	@want=$$(echo '$(SMOKE_BENCH)' | tr '|' '\n' | grep -c .); \
	n=$$($(GO) test -list '^($(SMOKE_BENCH))$$' $(SMOKE_PKGS) | grep -c '^Benchmark'); \
	if [ "$$n" -lt "$$want" ]; then \
		echo "ci: -bench '$(SMOKE_BENCH)' names $$n benchmarks, want $$want"; \
		exit 1; \
	fi
	$(GO) test -run=NONE -bench='^($(SMOKE_BENCH))$$' -benchmem -benchtime=10x $(SMOKE_PKGS)
