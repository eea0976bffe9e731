package moe

import (
	"errors"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// TestChunkedPFTForwardBitIdenticalToBlocking is the overlap determinism
// regression: the chunked pipeline re-times the dispatch/expert/combine
// middle section but must never change a single bit of the numeric
// output, for any chunk count (including counts that do not divide the
// per-expert segments).
func TestChunkedPFTForwardBitIdenticalToBlocking(t *testing.T) {
	cfg := distConfig(8, 3)
	const world, s = 4, 32
	blocking := runPipeline(t, PFTForward, newMoECluster(t, world), cfg, s, PipelineOpts{
		Numeric: true, DropPolicy: DropByCapacityWeight,
	})
	for _, chunks := range []int{2, 3, 4, 8, 64} {
		chunked := runPipeline(t, PFTForward, newMoECluster(t, world), cfg, s, PipelineOpts{
			Numeric: true, DropPolicy: DropByCapacityWeight, OverlapChunks: chunks,
		})
		for rank, bl := range blocking {
			ch := chunked[rank]
			if ch.RoutedTokens != bl.RoutedTokens || ch.RecvTokens != bl.RecvTokens {
				t.Fatalf("C=%d rank %d routed/recv %d/%d, want %d/%d", chunks, rank,
					ch.RoutedTokens, ch.RecvTokens, bl.RoutedTokens, bl.RecvTokens)
			}
			bitEqual(t, "chunked PFT output", bl.Output, ch.Output)
		}
	}
}

// TestChunkedPaddedForwardBitIdenticalToBlocking pins the padded
// pipeline's chunked slot exchange against the blocking even all-to-all.
func TestChunkedPaddedForwardBitIdenticalToBlocking(t *testing.T) {
	cfg := distConfig(8, 3)
	const world, s = 4, 32
	blocking := runPipeline(t, PaddedForward, newMoECluster(t, world), cfg, s, PipelineOpts{
		Numeric: true, DropPolicy: DropNegativeThenPosition,
	})
	for _, chunks := range []int{2, 3, 4, 16} {
		chunked := runPipeline(t, PaddedForward, newMoECluster(t, world), cfg, s, PipelineOpts{
			Numeric: true, DropPolicy: DropNegativeThenPosition, OverlapChunks: chunks,
		})
		for rank, bl := range blocking {
			bitEqual(t, "chunked padded output", bl.Output, chunked[rank].Output)
		}
	}
}

// TestChunkedPooledBitIdenticalToFresh extends the pooled-vs-fresh
// regression to the overlap path: the chunked pipeline draws chunk
// buffers from the rank arenas, and steady-state reuse must stay
// bit-identical to allocate-fresh execution.
func TestChunkedPooledBitIdenticalToFresh(t *testing.T) {
	cfg := distConfig(8, 3)
	const world, s = 4, 32
	run := func(disablePools bool, iters int) map[int]LayerResult {
		c := newMoECluster(t, world)
		c.DisablePools = disablePools
		var last map[int]LayerResult
		for it := 0; it < iters; it++ {
			last = runPipeline(t, PFTForward, c, cfg, s, PipelineOpts{
				Numeric: true, DropPolicy: DropByCapacityWeight, OverlapChunks: 4,
			})
		}
		return last
	}
	fresh := run(true, 1)
	pooled := run(false, 3)
	for rank, f := range fresh {
		bitEqual(t, "pooled chunked output", f.Output, pooled[rank].Output)
	}
}

// overlapClock runs one symbolic layer on a communication-heavy
// configuration and returns the simulated wall-clock.
func overlapClock(t *testing.T, pipeline func(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult, chunks int) float64 {
	t.Helper()
	cfg := Config{
		NumExperts: 64, TopK: 6, HModel: 4096, HFFN: 2048,
		CapacityFactor: 1.25, BytesPerElem: 2,
	}
	const world, s = 16, 1024
	c := simrt.NewCluster(topology.Frontier(), world, 7)
	c.Net.DisableCongestion = true
	g := c.WorldGroup()
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(900 + r.ID))
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.3)
		pipeline(r, g, cfg, s, nil, routing, nil, PipelineOpts{
			DropPolicy: DropByCapacityWeight, OverlapChunks: chunks,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return simrt.MaxClock(ranks)
}

// fwdBwdClock runs one symbolic fwd+bwd step on the communication-heavy
// configuration and returns the simulated wall-clock.
func fwdBwdClock(t *testing.T, transport string, chunks int) float64 {
	t.Helper()
	cfg := Config{
		NumExperts: 64, TopK: 6, HModel: 4096, HFFN: 2048,
		CapacityFactor: 1.25, BytesPerElem: 2,
	}
	const world, s = 16, 1024
	c := simrt.NewCluster(topology.Frontier(), world, 7)
	c.Net.DisableCongestion = true
	g := c.WorldGroup()
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks}
	if transport == "padded" {
		opts.DropPolicy = DropNegativeThenPosition
	}
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(900 + r.ID))
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.3)
		switch transport {
		case "pft":
			res := PFTForward(r, g, cfg, s, nil, routing, nil, opts)
			PFTBackward(r, g, cfg, res.State, nil, nil, opts)
		case "padded":
			res := PaddedForward(r, g, cfg, s, nil, routing, nil, opts)
			PaddedBackward(r, g, cfg, res.PaddedState, nil, nil, opts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return simrt.MaxClock(ranks)
}

// TestChunkedFwdBwdStrictlyFaster extends the overlap win to the full
// training step: with the backward's mirrored all-to-alls also chunked,
// the simulated fwd+bwd time must beat the blocking step for every
// C >= 2 on the communication-heavy configuration, in both transports.
func TestChunkedFwdBwdStrictlyFaster(t *testing.T) {
	for _, transport := range []string{"pft", "padded"} {
		blocking := fwdBwdClock(t, transport, 1)
		for _, chunks := range []int{2, 4, 8} {
			overlapped := fwdBwdClock(t, transport, chunks)
			if overlapped >= blocking {
				t.Errorf("%s C=%d: fwd+bwd overlapped %.6fs not faster than blocking %.6fs",
					transport, chunks, overlapped, blocking)
			}
		}
	}
}

// symbolicOverlapAllocs returns the steady-state allocations per
// rank-iteration of one symbolic fwd+bwd overlapped step at the given
// chunk count (cluster and group warm, third iteration onward measured).
func symbolicOverlapAllocs(t *testing.T, transport string, chunks int) float64 {
	t.Helper()
	cfg := distConfig(8, 3)
	const world, s, iters = 4, 64, 8
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks}
	if transport == "padded" {
		opts.DropPolicy = DropNegativeThenPosition
	}
	routings := make([]Routing, world)
	for i := range routings {
		routings[i] = SyntheticRouting(tensor.NewRNG(uint64(6200+i)), s, cfg.NumExperts, cfg.TopK, 0.6)
	}
	step := func(n int) {
		for it := 0; it < n; it++ {
			if err := c.Run(func(r *simrt.Rank) error {
				switch transport {
				case "pft":
					res := PFTForward(r, g, cfg, s, nil, routings[r.ID], nil, opts)
					PFTBackward(r, g, cfg, res.State, nil, nil, opts)
				case "padded":
					res := PaddedForward(r, g, cfg, s, nil, routings[r.ID], nil, opts)
					PaddedBackward(r, g, cfg, res.PaddedState, nil, nil, opts)
				}
				return nil
			}); err != nil {
				t.Error(err)
			}
		}
	}
	step(2) // warm the pools and rendezvous machinery
	base := testing.AllocsPerRun(5, func() { step(0) })
	loaded := testing.AllocsPerRun(5, func() { step(iters) })
	return (loaded - base) / (world * iters)
}

// TestOverlapSteadyStateAllocsChunkInvariant is the allocation regression
// for the one-body pipelines: per-chunk tensor scratch must come from the
// rank arenas and the part slices from flat backing arrays, so growing
// the chunk count from 2 to 8 may only add the async-handle machinery's
// few allocations per extra chunk — not per-chunk buffer allocations —
// and C = 1 must not allocate more than it does since the symbolic bodies
// stopped building rows (the ceilings are the per-rank counts measured
// then; the separate blocking bodies allocated 51 and 55).
func TestOverlapSteadyStateAllocsChunkInvariant(t *testing.T) {
	for _, tc := range []struct {
		transport  string
		blockingAt float64
	}{{"pft", 38}, {"padded", 29}} {
		// +2: the race detector's runtime adds up to 1.3 to either body.
		a1 := symbolicOverlapAllocs(t, tc.transport, 1)
		if a1 > tc.blockingAt+2 {
			t.Errorf("%s: C=1 allocates %.1f per rank-iteration, the ceiling is %.1f",
				tc.transport, a1, tc.blockingAt)
		}
		a2 := symbolicOverlapAllocs(t, tc.transport, 2)
		a8 := symbolicOverlapAllocs(t, tc.transport, 8)
		perChunk := (a8 - a2) / 6
		// Each extra chunk costs two async issues (dispatch-side +
		// combine-side, fwd + bwd = 4 handles) with a handful of
		// rendezvous-internal allocations each; tensor buffers must not
		// appear here.
		if perChunk > 20 {
			t.Errorf("%s: %.1f allocs per extra chunk per rank-iteration (C=2: %.1f, C=8: %.1f); per-chunk buffers are not pooled",
				tc.transport, perChunk, a2, a8)
		}
	}
}

// TestChunkedOverlapStrictlyFaster asserts the point of the subsystem: on
// a configuration where the all-to-alls are a significant share of layer
// time (the Fig. 11 regime), chunked overlapped execution must beat the
// blocking pipeline for every C >= 2, in both pipelines.
func TestChunkedOverlapStrictlyFaster(t *testing.T) {
	for _, tc := range []struct {
		name string
		pipe func(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult
	}{
		{"pft", PFTForward},
		{"padded", PaddedForward},
	} {
		blocking := overlapClock(t, tc.pipe, 1)
		for _, chunks := range []int{2, 4, 8} {
			overlapped := overlapClock(t, tc.pipe, chunks)
			if overlapped >= blocking {
				t.Errorf("%s C=%d: overlapped %.6fs not faster than blocking %.6fs",
					tc.name, chunks, overlapped, blocking)
			}
		}
	}
}

// TestPipelineOptsCheck pins the option validation that replaced the old
// bare panics: invalid combinations produce descriptive errors, valid
// ones (including OverlapChunks + SaveForBackward, supported since the
// backward-overlap work) pass.
func TestPipelineOptsCheck(t *testing.T) {
	valid := []PipelineOpts{
		{},
		{Numeric: true, SaveForBackward: true, OverlapChunks: 8},
		{OverlapChunks: 1, Kernels: KernelsVendor, CombineBytes: 4},
		{SaveForBackward: true}, // symbolic timing-only backward
	}
	for i, o := range valid {
		if err := o.Check(); err != nil {
			t.Errorf("valid opts %d rejected: %v", i, err)
		}
	}
	invalid := []PipelineOpts{
		{OverlapChunks: -1},
		{OverlapChunks: maxOverlapChunks + 1},
		{CombineBytes: -2},
		{Kernels: KernelProfile(99)},
		{DropPolicy: DropPolicy(-3)},
	}
	for i, o := range invalid {
		if err := o.Check(); err == nil {
			t.Errorf("invalid opts %d accepted", i)
		}
	}
}

// TestPipelineRejectsInvalidOpts: all four pipelines surface the Check
// error on entry instead of silently misbehaving (the backward passes used
// to skip the check their forwards make).
func TestPipelineRejectsInvalidOpts(t *testing.T) {
	cfg := distConfig(8, 3)
	c := newMoECluster(t, 4)
	g := c.WorldGroup()
	bad := PipelineOpts{OverlapChunks: -4}
	for name, call := range map[string]func(r *simrt.Rank, routing Routing){
		"PFTForward":     func(r *simrt.Rank, rt Routing) { PFTForward(r, g, cfg, 16, nil, rt, nil, bad) },
		"PaddedForward":  func(r *simrt.Rank, rt Routing) { PaddedForward(r, g, cfg, 16, nil, rt, nil, bad) },
		"PFTBackward":    func(r *simrt.Rank, _ Routing) { PFTBackward(r, g, cfg, nil, nil, nil, bad) },
		"PaddedBackward": func(r *simrt.Rank, _ Routing) { PaddedBackward(r, g, cfg, nil, nil, nil, bad) },
	} {
		err := c.Run(func(r *simrt.Rank) error {
			defer func() {
				// The panic fires before any collective, so no rendezvous is
				// pending and peers are not blocked.
				p := recover()
				err, _ := p.(error)
				var oe *OptionError
				if !errors.As(err, &oe) || oe.Opt != "OverlapChunks" {
					t.Errorf("%s: invalid PipelineOpts must panic with the Check *OptionError, got %v", name, p)
				}
			}()
			call(r, SyntheticRouting(tensor.NewRNG(uint64(r.ID)), 16, cfg.NumExperts, cfg.TopK, 0.5))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// fwdBwdPass captures one rank's forward output and backward gradients.
type fwdBwdPass struct {
	out, dx  *tensor.Tensor
	dw1, dw2 []*tensor.Tensor
	dcw      []float32
}

// runFwdBwd executes one numeric forward+backward of the given transport
// ("pft" or "padded") on a fresh cluster with deterministic inputs, with
// independent chunk counts for the two passes.
func runFwdBwd(t *testing.T, transport string, world, s int, cfg Config, fwdChunks, bwdChunks int) map[int]fwdBwdPass {
	t.Helper()
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	epr := cfg.NumExperts / world
	results := make(map[int]fwdBwdPass)
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(500 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.7)
		params := localParams(g.IndexOf(r.ID), epr, cfg.HModel, cfg.HFFN)
		dOut := tensor.New(s, cfg.HModel)
		for i := range dOut.Data {
			dOut.Data[i] = float32(i%13)*0.1 - 0.5
		}
		fwdOpts := PipelineOpts{Numeric: true, SaveForBackward: true, OverlapChunks: fwdChunks}
		bwdOpts := PipelineOpts{Numeric: true, OverlapChunks: bwdChunks}
		var pass fwdBwdPass
		switch transport {
		case "pft":
			fwdOpts.DropPolicy = DropByCapacityWeight
			res := PFTForward(r, g, cfg, s, x, routing, params, fwdOpts)
			bwd := PFTBackward(r, g, cfg, res.State, dOut, params, bwdOpts)
			pass = fwdBwdPass{out: res.Output, dx: bwd.DX, dw1: bwd.DW1, dw2: bwd.DW2, dcw: bwd.DCombineWeights}
		case "padded":
			fwdOpts.DropPolicy = DropNegativeThenPosition
			bwdOpts.DropPolicy = DropNegativeThenPosition
			res := PaddedForward(r, g, cfg, s, x, routing, params, fwdOpts)
			bwd := PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, bwdOpts)
			pass = fwdBwdPass{out: res.Output, dx: bwd.DX, dw1: bwd.DW1, dw2: bwd.DW2, dcw: bwd.DCombineWeights}
		}
		mu.Lock()
		results[r.ID] = pass
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func comparePasses(t *testing.T, label string, want, got map[int]fwdBwdPass) {
	t.Helper()
	for rank, w := range want {
		gp := got[rank]
		bitEqual(t, label+" output", w.out, gp.out)
		bitEqual(t, label+" dX", w.dx, gp.dx)
		for e := range w.dw1 {
			bitEqual(t, label+" dW1", w.dw1[e], gp.dw1[e])
			bitEqual(t, label+" dW2", w.dw2[e], gp.dw2[e])
		}
		if len(w.dcw) != len(gp.dcw) {
			t.Fatalf("%s rank %d: dCombineWeights length %d vs %d", label, rank, len(w.dcw), len(gp.dcw))
		}
		for i := range w.dcw {
			if w.dcw[i] != gp.dcw[i] {
				t.Fatalf("%s rank %d: dCombineWeights mismatch at %d", label, rank, i)
			}
		}
	}
}

// TestChunkedPFTFwdBwdBitIdenticalToBlocking is the backward-overlap
// determinism regression: the chunked forward (with state capture) plus
// the chunked backward must reproduce the blocking fwd+bwd gradients bit
// for bit, at every chunk count and also when the two passes use
// different chunk counts (the saved state is chunk-count invariant).
func TestChunkedPFTFwdBwdBitIdenticalToBlocking(t *testing.T) {
	cfg := distConfig(8, 3)
	const world, s = 4, 32
	blocking := runFwdBwd(t, "pft", world, s, cfg, 1, 1)
	for _, chunks := range []int{2, 3, 4, 8} {
		comparePasses(t, "fwd+bwd chunked", blocking, runFwdBwd(t, "pft", world, s, cfg, chunks, chunks))
	}
	// Mixed chunk counts between the passes.
	comparePasses(t, "fwd chunked only", blocking, runFwdBwd(t, "pft", world, s, cfg, 4, 1))
	comparePasses(t, "bwd chunked only", blocking, runFwdBwd(t, "pft", world, s, cfg, 1, 4))
	comparePasses(t, "mixed chunks", blocking, runFwdBwd(t, "pft", world, s, cfg, 2, 8))
}

// TestChunkedPaddedFwdBwdBitIdenticalToBlocking pins the padded
// transport's chunked fwd+bwd against its blocking path bit for bit.
func TestChunkedPaddedFwdBwdBitIdenticalToBlocking(t *testing.T) {
	cfg := distConfig(8, 3)
	const world, s = 4, 32
	blocking := runFwdBwd(t, "padded", world, s, cfg, 1, 1)
	for _, chunks := range []int{2, 3, 4, 16} {
		comparePasses(t, "padded fwd+bwd chunked", blocking, runFwdBwd(t, "padded", world, s, cfg, chunks, chunks))
	}
	comparePasses(t, "padded mixed chunks", blocking, runFwdBwd(t, "padded", world, s, cfg, 4, 2))
}
