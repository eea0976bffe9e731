package moe

import (
	"errors"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

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
// and C = 1 must not allocate more than it does since the exchange's
// geometry and part and exchange lists come from the call-table pool (the
// ceilings are the per-rank counts measured then, 20.75; 26 since the
// per-expert counts ride as a pointer to the sender's table and a
// returning rank's desync error is built only when read, 33 and 29 since
// the symbolic bodies stopped building rows, and the separate blocking
// bodies allocated 51 and 55).
func TestOverlapSteadyStateAllocsChunkInvariant(t *testing.T) {
	for _, tc := range []struct {
		transport  string
		blockingAt float64
	}{{"pft", 21}, {"padded", 21}} {
		// The race detector's runtime adds 4 to 5 to either body.
		a1 := symbolicOverlapAllocs(t, tc.transport, 1)
		if a1 > tc.blockingAt+allocSlack {
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
		{SaveForBackward: true, OverlapChunks: 8},
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
