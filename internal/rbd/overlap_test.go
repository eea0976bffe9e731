package rbd

import (
	"math"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestChunkedRBDOverlapFaster asserts the chunked inter-node exchanges
// hide instantiation/merge compute: on a large-hidden configuration the
// simulated layer must be strictly faster than blocking for C >= 2.
func TestChunkedRBDOverlapFaster(t *testing.T) {
	cfg := moe.Config{NumExperts: 64, TopK: 8, HModel: 4096, HFFN: 2048,
		CapacityFactor: 100, BytesPerElem: 2}
	const world, s = 16, 1024
	run := func(chunks int) float64 {
		c := newCluster(world)
		g := c.WorldGroup()
		d := NewDispatcher(c, g, cfg)
		ranks, err := c.RunCollect(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(uint64(300 + r.ID))
			routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.3)
			Forward(r, d, cfg, s, nil, routing, nil, tensor.NewRNG(uint64(r.ID)),
				moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, OverlapChunks: chunks})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return simrt.MaxClock(ranks)
	}
	blocking := run(1)
	for _, chunks := range []int{2, 4} {
		if overlapped := run(chunks); overlapped >= blocking {
			t.Errorf("C=%d: RBD overlapped %.6fs not faster than blocking %.6fs",
				chunks, overlapped, blocking)
		}
	}
}

// TestExpertGEMMsHideS2C2 pins the overlap structure of the chunked RBD
// path: the intra-node S2/C2 exchanges run as in-flight spans under the
// expert GEMMs / merge compute, so the clock charge attributed to them
// must be strictly below their physical duration (partially or fully
// hidden), on a configuration with enough expert compute to cover them.
func TestExpertGEMMsHideS2C2(t *testing.T) {
	cfg := moe.Config{NumExperts: 64, TopK: 8, HModel: 4096, HFFN: 2048,
		CapacityFactor: 100, BytesPerElem: 2}
	const world, s = 16, 1024
	c := newCluster(world)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(300 + r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.3)
		Forward(r, d, cfg, s, nil, routing, nil, tensor.NewRNG(uint64(r.ID)),
			moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, OverlapChunks: 4})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range ranks {
		// Both intra-node exchanges must run as in-flight (asynchronous)
		// spans.
		for _, stage := range []string{StageS2A2A, StageC2A2A} {
			if rk.Trace.OverlappedTotal(stage) <= 0 {
				t.Fatalf("rank %d: %s has no in-flight span — the exchange is not asynchronous", rk.ID, stage)
			}
		}
		// The pilot GEMMs run between the S2 issue and its wait, so part
		// of S2's duration must be hidden: the clock charge stays
		// strictly below the physical span. (C2's charge also includes
		// BSP straggler skew — the wait runs to the slowest member's
		// finish, as a blocking exchange would — so the strict assertion
		// only holds for S2, where the preceding S1 waits synchronise
		// the members.)
		inFlight := rk.Trace.OverlappedTotal(StageS2A2A)
		if charged := rk.Trace.Total(StageS2A2A); charged >= inFlight {
			t.Errorf("rank %d: %s charged %.6fs of %.6fs in flight — nothing hidden behind the pilot GEMMs",
				rk.ID, StageS2A2A, charged, inFlight)
		}
	}
}

// steadyAllocs returns the steady-state allocations per rank-iteration of
// one RBD fwd+bwd at the given chunk count on two nodes, symbolic or
// numeric (cluster, dispatcher, routing and, numeric, the inputs warm; see
// the moe twin, symbolicOverlapAllocs).
func steadyAllocs(t *testing.T, chunks int, numeric bool) float64 {
	t.Helper()
	cfg := bwdCfg
	const world, s, iters = 16, 48, 4
	c := newCluster(world)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	fwd := moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks}
	bwd := moe.PipelineOpts{OverlapChunks: chunks}
	routings := make([]moe.Routing, world)
	xs, dOuts := make([]*tensor.Tensor, world), make([]*tensor.Tensor, world)
	params := make([]*moe.ExpertParams, world)
	for i := range routings {
		routings[i] = moe.SyntheticRouting(tensor.NewRNG(uint64(6300+i)), s, cfg.NumExperts, cfg.TopK, 0.6)
		if numeric {
			rng := tensor.NewRNG(uint64(6400 + i))
			xs[i], dOuts[i] = tensor.Randn(rng, 1, s, cfg.HModel), tensor.Randn(rng, 0.3, s, cfg.HModel)
			params[i] = moe.NewExpertParams(rng, cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
		}
	}
	step := func(n int) {
		for it := 0; it < n; it++ {
			if err := c.Run(func(r *simrt.Rank) error {
				res := Forward(r, d, cfg, s, xs[r.ID], routings[r.ID], params[r.ID], tensor.NewRNG(uint64(r.ID)), fwd)
				Backward(r, d, cfg, res.State, dOuts[r.ID], params[r.ID], bwd)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}
	}
	step(2)
	base := testing.AllocsPerRun(5, func() { step(0) })
	loaded := testing.AllocsPerRun(5, func() { step(iters) })
	return (loaded - base) / (world * iters)
}

// TestSteadyStateAllocs is the allocation regression of the one-body RBD
// pipelines: C = 1 must not allocate more than it does since every index
// table of a call comes from the call-table pool (the ceiling is the
// per-rank count measured then, 20.7, rounded up; 45 while they were
// allocated per call, 76 while the Stage-1 and Stage-2 metadata were boxed
// values, 80 before RBD ran through the moe layer body as an exchange,
// when a symbolic layer had just started carrying replica counts instead
// of replica rows, 90 before that, and the separate blocking bodies
// allocated 129), and an extra chunk may add the async-handle machinery of
// its four inter-node exchanges, not per-row index lists.
func TestSteadyStateAllocs(t *testing.T) {
	const blockingAt = 21
	// The race detector's runtime adds 12 to 13.
	a1 := steadyAllocs(t, 1, false)
	if a1 > blockingAt+allocSlack {
		t.Errorf("C=1 allocates %.1f per rank-iteration, the ceiling is %.1f", a1, float64(blockingAt))
	}
	a2, a8 := steadyAllocs(t, 2, false), steadyAllocs(t, 8, false)
	if perChunk := (a8 - a2) / 6; perChunk > 20 {
		t.Errorf("%.1f allocs per extra chunk per rank-iteration (C=2: %.1f, C=8: %.1f)", perChunk, a2, a8)
	}
}

// TestNumericSteadyStateAllocs is the numeric twin: the replica counts
// every charge reads are carved from backings a numeric pass already
// allocated, so it allocates no more objects than before they existed
// (331.7 at C = 1 and 395.8 at C = 4 then). The ceilings are the counts
// measured since every index table of a call, the numeric row map, merge
// targets and replica records included, comes from the call-table pool
// (149.5 and 207.4; 186 and 244 were the ceilings while no part's metadata
// was boxed and the reverse-S1 weight gradients shared one backing,
// 243.4 and 301.3 before that; 281 and 369 since RBD runs through the moe
// layer body, 328.7 and 392.8 before that): its row map is built once,
// forward, and its one-chunk backward runs one dX chain per expert
// segment.
func TestNumericSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		chunks  int
		ceiling float64
	}{{1, 150}, {4, 208}} {
		// The race detector's runtime adds 16 to 19.
		if a := steadyAllocs(t, tc.chunks, true); a > tc.ceiling+allocSlack {
			t.Errorf("numeric C=%d allocates %.1f per rank-iteration, the ceiling is %.1f", tc.chunks, a, tc.ceiling)
		}
	}
}

// TestExpectedRedundancyRateMatchesMonteCarlo compares the closed-form
// redundancy rate against AnalyzeRedundancy on uniform routing. The
// closed form sums the exact per-node hit probability over the canonical
// placement, so the non-divisible E/nodes cases (E=10 over 4 nodes places
// 3/2/3/2) are exact too — only sampling noise remains; see
// TestExpectedRedundancyRateExactInvariant for the big.Rat pin.
func TestExpectedRedundancyRateMatchesMonteCarlo(t *testing.T) {
	for _, tc := range []struct {
		e, k, nodes int
		tol         float64
	}{
		{8, 3, 4, 0.01},   // divisible
		{10, 3, 4, 0.02},  // non-divisible: nodes hold 3/2/3/2 experts
		{10, 4, 4, 0.025}, // non-divisible, larger fan-out
	} {
		nodeOfExpert := func(e int) int { return e * tc.nodes / tc.e }
		const s = 20000
		rt := moe.SyntheticRouting(tensor.NewRNG(77), s, tc.e, tc.k, 0)
		mc := AnalyzeRedundancy(rt, nodeOfExpert, 0).Rate()
		want := ExpectedRedundancyRate(tc.e, tc.k, tc.nodes)
		if diff := math.Abs(mc - want); diff > tc.tol {
			t.Errorf("E=%d k=%d nodes=%d: Monte-Carlo %.4f vs closed form %.4f (|diff| %.4f > %.4f)",
				tc.e, tc.k, tc.nodes, mc, want, diff, tc.tol)
		}
	}
}
