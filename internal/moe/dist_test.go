package moe

import (
	"fmt"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// expertWeights returns deterministic weights for global expert e, so
// every rank (and the reference) agrees on expert parameters.
func expertWeights(e, h, f int) (w1, w2 *tensor.Tensor) {
	rng := tensor.NewRNG(uint64(1000 + e))
	return tensor.Randn(rng, 0.05, h, f), tensor.Randn(rng, 0.05, f, h)
}

func localParams(member, epr, h, f int) *ExpertParams {
	p := &ExpertParams{W1: make([]*tensor.Tensor, epr), W2: make([]*tensor.Tensor, epr)}
	for le := 0; le < epr; le++ {
		p.W1[le], p.W2[le] = expertWeights(member*epr+le, h, f)
	}
	return p
}

// referenceMoE computes the expected layer output given the retained
// assignments of a PFT: out[t] = sum over retained (t,e) of
// w * FFN_e(x[t]).
func referenceMoE(x *tensor.Tensor, pft *PFT, h, f int) *tensor.Tensor {
	out := tensor.New(x.Rows(), h)
	for i := range pft.TokenIDs {
		t, e, w := pft.TokenIDs[i], pft.ExpertIDs[i], pft.CombineWeights[i]
		w1, w2 := expertWeights(e, h, f)
		xi := tensor.FromSlice(x.Row(t), 1, h)
		hid := tensor.MatMul(xi, w1)
		tensor.GeLU(hid)
		y := tensor.MatMul(hid, w2)
		dst := out.Row(t)
		for j, v := range y.Data {
			dst[j] += w * v
		}
	}
	return out
}

func newMoECluster(t *testing.T, n int) *simrt.Cluster {
	t.Helper()
	c := simrt.NewCluster(topology.Frontier(), n, 99)
	c.Net.DisableCongestion = true
	return c
}

func distConfig(e, k int) Config {
	return Config{
		NumExperts:     e,
		TopK:           k,
		HModel:         12,
		HFFN:           8,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
}

// runPipeline runs pipeline once on every rank of c over seeded routing,
// handed the input and the expert weights when numeric and nil otherwise,
// and returns each rank's result.
func runPipeline(t *testing.T, pipeline func(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult,
	c *simrt.Cluster, cfg Config, s int, numeric bool, opts PipelineOpts) map[int]LayerResult {
	t.Helper()
	g := c.WorldGroup()
	epr := cfg.NumExperts / c.NumRanks
	results := make(map[int]LayerResult)
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(500 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.7)
		params := localParams(g.IndexOf(r.ID), epr, cfg.HModel, cfg.HFFN)
		if !numeric {
			x, params = nil, nil
		}
		res := pipeline(r, g, cfg, s, x, routing, params, opts)
		mu.Lock()
		results[r.ID] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestSymbolicLayerKeepsCounts pins what the symbolic pipelines drop: a
// symbolic forward builds its PFT or padded plan from counts alone, and
// must report the numeric run's routed, received and dropped rows and
// reach its memory peak, on the same routing — with the rows themselves
// left unbuilt.
func TestSymbolicLayerKeepsCounts(t *testing.T) {
	const world, s = 4, 48
	cfg := distConfig(8, 3)
	type pipeline func(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult
	for _, tc := range []struct {
		name string
		pipe pipeline
		opts PipelineOpts
	}{
		{"pft/weight", PFTForward, PipelineOpts{DropPolicy: DropByCapacityWeight}},
		{"pft/position", PFTForward, PipelineOpts{DropPolicy: DropNegativeThenPosition}},
		{"pft/caps", PFTForward, PipelineOpts{DropPolicy: DropByCapacityWeight, CapacityByExpert: []int{3, 9, 20, 1, 5, 30, 7, 2}}},
		{"padded/weight", PaddedForward, PipelineOpts{DropPolicy: DropByCapacityWeight}},
		{"padded/position", PaddedForward, PipelineOpts{DropPolicy: DropNegativeThenPosition}},
	} {
		run := func(numeric bool) ([]LayerResult, []*simrt.Rank) {
			c := newMoECluster(t, world)
			g := c.WorldGroup()
			opts := tc.opts
			opts.SaveForBackward = true
			results := make([]LayerResult, world)
			ranks, err := c.RunCollect(func(r *simrt.Rank) error {
				rng := tensor.NewRNG(uint64(700 + r.ID))
				x := tensor.Randn(rng, 1, s, cfg.HModel)
				routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.9)
				var params *ExpertParams
				if !numeric {
					x = nil
				} else {
					params = localParams(g.IndexOf(r.ID), cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
				}
				results[r.ID] = tc.pipe(r, g, cfg, s, x, routing, params, opts)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return results, ranks
		}
		num, numRanks := run(true)
		sym, symRanks := run(false)
		for id := range sym {
			n, y := num[id], sym[id]
			if y.RoutedTokens != n.RoutedTokens || y.RecvTokens != n.RecvTokens || y.Dropped != n.Dropped {
				t.Errorf("%s rank %d: symbolic routed/received/dropped %d/%d/%d, numeric %d/%d/%d", tc.name, id,
					y.RoutedTokens, y.RecvTokens, y.Dropped, n.RoutedTokens, n.RecvTokens, n.Dropped)
			}
			if a, b := symRanks[id].Dev().Mem.Peak(), numRanks[id].Dev().Mem.Peak(); a != b {
				t.Errorf("%s rank %d: symbolic memory peak %d, numeric %d", tc.name, id, a, b)
			}
			if y.PFT != nil && (y.PFT.TokenIDs != nil || y.PFT.B() != n.PFT.B()) {
				t.Errorf("%s rank %d: symbolic PFT has %d rows for B %d, numeric B %d", tc.name, id, len(y.PFT.TokenIDs), y.PFT.B(), n.PFT.B())
			}
		}
	}
}

func TestPFTForwardMatchesReference(t *testing.T) {
	c := newMoECluster(t, 4)
	cfg := distConfig(8, 3)
	const s = 24
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(500 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.7)
		params := localParams(g.IndexOf(r.ID), 2, cfg.HModel, cfg.HFFN)
		res := PFTForward(r, g, cfg, s, x, routing, params, PipelineOpts{DropPolicy: DropByCapacityWeight})
		want := referenceMoE(x, res.PFT, cfg.HModel, cfg.HFFN)
		if !res.Output.Equal(want, 1e-3) {
			return fmt.Errorf("rank %d: PFT forward differs from reference", r.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPaddedForwardMatchesPFTForward(t *testing.T) {
	// Under the FCFS drop policy both pipelines retain exactly the same
	// assignments, so outputs must agree within float tolerance. This is
	// the §5.6-style correctness validation of the padding-free pipeline.
	c1 := newMoECluster(t, 4)
	c2 := newMoECluster(t, 4)
	cfg := distConfig(8, 3)
	const s = 24
	opts := PipelineOpts{DropPolicy: DropNegativeThenPosition}
	pftRes := runPipeline(t, PFTForward, c1, cfg, s, true, opts)
	padRes := runPipeline(t, PaddedForward, c2, cfg, s, true, opts)
	for rank, pr := range pftRes {
		qr := padRes[rank]
		if pr.Output == nil || qr.Output == nil {
			t.Fatalf("rank %d: nil outputs", rank)
		}
		if !pr.Output.Equal(qr.Output, 1e-3) {
			t.Fatalf("rank %d: padded and PFT outputs differ", rank)
		}
		if pr.Dropped != qr.Dropped {
			t.Fatalf("rank %d: dropped %d vs %d", rank, pr.Dropped, qr.Dropped)
		}
	}
}

func TestPipelinesTokenConservation(t *testing.T) {
	c := newMoECluster(t, 8)
	cfg := distConfig(16, 4)
	res := runPipeline(t, PFTForward, c, cfg, 32, false, PipelineOpts{DropPolicy: DropByCapacityWeight})
	var routed, received int
	for _, r := range res {
		routed += r.RoutedTokens
		received += r.RecvTokens
	}
	if routed != received {
		t.Fatalf("tokens not conserved across ranks: routed %d received %d", routed, received)
	}
	if routed == 0 {
		t.Fatal("no tokens routed")
	}
}

func TestSymbolicModeMatchesNumericCounts(t *testing.T) {
	cfg := distConfig(8, 3)
	const s = 24
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight}
	numRes := runPipeline(t, PFTForward, newMoECluster(t, 4), cfg, s, true, opts)
	symRes := runPipeline(t, PFTForward, newMoECluster(t, 4), cfg, s, false, opts)
	for rank := range numRes {
		if numRes[rank].RoutedTokens != symRes[rank].RoutedTokens ||
			numRes[rank].RecvTokens != symRes[rank].RecvTokens {
			t.Fatalf("rank %d: symbolic counts diverge from numeric", rank)
		}
		if symRes[rank].Output != nil {
			t.Fatal("symbolic mode must not produce numeric output")
		}
	}
}

func TestPaddedUsesMoreMemoryThanPFT(t *testing.T) {
	// Table 4's core claim: the padded pipeline's activation memory
	// exceeds the PFT pipeline's at equal configuration.
	cfg := distConfig(16, 4)
	const s = 64
	cPad := newMoECluster(t, 4)
	cPft := newMoECluster(t, 4)
	opts := PipelineOpts{DropPolicy: DropNegativeThenPosition}
	runPipeline(t, PaddedForward, cPad, cfg, s, false, opts)
	runPipeline(t, PFTForward, cPft, cfg, s, false, opts)
	if cPad.PeakMemory() <= cPft.PeakMemory() {
		t.Fatalf("padded peak %d should exceed PFT peak %d", cPad.PeakMemory(), cPft.PeakMemory())
	}
}

func TestPaddedCommunicatesMoreThanPFT(t *testing.T) {
	// The even all-to-all carries zero-padding; the uneven one does not.
	cfg := distConfig(16, 4)
	const s = 64
	cPad := newMoECluster(t, 8)
	cPft := newMoECluster(t, 8)
	opts := PipelineOpts{DropPolicy: DropNegativeThenPosition}
	padRes := runPipeline(t, PaddedForward, cPad, cfg, s, false, opts)
	pftRes := runPipeline(t, PFTForward, cPft, cfg, s, false, opts)
	// Padded RecvTokens includes padding slots; PFT's equals real tokens.
	var padRecv, pftRecv int
	for rank := range padRes {
		padRecv += padRes[rank].RecvTokens
		pftRecv += pftRes[rank].RecvTokens
	}
	if padRecv <= pftRecv {
		t.Fatalf("padded rows %d should exceed PFT rows %d", padRecv, pftRecv)
	}
}

func TestTraceStagesRecorded(t *testing.T) {
	c := newMoECluster(t, 4)
	cfg := distConfig(8, 3)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(r.ID))
		routing := SyntheticRouting(rng, 16, cfg.NumExperts, cfg.TopK, 0.5)
		PFTForward(r, g, cfg, 16, nil, routing, nil, PipelineOpts{})
		for _, stage := range []string{StageGate, StageDispatch, StageDispatchA2A,
			StageExperts, StageCombineA2A, StageCombine, StageOthers} {
			if r.Trace.Total(stage) <= 0 {
				return fmt.Errorf("stage %q not recorded", stage)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTutelCombineBytesIncreaseMemory(t *testing.T) {
	// Tutel's fp32 A_combine on AMD (Table 4) must show up as extra
	// combine-buffer memory.
	cfg := distConfig(16, 4)
	const s = 64
	c16 := newMoECluster(t, 4)
	c32 := newMoECluster(t, 4)
	opts16 := PipelineOpts{DropPolicy: DropNegativeThenPosition, Kernels: KernelsVendor}
	opts32 := opts16
	opts32.CombineBytes = 4
	runPipeline(t, PaddedForward, c16, cfg, s, false, opts16)
	runPipeline(t, PaddedForward, c32, cfg, s, false, opts32)
	if c32.PeakMemory() <= c16.PeakMemory() {
		t.Fatal("fp32 combine buffers must increase peak memory")
	}
}

func TestSingleRankEPWorks(t *testing.T) {
	c := newMoECluster(t, 1)
	cfg := distConfig(4, 2)
	res := runPipeline(t, PFTForward, c, cfg, 16, true, PipelineOpts{DropPolicy: DropByCapacityWeight})
	if res[0].RoutedTokens != res[0].RecvTokens {
		t.Fatal("single-rank EP must keep all tokens local")
	}
}

func TestEPCheckPanicsOnIndivisibleExperts(t *testing.T) {
	c := newMoECluster(t, 3)
	cfg := distConfig(8, 2) // 8 % 3 != 0
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		defer func() { recover() }()
		PFTForward(r, g, cfg, 4, nil, SyntheticRouting(tensor.NewRNG(1), 4, 8, 2, 0), nil, PipelineOpts{})
		return fmt.Errorf("expected panic")
	})
	// All ranks panic before any collective, so all report the recover
	// path (nil error) — the run must NOT return the sentinel error.
	if err != nil {
		t.Fatal("epCheck should panic before any collective call")
	}
}
