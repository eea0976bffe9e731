package moe

import (
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// benchCluster builds a congestion-free cluster for benchmarking.
func benchCluster(n int) *simrt.Cluster {
	c := simrt.NewCluster(topology.Frontier(), n, 99)
	c.Net.DisableCongestion = true
	return c
}

// benchConfig is a mid-size layer shape: large enough that the gather /
// scatter / GEMM kernels dominate, small enough for tight bench loops.
func benchConfig() Config {
	return Config{
		NumExperts:     8,
		TopK:           2,
		HModel:         64,
		HFFN:           32,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
}

// BenchmarkPFTLayerForwardBackward measures one numeric forward+backward
// of the padding-free MoE layer on a 4-rank cluster — the paper's hot
// path (gate, gather dispatch, uneven a2a, sequential GEMM, scatter
// combine, and the mirrored backward).
func BenchmarkPFTLayerForwardBackward(b *testing.B) {
	const world, s = 4, 128
	cfg := benchConfig()
	epr := cfg.NumExperts / world

	c := benchCluster(world)
	g := c.WorldGroup()
	// Per-rank fixed inputs, built once outside the timed loop.
	xs := make([]*tensor.Tensor, world)
	routings := make([]Routing, world)
	params := make([]*ExpertParams, world)
	douts := make([]*tensor.Tensor, world)
	for i := 0; i < world; i++ {
		rng := tensor.NewRNG(uint64(4200 + i))
		xs[i] = tensor.Randn(rng, 1, s, cfg.HModel)
		routings[i] = SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		params[i] = NewExpertParams(tensor.NewRNG(uint64(77+i)), epr, cfg.HModel, cfg.HFFN)
		douts[i] = tensor.New(s, cfg.HModel)
		douts[i].Fill(1)
	}
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight, SaveForBackward: true}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Run(func(r *simrt.Rank) error {
			res := PFTForward(r, g, cfg, s, xs[r.ID], routings[r.ID], params[r.ID], opts)
			PFTBackward(r, g, cfg, res.State, douts[r.ID], params[r.ID], PipelineOpts{})
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPFTForwardNumeric measures the forward-only numeric pipeline
// without backward state capture (inference-style steady state).
func BenchmarkPFTForwardNumeric(b *testing.B) {
	const world, s = 4, 128
	cfg := benchConfig()
	epr := cfg.NumExperts / world
	c := benchCluster(world)
	g := c.WorldGroup()
	xs := make([]*tensor.Tensor, world)
	routings := make([]Routing, world)
	params := make([]*ExpertParams, world)
	for i := 0; i < world; i++ {
		rng := tensor.NewRNG(uint64(4300 + i))
		xs[i] = tensor.Randn(rng, 1, s, cfg.HModel)
		routings[i] = SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		params[i] = NewExpertParams(tensor.NewRNG(uint64(99+i)), epr, cfg.HModel, cfg.HFFN)
	}
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Run(func(r *simrt.Rank) error {
			PFTForward(r, g, cfg, s, xs[r.ID], routings[r.ID], params[r.ID], opts)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPFTForwardSymbolic measures the metadata-only pipeline used by
// the large symbolic sweeps (Fig. 9/10): routing, PFT construction, and
// modeled collectives with no payloads.
func BenchmarkPFTForwardSymbolic(b *testing.B) {
	const world, s = 8, 512
	cfg := benchConfig()
	cfg.NumExperts = 16
	c := benchCluster(world)
	g := c.WorldGroup()
	routings := make([]Routing, world)
	for i := 0; i < world; i++ {
		rng := tensor.NewRNG(uint64(4400 + i))
		routings[i] = SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
	}
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Run(func(r *simrt.Rank) error {
			PFTForward(r, g, cfg, s, nil, routings[r.ID], nil, opts)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// buildPFTBenchInput is the sweep-shaped PFT problem: one rank's routing
// at the first Fig. 10a point scaled to s tokens (E = 64, k = 6, skew 0.6,
// capacity factor 1.25), which leaves a third of the experts over
// capacity.
func buildPFTBenchInput(s int) (Routing, Config) {
	cfg := Config{NumExperts: 64, TopK: 6, CapacityFactor: 1.25}
	return SyntheticRouting(tensor.NewRNG(42), s, cfg.NumExperts, cfg.TopK, 0.6), cfg
}

// BenchmarkBuildPFT is the ledger rung for PFT construction alone.
func BenchmarkBuildPFT(b *testing.B) {
	const s = 8192
	rt, cfg := buildPFTBenchInput(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPFT = BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), DropByCapacityWeight)
	}
}

var benchPFT *PFT

// TestBuildPFTAllocsIndependentOfTokens pins the construction's scratch
// discipline: the ERI-arrays, the per-expert offsets and one selection
// buffer — a fixed number of allocations however many tokens are routed
// or segments overflow.
func TestBuildPFTAllocsIndependentOfTokens(t *testing.T) {
	allocs := func(s int) float64 {
		rt, cfg := buildPFTBenchInput(s)
		return testing.AllocsPerRun(5, func() {
			benchPFT = BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), DropByCapacityWeight)
		})
	}
	small, large := allocs(512), allocs(8192)
	if benchPFT.Dropped == 0 {
		t.Fatal("no segment over capacity: the selection path is not exercised")
	}
	// Eight today; the slack absorbs the runtime's own mallocs when a GC
	// cycle lands inside a run, not a per-segment or per-token buffer
	// (a third of 64 segments overflow here).
	if large > small+2 || large > 10 {
		t.Fatalf("BuildPFT allocations: %.0f at S=512, %.0f at S=8192; want a fixed count <= 10", small, large)
	}
}

// BenchmarkSyntheticRouting is the ledger rung for one routing draw at the
// shapes the benchmark workloads hold: the Large layer (E 256, k 8) and the
// Small model's step (E 64, k 6), 4096 tokens each.
func BenchmarkSyntheticRouting(b *testing.B) {
	for _, sh := range []struct {
		name   string
		e, k   int
		tokens int
	}{
		{"layer", 256, 8, 4096},
		{"step", 64, 6, 4096},
	} {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRouting = SyntheticRouting(tensor.NewRNG(uint64(i)), sh.tokens, sh.e, sh.k, 0.6)
			}
		})
	}
}

var benchRouting Routing
