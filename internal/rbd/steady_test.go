//go:build !race

// The race detector's sync.Pool drops a quarter of what it is given at
// random, so the allocation pin below runs in builds without it.

package rbd

import (
	"runtime"
	"runtime/debug"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestSymbolicLayerSteadyState: after one warm call, a symbolic RBD
// forward + backward allocates, per rank, well under one PFT's rows
// (TokenIDs and CombineWeights). Stage 0's row-sized tables — its grouping
// table, its pilot list and the PFT's rows — come from the scratch pool and
// go back when Stage 0 returns, so a warm call draws them without
// allocating; what remains is bookkeeping sized to the pilots or the EP
// group. The garbage collector is off while it measures, so no collection
// can empty the pool between calls.
func TestSymbolicLayerSteadyState(t *testing.T) {
	cfg := moe.Config{NumExperts: 64, TopK: 8, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	const world, s, calls = 16, 2048, 4
	routings := make([]moe.Routing, world)
	rowBytes := 0 // the PFTs' rows, summed over the ranks
	for id := range routings {
		routings[id] = moe.SyntheticRouting(tensor.NewRNG(42+31*uint64(id)), s, cfg.NumExperts, cfg.TopK, 0.6)
		pft := moe.BuildPFT(routings[id], cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
		rowBytes += pft.B() * (8 + 4)
	}
	c := newCluster(world)
	d := NewDispatcher(c, c.WorldGroup(), cfg)
	layer := func() {
		if err := c.Run(func(r *simrt.Rank) error {
			res := Forward(r, d, cfg, s, nil, routings[r.ID], nil, tensor.NewRNG(uint64(r.ID)),
				moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true})
			Backward(r, d, cfg, res.State, nil, nil, moe.PipelineOpts{})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	layer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total0 := ms.TotalAlloc
	for range calls {
		layer()
	}
	runtime.ReadMemStats(&ms)
	perRank := int(ms.TotalAlloc-total0) / (calls * world)
	rows := rowBytes / world
	t.Logf("a warm symbolic fwd+bwd allocates %d B per rank; a PFT's rows are %d B", perRank, rows)
	// Measured on amd64 with go1.24: 0.31 of a PFT's rows, a third of it
	// the pilots' replica counts (cntFlat); 1.9 with Stage 0's tables
	// fresh.
	if perRank > rows/2 {
		t.Errorf("a warm symbolic fwd+bwd allocates %d B per rank, want <= %d, half a PFT's rows (%d B): Stage 0's tables are allocated again",
			perRank, rows/2, rows)
	}
}
