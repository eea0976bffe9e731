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
// group. And the number of heap objects a rank allocates does not grow
// with the EP group: every part's metadata points into an array its
// sender allocated once for the call (simrt.Part). Measured on amd64
// with go1.24: 44 objects per rank at world 16 and 42 at 64; with a
// boxed s1Meta per Stage-1 part, 70 and 116. The garbage collector is off
// while it measures, so no collection can empty the pool between calls.
func TestSymbolicLayerSteadyState(t *testing.T) {
	const perRankSlack = 8 // objects a rank of the larger group may add
	var objects [2]int
	for i, world := range []int{16, 64} {
		bytes, objs, rows := warmSymbolicLayer(t, world)
		objects[i] = objs
		t.Logf("world %d: a warm symbolic fwd+bwd allocates %d B in %d objects per rank; a PFT's rows are %d B",
			world, bytes, objs, rows)
		// Measured on amd64 with go1.24 at world 16: 0.29 of a PFT's rows,
		// a third of it the pilots' replica counts (cntFlat); 1.9 with
		// Stage 0's tables fresh. At world 64 a token's entries reach
		// eight nodes, not two, so it has more pilots and the bookkeeping
		// sized to them grows: the bound holds at 16.
		if world == 16 && bytes > rows/2 {
			t.Errorf("world %d: a warm symbolic fwd+bwd allocates %d B per rank, want <= %d, half a PFT's rows (%d B): Stage 0's tables are allocated again",
				world, bytes, rows/2, rows)
		}
	}
	if objects[1] > objects[0]+perRankSlack {
		t.Errorf("a warm symbolic fwd+bwd allocates %d objects per rank at world 64 against %d at world 16, want at most %d more: a per-part allocation is back (is a Part.Meta boxed?)",
			objects[1], objects[0], perRankSlack)
	}
}

// warmSymbolicLayer runs a symbolic RBD forward + backward of world ranks
// once to warm the pools, then again with the garbage collector off, and
// returns what a warm call allocates per rank, in bytes and in heap
// objects, and one PFT's rows per rank.
func warmSymbolicLayer(t *testing.T, world int) (bytes, objects, rows int) {
	t.Helper()
	cfg := moe.Config{NumExperts: 64, TopK: 8, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	const s, calls = 2048, 4
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
	total0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	for range calls {
		layer()
	}
	runtime.ReadMemStats(&ms)
	return int(ms.TotalAlloc-total0) / (calls * world), int(ms.Mallocs-mallocs0) / (calls * world), rowBytes / world
}
