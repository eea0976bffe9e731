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
// forward + backward allocates, per rank, neither anything that grows with
// the layer's tokens nor a heap object per EP member. Stage 0's row-sized
// tables (its grouping table, its pilot list, the PFT's rows and its
// over-capacity selection buffer) come from the scratch pool and go back
// when Stage 0 returns; every index table of the call, the Stage-1 replica
// counts (cntFlat) included, comes from the call-table pool and goes back
// when the call ends; and every part's metadata points into an array its
// sender holds (simrt.Part). What remains is bookkeeping sized to the
// experts and the EP group. Measured on amd64 with go1.24 at s = 2,048:
// 12.8 KB in 20 objects per rank at world 16 and 23.3 KB in 19 at world
// 64, against 163 KB of a PFT's rows; at world 16, 12.8 KB at s = 512 and
// 13.2 KB at s = 8,192. With cntFlat and the index tables allocated per
// call, 47.6 KB and 111 KB at s = 2,048 (44 and 42 objects), and at world
// 16 31.9 KB at s = 512 and 116 KB at s = 8,192; with a boxed s1Meta per
// Stage-1 part, 70 and 116 objects.
// The garbage collector is off while it measures, so no collection can
// empty the pools between calls.
func TestSymbolicLayerSteadyState(t *testing.T) {
	const perRankSlack = 8 // objects a rank of the larger group may add
	var objects [2]int
	for i, world := range []int{16, 64} {
		bytes, objs, rows := warmSymbolicLayer(t, world, 2048)
		objects[i] = objs
		t.Logf("world %d: a warm symbolic fwd+bwd allocates %d B in %d objects per rank; a PFT's rows are %d B",
			world, bytes, objs, rows)
		if bytes > rows/4 {
			t.Errorf("world %d: a warm symbolic fwd+bwd allocates %d B per rank, want <= %d, a quarter of a PFT's rows (%d B): a call's tables are allocated again",
				world, bytes, rows/4, rows)
		}
	}
	if objects[1] > objects[0]+perRankSlack {
		t.Errorf("a warm symbolic fwd+bwd allocates %d objects per rank at world 64 against %d at world 16, want at most %d more: a per-part allocation is back (is a Part.Meta boxed?)",
			objects[1], objects[0], perRankSlack)
	}
	const perRankBytes = 1024 // bytes a rank of the longer layer may add
	short, _, _ := warmSymbolicLayer(t, 16, 512)
	long, _, _ := warmSymbolicLayer(t, 16, 8192)
	t.Logf("world 16: a warm symbolic fwd+bwd allocates %d B per rank at s = 512 and %d B at s = 8192", short, long)
	if long-short >= perRankBytes || short-long >= perRankBytes {
		t.Errorf("a warm symbolic fwd+bwd allocates %d B per rank at s = 8192 against %d B at s = 512, want them within %d B: a table sized to the tokens is allocated per call",
			long, short, perRankBytes)
	}
}

// warmSymbolicLayer runs a symbolic RBD forward + backward of world ranks
// and s tokens each once to warm the pools, then again with the garbage
// collector off, and returns what a warm call allocates per rank, in
// bytes and in heap objects, and one PFT's rows per rank.
func warmSymbolicLayer(t *testing.T, world, s int) (bytes, objects, rows int) {
	t.Helper()
	cfg := moe.Config{NumExperts: 64, TopK: 8, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	const calls = 4
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
