//go:build !race

// The race detector's sync.Pool drops a quarter of what it is given at
// random, so the allocation pin below runs in builds without it.

package moe

import (
	"runtime"
	"runtime/debug"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestSymbolicPFTAllocsIndependentOfEP: the heap objects a rank allocates
// for a warm symbolic PFT forward + backward do not grow with the EP
// group, and its bytes do not grow with the layer's tokens. The per-expert
// counts ride the dispatch as a pointer to the sender's counts table
// (simrt.Part), not as a boxed slice header per part, and the exchange's
// geometry and part and exchange lists come from the call-table pool
// (CallTables). Measured on amd64 with go1.24: 15 objects per rank at
// world 16 and 14 at 64; with the boxed header, 40 and 86. At world 16 a
// rank allocates 7,440 B at s = 512 and 7,442 B at s = 8,192; 14,320 B and
// 14,323 B with the tables allocated per call. The garbage collector is
// off while it measures.
func TestSymbolicPFTAllocsIndependentOfEP(t *testing.T) {
	const perRankSlack = 8 // objects a rank of the larger group may add
	_, w16 := warmSymbolicPFT(t, 16, 2048)
	_, w64 := warmSymbolicPFT(t, 64, 2048)
	t.Logf("a warm symbolic PFT fwd+bwd allocates %d objects per rank at world 16, %d at world 64", w16, w64)
	if w64 > w16+perRankSlack {
		t.Errorf("a warm symbolic PFT fwd+bwd allocates %d objects per rank at world 64 against %d at world 16, want at most %d more: a per-part allocation is back (is a Part.Meta boxed?)",
			w64, w16, perRankSlack)
	}
	const (
		perRankBytes = 1024    // bytes a rank of the longer layer may add
		ceiling      = 8 << 10 // bytes a rank may allocate at world 16
	)
	short, _ := warmSymbolicPFT(t, 16, 512)
	long, _ := warmSymbolicPFT(t, 16, 8192)
	t.Logf("world 16: a warm symbolic PFT fwd+bwd allocates %d B per rank at s = 512 and %d B at s = 8192", short, long)
	if long-short >= perRankBytes || short-long >= perRankBytes {
		t.Errorf("a warm symbolic PFT fwd+bwd allocates %d B per rank at s = 8192 against %d B at s = 512, want them within %d B: a table sized to the tokens is allocated per call",
			long, short, perRankBytes)
	}
	if long > ceiling {
		t.Errorf("a warm symbolic PFT fwd+bwd allocates %d B per rank at world 16, want <= %d: the exchange's tables are allocated per call",
			long, ceiling)
	}
}

// warmSymbolicPFT runs a symbolic PFT forward + backward of world ranks
// and s tokens each once to warm the pools, then again with the garbage
// collector off, and returns the bytes and heap objects a warm call
// allocates per rank.
func warmSymbolicPFT(t *testing.T, world, s int) (bytes, objects int) {
	t.Helper()
	cfg := Config{NumExperts: 64, TopK: 8, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	const calls = 4
	routings := make([]Routing, world)
	for id := range routings {
		routings[id] = SyntheticRouting(tensor.NewRNG(42+31*uint64(id)), s, cfg.NumExperts, cfg.TopK, 0.6)
	}
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	opts := PipelineOpts{DropPolicy: DropByCapacityWeight, SaveForBackward: true}
	layer := func() {
		if err := c.Run(func(r *simrt.Rank) error {
			res := PFTForward(r, g, cfg, s, nil, routings[r.ID], nil, opts)
			res.State.Backward(r, nil, nil, opts)
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
	return int(ms.TotalAlloc-total0) / (calls * world), int(ms.Mallocs-mallocs0) / (calls * world)
}
