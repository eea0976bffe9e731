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
// group. The per-expert counts ride the dispatch as a pointer to the
// sender's counts table (simrt.Part), not as a boxed slice header per part.
// Measured on amd64 with go1.24: 21 objects per rank at world 16 and 19 at
// 64; with the boxed header, 40 and 86. The garbage collector is off
// while it measures.
func TestSymbolicPFTAllocsIndependentOfEP(t *testing.T) {
	const perRankSlack = 8 // objects a rank of the larger group may add
	w16, w64 := warmSymbolicPFTObjects(t, 16), warmSymbolicPFTObjects(t, 64)
	t.Logf("a warm symbolic PFT fwd+bwd allocates %d objects per rank at world 16, %d at world 64", w16, w64)
	if w64 > w16+perRankSlack {
		t.Errorf("a warm symbolic PFT fwd+bwd allocates %d objects per rank at world 64 against %d at world 16, want at most %d more: a per-part allocation is back (is a Part.Meta boxed?)",
			w64, w16, perRankSlack)
	}
}

// warmSymbolicPFTObjects runs a symbolic PFT forward + backward of world
// ranks once to warm the pools, then again with the garbage collector off,
// and returns the heap objects a warm call allocates per rank.
func warmSymbolicPFTObjects(t *testing.T, world int) int {
	t.Helper()
	cfg := Config{NumExperts: 64, TopK: 8, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	const s, calls = 2048, 4
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
	mallocs0 := ms.Mallocs
	for range calls {
		layer()
	}
	runtime.ReadMemStats(&ms)
	return int(ms.Mallocs-mallocs0) / (calls * world)
}
