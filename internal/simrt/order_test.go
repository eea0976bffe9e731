package simrt_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// sampledCongestionPass runs three layers of symbolic PFT forward+backward
// at four chunks on eight ranks spread over two single-node racks, with the
// analytic engine sampling congestion outliers for half the collectives,
// and hashes every rank's final clock and every span it recorded.
func sampledCongestionPass(t *testing.T) uint64 {
	t.Helper()
	const world, s, chunks, layers = 8, 64, 4, 3
	m := topology.Frontier()
	m.GPUsPerNode, m.NodesPerRack = 4, 1
	c := simrt.NewCluster(m, world, 11)
	c.Net.Congestion.OutlierProb2Racks = 0.5
	g := c.WorldGroup()
	cfg := moe.Config{NumExperts: 16, TopK: 2, HModel: 16, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(500 + r.ID))
		opts := moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true, OverlapChunks: chunks}
		for layer := 0; layer < layers; layer++ {
			rt := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
			res := moe.PFTForward(r, g, cfg, s, nil, rt, nil, opts)
			moe.PFTBackward(r, g, cfg, res.State, nil, nil, moe.PipelineOpts{OverlapChunks: chunks})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range ranks {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Clock)))
		for _, e := range r.Trace.Events() {
			h.Write([]byte(e.Name))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(e.Start)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(e.Dur)))
		}
	}
	return h.Sum64()
}

// TestSampledCongestionKeepsIssueOrder: the analytic engine with sampled
// congestion draws its outliers from one RNG stream in query order, so its
// collectives must be priced in issue order, never concurrently. A chunked
// PFT fwd+bwd, whose exchanges are all non-blocking, gives the same clocks
// and spans bit for bit on every repeat and at every GOMAXPROCS.
func TestSampledCongestionKeepsIssueOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want uint64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			got := sampledCongestionPass(t)
			if want == 0 {
				want = got
			} else if got != want {
				t.Fatalf("GOMAXPROCS %d, repeat %d: clocks and spans hash %#x, first run %#x", procs, rep, got, want)
			}
		}
	}
}
