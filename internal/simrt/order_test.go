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
// at four chunks on eight ranks spread over four single-node racks, where
// the analytic engine samples a congestion outlier for 12 % of the
// collectives (none when disabled). It returns a hash of every rank's
// final clock and every span it recorded, and the slowest clock.
func sampledCongestionPass(t *testing.T, disabled bool) (hash uint64, slowest float64) {
	t.Helper()
	const world, s, chunks, layers = 8, 64, 4, 3
	m := topology.Frontier()
	m.GPUsPerNode, m.NodesPerRack = 2, 1
	c := simrt.NewCluster(m, world, 11)
	c.Net.DisableCongestion = disabled
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
		slowest = max(slowest, r.Clock)
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Clock)))
		for _, e := range r.Trace.Events() {
			h.Write([]byte(e.Name))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(e.Start)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(e.Dur)))
		}
	}
	return h.Sum64(), slowest
}

// TestSampledCongestionKeepsIssueOrder: the analytic engine with sampled
// congestion draws its outliers from one RNG stream in query order, so its
// collectives must be priced in issue order, never concurrently. A chunked
// PFT fwd+bwd, whose exchanges are all non-blocking, gives the same clocks
// and spans bit for bit on every repeat and at every GOMAXPROCS. The pass
// must run at least 0.1 s (the least outlier delay) longer than with
// congestion disabled, so outliers did fire: the steady cross-rack
// slowdown alone adds microseconds.
func TestSampledCongestionKeepsIssueOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	_, quiet := sampledCongestionPass(t, true)
	var want uint64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			got, slowest := sampledCongestionPass(t, false)
			if slowest < quiet+0.1 {
				t.Fatalf("GOMAXPROCS %d, repeat %d: slowest clock %gs, %gs without congestion: no outlier fired", procs, rep, slowest, quiet)
			}
			if want == 0 {
				want = got
			} else if got != want {
				t.Fatalf("GOMAXPROCS %d, repeat %d: clocks and spans hash %#x, first run %#x", procs, rep, got, want)
			}
		}
	}
}
