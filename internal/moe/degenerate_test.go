package moe

import (
	"fmt"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// allToOneRouting routes every token's first choice to a single expert —
// the worst-case hot-expert skew.
func allToOneRouting(s, e, k, hot int) Routing {
	r := Routing{S: s, Experts: make([]int32, s*k), Weights: make([]float32, s*k), Logits: make([]float32, s*k)}
	for i := range r.Experts {
		j := i % k
		r.Experts[i] = int32((hot + j) % e)
		r.Weights[i] = 0.01
		r.Logits[i] = 1
		if j == 0 {
			r.Weights[i] = 0.9
		}
	}
	return r
}

func TestHotExpertCapacityDropping(t *testing.T) {
	// All 64 tokens route to expert 0 first; capacity clips the hot
	// expert while the PFT stays structurally valid.
	const s, e, k = 64, 8, 2
	r := allToOneRouting(s, e, k, 0)
	capTokens := 10
	p := BuildPFT(r, e, capTokens, DropByCapacityWeight)
	if err := p.validate(s, e, capTokens); err != nil {
		t.Fatal(err)
	}
	if p.TokensPerExpert[0] != capTokens {
		t.Fatalf("hot expert holds %d, want capacity %d", p.TokensPerExpert[0], capTokens)
	}
	// Both the hot expert (all first choices) and expert 1 (all second
	// choices) overflow: each keeps capTokens of s entries.
	if want := 2 * (s - capTokens); p.Dropped != want {
		t.Fatalf("dropped %d, want %d", p.Dropped, want)
	}
}

func TestHotExpertDistributedPipeline(t *testing.T) {
	// The distributed pipeline must survive extreme imbalance: one rank's
	// expert receives nearly everything, others sit empty.
	cfg := distConfig(8, 2)
	const s, world = 24, 4
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(40 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := allToOneRouting(s, cfg.NumExperts, cfg.TopK, 3)
		params := localParams(g.IndexOf(r.ID), 2, cfg.HModel, cfg.HFFN)
		res := PFTForward(r, g, cfg, s, x, routing, params, PipelineOpts{
			DropPolicy: DropByCapacityWeight,
		})
		want := referenceMoE(x, res.PFT, cfg.HModel, cfg.HFFN)
		if !res.Output.Equal(want, 1e-3) {
			return fmt.Errorf("rank %d differs under hot-expert routing", r.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyExpertsProduceZeroSegments(t *testing.T) {
	// Routing that never touches experts 4-7: their owners receive
	// nothing and must still participate in every collective.
	cfg := distConfig(8, 2)
	const s, world = 12, 4
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(50 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		// Only experts 0-3 are used (owned by members 0 and 1).
		routing := SyntheticRouting(rng, s, 4, cfg.TopK, 0)
		params := localParams(g.IndexOf(r.ID), 2, cfg.HModel, cfg.HFFN)
		res := PFTForward(r, g, cfg, s, x, routing, params, PipelineOpts{
			DropPolicy: DropByCapacityWeight,
		})
		me := g.IndexOf(r.ID)
		if me >= 2 && res.RecvTokens != 0 {
			return fmt.Errorf("rank %d owns unused experts but received %d rows", r.ID, res.RecvTokens)
		}
		want := referenceMoE(x, res.PFT, cfg.HModel, cfg.HFFN)
		if !res.Output.Equal(want, 1e-3) {
			return fmt.Errorf("rank %d differs with empty experts", r.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroTokenRank(t *testing.T) {
	// A rank with an empty local batch must still complete the SPMD
	// collectives and produce an empty output.
	cfg := distConfig(8, 2)
	const world = 4
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		s := 8
		if r.ID == 2 {
			s = 0
		}
		rng := tensor.NewRNG(uint64(60 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0)
		params := localParams(g.IndexOf(r.ID), 2, cfg.HModel, cfg.HFFN)
		res := PFTForward(r, g, cfg, s, x, routing, params, PipelineOpts{
			DropPolicy: DropByCapacityWeight,
		})
		if r.ID == 2 {
			if res.RoutedTokens != 0 || res.Output.Rows() != 0 {
				return fmt.Errorf("empty rank routed %d tokens", res.RoutedTokens)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCapacityOneExtreme(t *testing.T) {
	// Capacity 1 with heavy routing: every expert keeps exactly its
	// single best token; everything else drops; the pipeline stays
	// consistent.
	cfg := distConfig(8, 4)
	cfg.CapacityFactor = 1e-9 // forces Capacity() to its floor of 1
	const s, world = 32, 4
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(70 + r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.5)
		params := localParams(g.IndexOf(r.ID), 2, cfg.HModel, cfg.HFFN)
		res := PFTForward(r, g, cfg, s, x, routing, params, PipelineOpts{
			DropPolicy: DropByCapacityWeight,
		})
		if res.RoutedTokens > cfg.NumExperts {
			return fmt.Errorf("capacity 1 allows at most E rows, got %d", res.RoutedTokens)
		}
		want := referenceMoE(x, res.PFT, cfg.HModel, cfg.HFFN)
		if !res.Output.Equal(want, 1e-3) {
			return fmt.Errorf("rank %d differs at capacity 1", r.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOOMDetectionUnderSymbolicPressure(t *testing.T) {
	// Symbolic mode must trip the device OOM flag when the configured
	// layer exceeds HBM (failure injection for the trainability logic).
	cfg := Config{NumExperts: 8, TopK: 8, HModel: 1 << 17, HFFN: 1 << 16,
		CapacityFactor: 1.25, BytesPerElem: 2}
	const s = 1 << 14
	c := newMoECluster(t, 4)
	g := c.WorldGroup()
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(r.ID))
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0)
		PFTForward(r, g, cfg, s, nil, routing, nil, PipelineOpts{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.AnyOOM() {
		t.Fatalf("a %d-token x %d-hidden layer must exceed 64 GB HBM (peak %d)",
			s, cfg.HModel, c.PeakMemory())
	}
}
