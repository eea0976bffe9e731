package moe

import (
	"errors"
	"strings"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

func TestRebalanceCapacityRoutesUniformWhenNoSignal(t *testing.T) {
	cfg := distConfig(8, 3)
	s := 32
	cases := []struct {
		name  string
		times []float64
		bound float64
		world int
	}{
		{"bound off", []float64{1, 2, 1, 1}, 0, 4},
		{"no observations", nil, 0.5, 4},
		{"wrong world", []float64{1, 2}, 0.5, 4},
		{"non-positive time", []float64{1, 0, 1, 1}, 0.5, 4},
		{"all equal", []float64{2, 2, 2, 2}, 0.5, 4},
		{"indivisible experts", []float64{1, 2, 1}, 0.5, 3},
	}
	for _, c := range cases {
		if caps := RebalanceCapacity(cfg, s, c.world, c.times, c.bound); caps != nil {
			t.Errorf("%s: got caps %v, want nil (uniform routing)", c.name, caps)
		}
	}
}

func TestRebalanceCapacityShiftsAndClamps(t *testing.T) {
	cfg := distConfig(8, 3)
	s, world, bound := 32, 4, 0.5
	base := cfg.Capacity(s)
	// Rank 0 is a 100x straggler: its relative speed clamps at 1-bound
	// and the fast ranks clamp at 1+bound.
	caps := RebalanceCapacity(cfg, s, world, []float64{100, 1, 1, 1}, bound)
	if caps == nil {
		t.Fatal("a skewed observation must produce a rebalance")
	}
	if len(caps) != cfg.NumExperts {
		t.Fatalf("got %d caps, want one per expert (%d)", len(caps), cfg.NumExperts)
	}
	epr := cfg.NumExperts / world
	for e, c := range caps {
		rank := e / epr
		lo, hi := int(float64(base)*(1-bound)), int(float64(base)*(1+bound))+1
		if c < 1 || c < lo-1 || c > hi {
			t.Fatalf("expert %d (rank %d): cap %d outside clamp [%d,%d]", e, rank, c, lo, hi)
		}
		if rank == 0 && c >= base {
			t.Fatalf("straggler rank 0 expert %d: cap %d must shrink below uniform %d", e, c, base)
		}
		if rank > 0 && c <= base {
			t.Fatalf("fast rank %d expert %d: cap %d must grow above uniform %d", rank, e, c, base)
		}
		if caps[(e/epr)*epr] != c {
			t.Fatalf("experts of one rank must share a cap: %v", caps)
		}
	}
	// A mild skew inside the clamp reproduces the exact inverse-time
	// weighting: twice-as-slow gets half the relative speed.
	caps = RebalanceCapacity(cfg, s, 2, []float64{2, 1}, 1)
	// invSum = 1.5; rel0 = 0.5*2/1.5 = 2/3, rel1 = 4/3.
	if got, want := caps[0], int(float64(base)*2/3+0.5); got != want {
		t.Fatalf("slow rank cap %d, want %d", got, want)
	}
	if got, want := caps[cfg.NumExperts-1], int(float64(base)*4/3+0.5); got != want {
		t.Fatalf("fast rank cap %d, want %d", got, want)
	}
}

func TestBuildPFTCapsEnforcesPerExpertCapacity(t *testing.T) {
	// 4 tokens to expert 0, 2 to expert 1; caps keep the 2 heaviest on
	// expert 0 and everything on expert 1.
	r := Routing{
		S:       6,
		Experts: []int32{0, 0, 0, 0, 1, 1},
		Weights: []float32{0.1, 0.9, 0.5, 0.7, 0.3, 0.4},
		Logits:  []float32{1, 1, 1, 1, 1, 1},
	}
	p := buildPFTCaps(r, 2, []int{2, 5}, DropByCapacityWeight)
	if err := p.validate(6, 2, 5); err != nil {
		t.Fatal(err)
	}
	if p.B() != 4 || p.Dropped != 2 {
		t.Fatalf("B=%d dropped=%d, want 4/2", p.B(), p.Dropped)
	}
	if p.TokensPerExpert[0] != 2 || p.TokensPerExpert[1] != 2 {
		t.Fatalf("segments %v, want [2 2] (expert-0 cap binds, expert-1 does not)", p.TokensPerExpert)
	}
	kept := map[int]bool{p.TokenIDs[0]: true, p.TokenIDs[1]: true}
	if !kept[1] || !kept[3] {
		t.Fatalf("expert 0 kept %v, want the two heaviest {1,3}", p.TokenIDs[:2])
	}

	// A uniform caps vector is BuildPFT with that capacity.
	rng := tensor.NewRNG(23)
	syn := SyntheticRouting(rng, 32, 8, 3, 0.6)
	a := BuildPFT(syn, 8, 7, DropByCapacityWeight)
	b := buildPFTCaps(syn, 8, []int{7, 7, 7, 7, 7, 7, 7, 7}, DropByCapacityWeight)
	if a.B() != b.B() || a.Dropped != b.Dropped {
		t.Fatalf("uniform caps diverge from BuildPFT: B %d/%d dropped %d/%d", a.B(), b.B(), a.Dropped, b.Dropped)
	}
	for i := range a.TokenIDs {
		if a.TokenIDs[i] != b.TokenIDs[i] || a.ExpertIDs[i] != b.ExpertIDs[i] {
			t.Fatalf("entry %d diverged", i)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("buildPFT must panic on a caps/expert-count mismatch")
		}
	}()
	buildPFTCaps(r, 2, []int{2}, DropByCapacityWeight)
}

// TestCapacityByExpertOptionChecks: Check rejects non-positive per-expert
// capacities with a typed OptionError, and the padded pipeline — whose
// even all-to-all cannot carry uneven segments — refuses the option
// outright.
func TestCapacityByExpertOptionChecks(t *testing.T) {
	err := PipelineOpts{CapacityByExpert: []int{4, 0}}.Check()
	if err == nil {
		t.Fatal("Check must reject a zero per-expert capacity")
	}
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Opt != "CapacityByExpert" {
		t.Fatalf("want *OptionError for CapacityByExpert, got %v", err)
	}
	if err := (PipelineOpts{CapacityByExpert: []int{4, 3}}).Check(); err != nil {
		t.Fatalf("positive caps must pass: %v", err)
	}

	c := newMoECluster(t, 2)
	g := c.WorldGroup()
	cfg := distConfig(8, 3)
	runErr := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(500 + r.ID))
		x := tensor.Randn(rng, 1, 16, cfg.HModel)
		routing := SyntheticRouting(rng, 16, cfg.NumExperts, cfg.TopK, 0.7)
		params := localParams(g.IndexOf(r.ID), cfg.NumExperts/2, cfg.HModel, cfg.HFFN)
		PaddedForward(r, g, cfg, 16, x, routing, params, PipelineOpts{CapacityByExpert: []int{4, 4, 4, 4, 4, 4, 4, 4}})
		return nil
	})
	if runErr == nil || !strings.Contains(runErr.Error(), "uniform expert capacity") {
		t.Fatalf("padded + CapacityByExpert must panic with the rejection, got: %v", runErr)
	}
}

// buildPFTCaps is BuildPFT with a per-expert capacity vector: caps[e]
// bounds expert e's retained rows (entries <= 0 mean unlimited), as a
// layer with PipelineOpts.CapacityByExpert builds it.
func buildPFTCaps(r Routing, numExperts int, caps []int, policy DropPolicy) *PFT {
	return buildPFT(r, numExperts, caps, 0, policy, true, false, nil).withExpertIDs()
}
