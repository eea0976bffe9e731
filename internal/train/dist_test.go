package train

import (
	"errors"
	"math"
	"strings"
	"testing"

	"xmoe/internal/moe"
)

func distTrainerConfig(transport string, chunks int) DistConfig {
	return DistConfig{
		MoE: moe.Config{
			NumExperts: 8, TopK: 3, HModel: 12, HFFN: 8,
			CapacityFactor: 1.25, BytesPerElem: 2,
		},
		World:     4,
		Tokens:    32,
		LR:        1e-2,
		Seed:      77,
		Transport: transport,
		Opts:      moe.PipelineOpts{OverlapChunks: chunks},
	}
}

// rbdTrainerConfig spans two Frontier nodes (world 16) so the RBD
// transport exercises real inter-node S1/C1 exchanges, not just the
// intra-node degenerate case.
func rbdTrainerConfig(chunks int) DistConfig {
	cfg := distTrainerConfig("rbd", chunks)
	cfg.MoE.NumExperts, cfg.World, cfg.Tokens = 32, 16, 16
	return cfg
}

// TestDistTrainerLearns: the MSE loss must decrease under training (the
// backward pass and update are doing real work, not just matching bits).
func TestDistTrainerLearns(t *testing.T) {
	losses, _ := runSteps(t, distTrainerConfig("pft", 4), 12)
	if !(losses[len(losses)-1] < losses[0]) {
		t.Fatalf("loss did not decrease: first %v last %v", losses[0], losses[len(losses)-1])
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("loss not finite")
		}
	}
}

// TestDistTrainerBreakdownSumsToWallClock pins the tracing contract in
// overlap mode: the per-stage charged breakdown must sum to each step's
// average rank wall-clock (in-flight spans are recorded separately), and
// overlapped steps must actually record in-flight communication.
func TestDistTrainerBreakdownSumsToWallClock(t *testing.T) {
	tr, err := NewDistTrainer(distTrainerConfig("pft", 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stats, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, d := range stats.Breakdown {
			sum += d
		}
		// Merge averages over ranks; wall-clock is the max rank clock, so
		// the sum must land at or below it and within the rank spread.
		if sum > stats.WallClock*(1+1e-9) {
			t.Fatalf("step %d: breakdown sums to %.9f > wall-clock %.9f", i, sum, stats.WallClock)
		}
		if sum <= 0 {
			t.Fatalf("step %d: empty breakdown", i)
		}
		if stats.CommInFlight <= 0 {
			t.Fatalf("step %d: overlapped trainer recorded no in-flight communication", i)
		}
		if stats.MaxImbalance > 1e-9 {
			t.Fatalf("step %d: a rank's charged spans miss its clock by %.12f", i, stats.MaxImbalance)
		}
	}
}

// TestDistConfigRejectsShortCaps: a per-expert capacity vector of the wrong
// length used to pass Check and die mid-step as a BuildPFTCaps string panic;
// the transport, which knows the layer, now rejects it with a typed error
// before a cluster exists.
func TestDistConfigRejectsShortCaps(t *testing.T) {
	for _, tr := range []string{"pft", "rbd"} {
		cfg := distTrainerConfig(tr, 1)
		cfg.Opts.CapacityByExpert = make([]int, cfg.MoE.NumExperts-1)
		for e := range cfg.Opts.CapacityByExpert {
			cfg.Opts.CapacityByExpert[e] = 4
		}
		err := cfg.Check()
		var oe *moe.OptionError
		if !errors.As(err, &oe) || oe.Opt != "CapacityByExpert" {
			t.Fatalf("%s: want wrapped *moe.OptionError{Opt: CapacityByExpert}, got %v", tr, err)
		}
		if _, err := NewDistTrainer(cfg); err == nil {
			t.Fatalf("%s: NewDistTrainer accepted a short capacity vector", tr)
		}
		cfg.Opts.CapacityByExpert = append(cfg.Opts.CapacityByExpert, 4)
		if err := cfg.Check(); err != nil {
			t.Fatalf("%s: one capacity per expert rejected: %v", tr, err)
		}
	}
}

// TestDistConfigCheckRejects pins every rejection path of
// DistConfig.Check, including propagation of PipelineOpts.Check.
func TestDistConfigCheckRejects(t *testing.T) {
	mk := func(mut func(*DistConfig)) DistConfig {
		cfg := distTrainerConfig("pft", 1)
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  DistConfig
		want string
	}{
		{"unknown transport", mk(func(c *DistConfig) { c.Transport = "rdma" }), "unknown transport"},
		{"empty transport", mk(func(c *DistConfig) { c.Transport = "" }), "unknown transport"},
		{"zero world", mk(func(c *DistConfig) { c.World = 0 }), "must be positive"},
		{"zero tokens", mk(func(c *DistConfig) { c.Tokens = 0 }), "must be positive"},
		{"indivisible experts", mk(func(c *DistConfig) { c.World = 3 }), "not divisible"},
		{"bad opts propagate", mk(func(c *DistConfig) { c.Opts.OverlapChunks = -2 }), "OverlapChunks"},
	}
	for _, c := range cases {
		err := c.cfg.Check()
		if err == nil {
			t.Errorf("%s: Check accepted the config", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, err := NewDistTrainer(c.cfg); err == nil {
			t.Errorf("%s: NewDistTrainer accepted the config", c.name)
		}
	}
	if err := distTrainerConfig("padded", 4).Check(); err != nil {
		t.Errorf("Check rejected a valid config: %v", err)
	}
}
