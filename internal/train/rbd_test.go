package train

import (
	"errors"
	"math"
	"testing"

	"xmoe/internal/moe"
)

// TestDistTrainerRBDLearns: the RBD backward produces real gradients —
// the MSE loss decreases under training.
func TestDistTrainerRBDLearns(t *testing.T) {
	losses, _ := runSteps(t, rbdTrainerConfig(4), 10)
	if !(losses[len(losses)-1] < losses[0]) {
		t.Fatalf("loss did not decrease: first %v last %v", losses[0], losses[len(losses)-1])
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("loss not finite")
		}
	}
}

// TestDistConfigRejectsRBDUnsupportedOpts: option combos the RBD backward
// does not support surface as typed *moe.OptionError from Check instead
// of a silent fallback or a rank panic mid-step.
func TestDistConfigRejectsRBDUnsupportedOpts(t *testing.T) {
	cfg := rbdTrainerConfig(1)
	cfg.Opts.CombineBytes = 4
	err := cfg.Check()
	if err == nil {
		t.Fatal("Check accepted rbd + CombineBytes override")
	}
	var oe *moe.OptionError
	if !errors.As(err, &oe) || oe.Opt != "CombineBytes" {
		t.Fatalf("want wrapped *moe.OptionError{Opt: CombineBytes}, got %v", err)
	}
	if _, err := NewDistTrainer(cfg); err == nil {
		t.Fatal("NewDistTrainer accepted rbd + CombineBytes override")
	}
	// The same override is fine on the flat transports.
	cfg.Transport = "pft"
	if err := cfg.Check(); err != nil {
		t.Fatalf("pft + CombineBytes rejected: %v", err)
	}
}
