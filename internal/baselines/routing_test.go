package baselines

import (
	"sync"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/topology"
)

// drawsDuring returns how many routings f drew through the store.
func drawsDuring(f func()) int64 {
	before := routingDraws.Load()
	f()
	return routingDraws.Load() - before
}

func mustStep(t *testing.T, sys System, spec RunSpec) StepResult {
	t.Helper()
	r := SimulateStep(For(sys, spec.Machine), spec)
	if r.Err != nil || r.OOM {
		t.Fatalf("%v step failed: %+v", sys, r)
	}
	return r
}

// TestStepsShareDraws pins the traffic the store saves: X-MoE then Tutel
// at one seed draw World routings, not 2·World, and a change of seed,
// expert count or top-k redraws every slot.
func TestStepsShareDraws(t *testing.T) {
	spec := goldenSpec(For(XMoE, topology.Frontier()), 1, false)
	world := int64(spec.World)
	dropRoutings()
	if n := drawsDuring(func() { mustStep(t, XMoE, spec) }); n != world {
		t.Fatalf("cold X-MoE step drew %d routings, want %d (one per rank)", n, world)
	}
	if n := drawsDuring(func() { mustStep(t, Tutel, spec) }); n != 0 {
		t.Fatalf("Tutel at X-MoE's seed drew %d routings, want 0", n)
	}
	for _, c := range []struct {
		name string
		edit func(*RunSpec)
	}{
		{"seed", func(s *RunSpec) { s.Seed++ }},
		{"experts", func(s *RunSpec) { s.Shape.NumExperts = 32 }},
		{"top-k", func(s *RunSpec) { s.Shape.TopK = 4 }},
	} {
		mustStep(t, XMoE, spec)
		changed := spec
		c.edit(&changed)
		if n := drawsDuring(func() { mustStep(t, Tutel, changed) }); n != world {
			t.Errorf("new %s drew %d routings, want %d", c.name, n, world)
		}
	}
}

// TestSweepDrawsOncePerLength pins what a Sweep over Small on 16 GPUs
// draws: one routing per rank per distinct token count a rank routes.
// Every candidate here routes 8192 tokens per rank — Tutel's four
// (EP 8/16 × ZeRO 1/2) at micro-batch 4, and X-MoE's eight (EP 8/16 ×
// TP 1–8) at micro-batch 4·TP, whose SSMB shard is one TP-th of it — so
// each sweep draws once per rank.
func TestSweepDrawsOncePerLength(t *testing.T) {
	m := topology.Frontier()
	for _, sys := range []System{Tutel, XMoE} {
		dropRoutings()
		var sw SweepResult
		n := drawsDuring(func() { sw = Sweep(For(sys, m), model.Small(), m, 16, 256, 3, true) })
		if sw.OOM {
			t.Fatalf("%v: sweep found no configuration", sys)
		}
		if n != 16 {
			t.Errorf("%v: sweep drew %d routings, want 16 (one per rank)", sys, n)
		}
	}
}

// TestConcurrentStepsMatchSerial runs X-MoE and Tutel steps at one seed on
// four goroutines at once: each step takes the store or starts its own,
// never shares one, and every result is the serial run's bit for bit.
func TestConcurrentStepsMatchSerial(t *testing.T) {
	systems := []System{XMoE, Tutel}
	spec := goldenSpec(For(XMoE, topology.Frontier()), 1, false)
	want := make([]string, len(systems))
	for i, sys := range systems {
		dropRoutings()
		want[i] = stepBits(mustStep(t, sys, spec))
	}
	dropRoutings()
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]string, len(systems))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range systems {
				// Half the goroutines start with X-MoE, half with Tutel.
				i := (g + j) % len(systems)
				got[g][i] = stepBits(SimulateStep(For(systems[i], spec.Machine), spec))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, sys := range systems {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d, %v: bits differ from the serial run\n got: %s\nwant: %s", g, sys, got[g][i], want[i])
			}
		}
	}
}
