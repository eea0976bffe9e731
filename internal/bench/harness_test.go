package bench

import (
	"fmt"
	"testing"

	"xmoe/internal/golden"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// TestLayerHarnessGoldenBits pins, to testdata/layer_harness.golden, the
// Float64bits of what the single-layer harness copies that runLayer
// replaced computed before it did (Large layer, s = 256, seed 42; EP = 8
// on one Frontier node and EP = 16 across two): the slowest-rank clock of
// the full-layer copies — AblationOverlap.run / AblationEngineDelta.layer
// for bwd0, StepClock for the fwd+bwd shapes, stepClockInjected and
// rbdStepClock for the straggler and caps variants — and the rank-mean
// dispatch all-to-all of rbdDispatchTime's plain side. The copies differed
// in drop policy for padded, in SaveForBackward and in whether an engine
// was applied; equal bits here are the proof those differences were
// immaterial. The rbd/fwd1/bwd0/first entries, the rank-mean S1 and S2
// all-to-all times under moe.PilotFirstExpert, were recorded when RBD's
// dispatch stages moved from a dispatch-only harness into the layer body's
// run. A mismatch is a model change to declare, not a value to refresh.
func TestLayerHarnessGoldenBits(t *testing.T) {
	m := topology.Frontier()
	cfg := moe.LayerOf(model.Large())
	const s, seed = 256, uint64(42)
	var got golden.List
	for _, world := range []int{8, 16} {
		add := func(name string, v float64) { got.F64(fmt.Sprintf("ep%d/%s", world, name), v) }
		point := layerSpec{machine: m, cfg: cfg, world: world, s: s, seed: seed}

		for _, kind := range transport.Kinds() {
			for _, engine := range []string{"analytic", "event:rail"} {
				for _, ch := range [][2]int{{1, 0}, {4, 0}, {1, 1}, {4, 1}, {4, 4}} {
					sp := point
					sp.kind, sp.fwdChunks, sp.bwdChunks, sp.engine = kind, ch[0], ch[1], engine
					add(fmt.Sprintf("%v/fwd%d/bwd%d/%s", kind, ch[0], ch[1], engine), simrt.MaxClock(runLayer(sp)))
				}
			}
		}

		// One rank computing at half speed, at each transport's fault-row
		// chunk count; then the rebalanced capacities AblationFaults derives
		// from the observed busy times.
		var busy []float64
		for _, kind := range transport.Kinds() {
			wall, b := stepClockInjected(m, cfg, world, s, kind, seed, stragglerAt(2, world), nil)
			add(fmt.Sprintf("%v/straggler", kind), wall)
			if kind == transport.PFT {
				busy = b
				var sum float64
				for _, x := range b {
					sum += x
				}
				add("pft/straggler/busy", sum)
			}
		}
		caps := moe.RebalanceCapacity(cfg, s, world, busy, 0.5)
		if caps == nil {
			t.Fatalf("ep%d: a x2 straggler must rebalance capacity", world)
		}
		wall, _ := stepClockInjected(m, cfg, world, s, transport.PFT, seed, stragglerAt(2, world), caps)
		add("pft/straggler+caps", wall)

		// RBD's Stage-1 and Stage-2 all-to-alls under the biased pilot
		// policy, as abl-pilot runs it: the blocking forward-only layer.
		first := point
		first.kind, first.fwdChunks, first.pilots = transport.RBD, 1, moe.PilotFirstExpert
		ranks := runLayer(first)
		add("rbd/fwd1/bwd0/first/s1", meanStageTime(ranks, rbd.StageS1A2A))
		add("rbd/fwd1/bwd0/first/s2", meanStageTime(ranks, rbd.StageS2A2A))
		add("plain/dispatch_a2a", rbdDispatchTime(m, cfg, world, s, seed, false))
	}
	golden.Check(t, "testdata/layer_harness.golden", got)
}
