package bench

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// layerHarnessGolden holds Float64bits of what the single-layer harness
// copies that runLayer replaced computed before it did (Large layer,
// s = 256, seed 42; EP = 8 on one Frontier node and EP = 16 across two):
// the slowest-rank clock of the full-layer copies — AblationOverlap.run /
// AblationEngineDelta.layer for bwd0, StepClock for the fwd+bwd shapes,
// stepClockInjected and rbdStepClock for the straggler and caps variants —
// and the rank-mean dispatch all-to-all of rbdDispatchTime's plain side.
// The copies differed in drop policy for padded, in SaveForBackward and in
// whether an engine was applied; equal bits here are the proof those
// differences were immaterial. The rbd/fwd1/bwd0/first entries, the
// rank-mean S1 and S2 all-to-all times under moe.PilotFirstExpert, were
// recorded when RBD's dispatch stages moved from a dispatch-only harness
// into the layer body's run. A mismatch is a model change to declare, not
// a value to refresh.
var layerHarnessGolden = map[string]uint64{
	"ep8/pft/fwd1/bwd0/analytic":       0x3f74aa5acb4e7ae5,
	"ep8/pft/fwd4/bwd0/analytic":       0x3f89f0d493730227,
	"ep8/pft/fwd1/bwd1/analytic":       0x3f8c97739b1224b8,
	"ep8/pft/fwd4/bwd1/analytic":       0x3f96198d646ef4b6,
	"ep8/pft/fwd4/bwd4/analytic":       0x3f9defbcc3c6ff2f,
	"ep8/pft/fwd1/bwd0/event:rail":     0x3f74f49cfa5ce5d9,
	"ep8/pft/fwd4/bwd0/event:rail":     0x3f89fa89fdaf0cf0,
	"ep8/pft/fwd1/bwd1/event:rail":     0x3f8ce1b580d39013,
	"ep8/pft/fwd4/bwd1/event:rail":     0x3f9630f880aa150a,
	"ep8/pft/fwd4/bwd4/event:rail":     0x3f9df49778e50493,
	"ep8/padded/fwd1/bwd0/analytic":    0x3f7fbaa170873f2d,
	"ep8/padded/fwd4/bwd0/analytic":    0x3f8e935e916c99c3,
	"ep8/padded/fwd1/bwd1/analytic":    0x3f9355a0c845579b,
	"ep8/padded/fwd4/bwd1/analytic":    0x3f9ab0a7b4d9d4b3,
	"ep8/padded/fwd4/bwd4/analytic":    0x3fa0f8882f299597,
	"ep8/padded/fwd1/bwd0/event:rail":  0x3f8005ed0bc8ffe5,
	"ep8/padded/fwd4/bwd0/event:rail":  0x3f8e99a4fe42c3cc,
	"ep8/padded/fwd1/bwd1/event:rail":  0x3f937e3d1bcab7ea,
	"ep8/padded/fwd4/bwd1/event:rail":  0x3f9ac819150799de,
	"ep8/padded/fwd4/bwd4/event:rail":  0x3fa0fa19ca5f2019,
	"ep8/rbd/fwd1/bwd0/analytic":       0x3f752455773638b9,
	"ep8/rbd/fwd4/bwd0/analytic":       0x3f7ef34185ff34d4,
	"ep8/rbd/fwd1/bwd1/analytic":       0x3f8d19466feb4911,
	"ep8/rbd/fwd4/bwd1/analytic":       0x3f91005e3ba7e390,
	"ep8/rbd/fwd4/bwd4/analytic":       0x3f9324d4c597cff6,
	"ep8/rbd/fwd1/bwd0/event:rail":     0x3f755e5bfea39ed3,
	"ep8/rbd/fwd4/bwd0/event:rail":     0x3f7f19e1cba732b5,
	"ep8/rbd/fwd1/bwd1/event:rail":     0x3f8d5345e4f9d1e8,
	"ep8/rbd/fwd4/bwd1/event:rail":     0x3f91188465bdcded,
	"ep8/rbd/fwd4/bwd4/event:rail":     0x3f9331009a393c18,
	"ep8/pft/straggler":                0x3fadb46007a5d59d,
	"ep8/pft/straggler/busy":           0x3fd0b6d3ff0fe737,
	"ep8/padded/straggler":             0x3fb0efe94d5df69f,
	"ep8/rbd/straggler":                0x3f9b3907a9aa7d27,
	"ep8/pft/straggler+caps":           0x3fac260962db7278,
	"ep8/rbd/fwd1/bwd0/first/s1":       0x3f2c81ad5c1ec8ac,
	"ep8/rbd/fwd1/bwd0/first/s2":       0x3f5ad9c18419acb2,
	"ep8/plain/dispatch_a2a":           0x3f34ebc71b28213f,
	"ep16/pft/fwd1/bwd0/analytic":      0x3f75d5abb1d39e69,
	"ep16/pft/fwd4/bwd0/analytic":      0x3f7faa0d42613a47,
	"ep16/pft/fwd1/bwd1/analytic":      0x3f8b0fe92a8ec9af,
	"ep16/pft/fwd4/bwd1/analytic":      0x3f8ffa19f2d5979f,
	"ep16/pft/fwd4/bwd4/analytic":      0x3f922f3a078697b2,
	"ep16/pft/fwd1/bwd0/event:rail":    0x3f780b12d9ffc452,
	"ep16/pft/fwd4/bwd0/event:rail":    0x3f80486e48d8104f,
	"ep16/pft/fwd1/bwd1/event:rail":    0x3f8d454e3f94dec9,
	"ep16/pft/fwd4/bwd1/event:rail":    0x3f90c4198db68677,
	"ep16/pft/fwd4/bwd4/event:rail":    0x3f928245a115e343,
	"ep16/padded/fwd1/bwd0/analytic":   0x3f82008804901e7f,
	"ep16/padded/fwd4/bwd0/analytic":   0x3f865fd93557337c,
	"ep16/padded/fwd1/bwd1/analytic":   0x3f945e299302d95f,
	"ep16/padded/fwd4/bwd1/analytic":   0x3f968dd22b6663de,
	"ep16/padded/fwd4/bwd4/analytic":   0x3f9851e5287d8655,
	"ep16/padded/fwd1/bwd0/event:rail": 0x3f8361eaf65c7cd7,
	"ep16/padded/fwd4/bwd0/event:rail": 0x3f86aae0650596d1,
	"ep16/padded/fwd1/bwd1/event:rail": 0x3f95bf8c84cf37b7,
	"ep16/padded/fwd4/bwd1/event:rail": 0x3f9764073c23c4b4,
	"ep16/padded/fwd4/bwd4/event:rail": 0x3f987768c054b7ff,
	"ep16/rbd/fwd1/bwd0/analytic":      0x3f713d7c116245df,
	"ep16/rbd/fwd4/bwd0/analytic":      0x3f762e6f7840820d,
	"ep16/rbd/fwd1/bwd1/analytic":      0x3f8683445a4ae22e,
	"ep16/rbd/fwd4/bwd1/analytic":      0x3f88fbbe0dba0045,
	"ep16/rbd/fwd4/bwd4/analytic":      0x3f8af03d3c45dbd5,
	"ep16/rbd/fwd1/bwd0/event:rail":    0x3f725b623056c0cd,
	"ep16/rbd/fwd4/bwd0/event:rail":    0x3f77e5c0c533f4b7,
	"ep16/rbd/fwd1/bwd1/event:rail":    0x3f87a110f26f6558,
	"ep16/rbd/fwd4/bwd1/event:rail":    0x3f8a66403cddff4c,
	"ep16/rbd/fwd4/bwd4/event:rail":    0x3f8c997c1644dcf9,
	"ep16/pft/straggler":               0x3fa19c78c4d5106b,
	"ep16/pft/straggler/busy":          0x3fd28390e421eeaa,
	"ep16/padded/straggler":            0x3fa8182bb8cda7ad,
	"ep16/rbd/straggler":               0x3f93e98e18da0de1,
	"ep16/pft/straggler+caps":          0x3fa00bc9e4fc4b65,
	"ep16/rbd/fwd1/bwd0/first/s1":      0x3f44f6b4cb377a8c,
	"ep16/rbd/fwd1/bwd0/first/s2":      0x3f5006bc01ccc6d1,
	"ep16/plain/dispatch_a2a":          0x3f5255e82a8b2383,
}

func TestLayerHarnessGoldenBits(t *testing.T) {
	m := topology.Frontier()
	cfg := moe.LayerOf(model.Large())
	const s, seed = 256, uint64(42)
	seen := 0
	for _, world := range []int{8, 16} {
		check := func(name string, v float64) {
			t.Helper()
			seen++
			key := fmt.Sprintf("ep%d/%s", world, name)
			want, ok := layerHarnessGolden[key]
			if got := math.Float64bits(v); !ok || got != want {
				t.Errorf("%s: got 0x%016x, golden 0x%016x (recorded: %v)", key, got, want, ok)
			}
		}
		point := layerSpec{machine: m, cfg: cfg, world: world, s: s, seed: seed}

		for _, kind := range transport.Kinds() {
			for _, engine := range []string{"analytic", "event:rail"} {
				for _, ch := range [][2]int{{1, 0}, {4, 0}, {1, 1}, {4, 1}, {4, 4}} {
					sp := point
					sp.kind, sp.fwdChunks, sp.bwdChunks, sp.engine = kind, ch[0], ch[1], engine
					check(fmt.Sprintf("%v/fwd%d/bwd%d/%s", kind, ch[0], ch[1], engine), simrt.MaxClock(runLayer(sp)))
				}
			}
		}

		// One rank computing at half speed, at each transport's fault-row
		// chunk count; then the rebalanced capacities AblationFaults derives
		// from the observed busy times.
		var busy []float64
		for _, kind := range transport.Kinds() {
			wall, b := stepClockInjected(m, cfg, world, s, kind, seed, stragglerAt(2, world), nil)
			check(fmt.Sprintf("%v/straggler", kind), wall)
			if kind == transport.PFT {
				busy = b
				var sum float64
				for _, x := range b {
					sum += x
				}
				check("pft/straggler/busy", sum)
			}
		}
		caps := moe.RebalanceCapacity(cfg, s, world, busy, 0.5)
		if caps == nil {
			t.Fatalf("ep%d: a x2 straggler must rebalance capacity", world)
		}
		wall, _ := stepClockInjected(m, cfg, world, s, transport.PFT, seed, stragglerAt(2, world), caps)
		check("pft/straggler+caps", wall)

		// RBD's Stage-1 and Stage-2 all-to-alls under the biased pilot
		// policy, as abl-pilot runs it: the blocking forward-only layer.
		first := point
		first.kind, first.fwdChunks, first.pilots = transport.RBD, 1, moe.PilotFirstExpert
		ranks := runLayer(first)
		check("rbd/fwd1/bwd0/first/s1", meanStageTime(ranks, rbd.StageS1A2A))
		check("rbd/fwd1/bwd0/first/s2", meanStageTime(ranks, rbd.StageS2A2A))
		check("plain/dispatch_a2a", rbdDispatchTime(m, cfg, world, s, seed, false))
	}
	if seen != len(layerHarnessGolden) {
		t.Errorf("checked %d values, the golden table holds %d", seen, len(layerHarnessGolden))
	}
}
