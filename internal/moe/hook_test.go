package moe

import (
	"fmt"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestOnDWReadyFiresOncePerBackward pins the gradient-sync hook contract
// across every backward path: blocking and chunked, PFT and padded, each
// invoke OnDWReady exactly once per backward call, and forward-only runs
// never invoke it.
func TestOnDWReadyFiresOncePerBackward(t *testing.T) {
	const world, s = 4, 12
	cfg := distConfig(8, 2)
	for _, tc := range []struct {
		name   string
		padded bool
		chunks int
	}{
		{"pft_blocking", false, 1},
		{"pft_chunked", false, 2},
		{"padded_blocking", true, 1},
		{"padded_chunked", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newMoECluster(t, world)
			g := c.WorldGroup()
			epr := cfg.NumExperts / world
			var mu sync.Mutex
			fires := map[int]int{}
			err := c.Run(func(r *simrt.Rank) error {
				rng := tensor.NewRNG(uint64(900 + r.ID))
				x := tensor.Randn(rng, 1, s, cfg.HModel)
				routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
				params := localParams(g.IndexOf(r.ID), epr, cfg.HModel, cfg.HFFN)
				fwdOpts := PipelineOpts{
					DropPolicy:      DropByCapacityWeight,
					SaveForBackward: true, OverlapChunks: tc.chunks,
					OnDWReady: func() {
						mu.Lock()
						fires[r.ID] -= 100 // poison: forward fired the hook
						mu.Unlock()
					},
				}
				var res LayerResult
				if tc.padded {
					res = PaddedForward(r, g, cfg, s, x, routing, params, fwdOpts)
				} else {
					res = PFTForward(r, g, cfg, s, x, routing, params, fwdOpts)
				}
				dOut := tensor.New(s, cfg.HModel)
				dOut.Fill(1)
				bwdOpts := PipelineOpts{OverlapChunks: tc.chunks}
				bwdOpts.OnDWReady = func() {
					mu.Lock()
					fires[r.ID]++
					mu.Unlock()
				}
				if tc.padded {
					PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, bwdOpts)
				} else {
					PFTBackward(r, g, cfg, res.State, dOut, params, bwdOpts)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < world; rank++ {
				if fires[rank] != 1 {
					t.Fatalf("rank %d: OnDWReady fired %d times, want exactly 1 (negative means the forward fired it)", rank, fires[rank])
				}
			}
		})
	}
}

// TestOnDWReadySymbolicBackward checks the hook also fires in symbolic
// (timing-only) backward passes, which is how baselines.SimulateStep
// issues its bucketed gradient sync.
func TestOnDWReadySymbolicBackward(t *testing.T) {
	const world, s = 4, 12
	cfg := distConfig(8, 2)
	c := newMoECluster(t, world)
	g := c.WorldGroup()
	var mu sync.Mutex
	fires := 0
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(uint64(1300 + r.ID))
		routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		opts := PipelineOpts{DropPolicy: DropByCapacityWeight, SaveForBackward: true}
		res := PFTForward(r, g, cfg, s, nil, routing, nil, opts)
		bwd := opts
		bwd.OnDWReady = func() {
			mu.Lock()
			fires++
			mu.Unlock()
		}
		PFTBackward(r, g, cfg, res.State, nil, nil, bwd)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fires != world {
		t.Fatal(fmt.Sprintf("symbolic backward fired the hook %d times across %d ranks", fires, world))
	}
}
