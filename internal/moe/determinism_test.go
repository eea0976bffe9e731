package moe

import (
	"math"
	"os"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// TestMain runs the package's tests with every lent send buffer filled with
// NaN at its last release (simrt.PoisonReleased), so a receiver that reads
// a payload after releasing it, or a buffer recycled before its last
// receiver is done with it, moves a bit the determinism checks compare.
func TestMain(m *testing.M) {
	simrt.PoisonReleased(true)
	os.Exit(m.Run())
}

// The flat pipelines' determinism pins: chunking re-times the exchanges
// and the rank arenas recycle buffers, but neither may move a bit of a
// numeric PFT or padded pass on a 4-rank cluster. The same checks run for
// every transport at two worlds in transport's TestLayerMatrix; these run
// the pipelines' own entry points, with chunk counts up to 64 — above
// every (source, expert) segment's row count.

// layerPass is one rank's numeric forward and, after a backward, its
// gradients (a zero BackwardResult after a forward-only pass).
type layerPass struct {
	res   LayerResult
	grads BackwardResult
}

// runLayer executes iters numeric passes of the PFT layer, or of the
// padded one, on c with the same inputs each time, and returns each rank's
// last pass: a forward at fwdChunks and, unless bwdChunks is 0, the
// backward of its saved state at bwdChunks.
func runLayer(t *testing.T, c *simrt.Cluster, padded bool, fwdChunks, bwdChunks, iters int) map[int]layerPass {
	t.Helper()
	const s = 32
	cfg := distConfig(8, 3)
	g := c.WorldGroup()
	drop := DropByCapacityWeight
	if padded {
		drop = DropNegativeThenPosition
	}
	fwd := PipelineOpts{DropPolicy: drop, SaveForBackward: bwdChunks > 0, OverlapChunks: fwdChunks}
	bwd := PipelineOpts{DropPolicy: drop, OverlapChunks: bwdChunks}
	passes := make(map[int]layerPass)
	var mu sync.Mutex
	for it := 0; it < iters; it++ {
		err := c.Run(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(uint64(500 + r.ID))
			x := tensor.Randn(rng, 1, s, cfg.HModel)
			routing := SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.7)
			params := localParams(g.IndexOf(r.ID), cfg.NumExperts/c.NumRanks, cfg.HModel, cfg.HFFN)
			dOut := tensor.New(s, cfg.HModel)
			for i := range dOut.Data {
				dOut.Data[i] = float32(i%13)*0.1 - 0.5
			}
			var p layerPass
			switch {
			case padded:
				p.res = PaddedForward(r, g, cfg, s, x, routing, params, fwd)
				if bwdChunks > 0 {
					p.grads = PaddedBackward(r, g, cfg, p.res.PaddedState, dOut, params, bwd)
				}
			default:
				p.res = PFTForward(r, g, cfg, s, x, routing, params, fwd)
				if bwdChunks > 0 {
					p.grads = PFTBackward(r, g, cfg, p.res.State, dOut, params, bwd)
				}
			}
			mu.Lock()
			passes[r.ID] = p
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return passes
}

// samePasses fails unless every rank's got pass matches want bit for bit:
// the routed and received token counts, the output and, after a backward,
// dX, every dW and the combine-weight gradients.
func samePasses(t *testing.T, label string, want, got map[int]layerPass) {
	t.Helper()
	same := func(what string, rank int, a, b []float32) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s rank %d: %s has %d values, want %d", label, rank, what, len(b), len(a))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s rank %d: %s bit mismatch at %d: %v vs %v", label, rank, what, i, b[i], a[i])
			}
		}
	}
	for rank, w := range want {
		g := got[rank]
		if w.res.RoutedTokens != g.res.RoutedTokens || w.res.RecvTokens != g.res.RecvTokens {
			t.Fatalf("%s rank %d: routed/recv %d/%d, want %d/%d", label, rank,
				g.res.RoutedTokens, g.res.RecvTokens, w.res.RoutedTokens, w.res.RecvTokens)
		}
		same("output", rank, w.res.Output.Data, g.res.Output.Data)
		if w.grads.DX == nil {
			continue
		}
		same("dX", rank, w.grads.DX.Data, g.grads.DX.Data)
		same("dCombineWeights", rank, w.grads.DCombineWeights, g.grads.DCombineWeights)
		for e := range w.grads.DW1 {
			same("dW1", rank, w.grads.DW1[e].Data, g.grads.DW1[e].Data)
			same("dW2", rank, w.grads.DW2[e].Data, g.grads.DW2[e].Data)
		}
	}
}

// checkChunked runs each (forward, backward) chunk pair — a backward count
// of 0 is a forward without a saved state — on a fresh cluster and checks
// it against the blocking pass of the same kind.
func checkChunked(t *testing.T, padded bool, pairs ...[2]int) {
	t.Helper()
	bwd := min(pairs[0][1], 1)
	blocking := runLayer(t, newMoECluster(t, 4), padded, 1, bwd, 1)
	for _, p := range pairs {
		samePasses(t, "chunked", blocking, runLayer(t, newMoECluster(t, 4), padded, p[0], p[1], 1))
	}
}

// checkPooled checks the third pass on a pooled cluster, when every
// buffer is a recycled arena buffer, against allocate-fresh execution.
func checkPooled(t *testing.T, padded bool, fwdChunks, bwdChunks int) {
	t.Helper()
	fresh := newMoECluster(t, 4)
	fresh.DisablePools = true
	want := runLayer(t, fresh, padded, fwdChunks, bwdChunks, 1)
	samePasses(t, "pooled", want, runLayer(t, newMoECluster(t, 4), padded, fwdChunks, bwdChunks, 3))
}

func TestChunkedPFTForwardBitIdenticalToBlocking(t *testing.T) {
	checkChunked(t, false, [2]int{2, 0}, [2]int{3, 0}, [2]int{4, 0}, [2]int{8, 0}, [2]int{64, 0})
}

func TestChunkedPaddedForwardBitIdenticalToBlocking(t *testing.T) {
	checkChunked(t, true, [2]int{2, 0}, [2]int{3, 0}, [2]int{4, 0}, [2]int{16, 0})
}

// TestChunkedPFTFwdBwdBitIdenticalToBlocking includes passes whose chunk
// counts differ: the saved state does not depend on the forward's count.
func TestChunkedPFTFwdBwdBitIdenticalToBlocking(t *testing.T) {
	checkChunked(t, false, [2]int{2, 2}, [2]int{3, 3}, [2]int{4, 4}, [2]int{8, 8}, [2]int{4, 1}, [2]int{1, 4}, [2]int{2, 8})
}

func TestChunkedPaddedFwdBwdBitIdenticalToBlocking(t *testing.T) {
	checkChunked(t, true, [2]int{2, 2}, [2]int{3, 3}, [2]int{4, 4}, [2]int{16, 16}, [2]int{4, 2})
}

func TestPooledLayerBitIdenticalToFresh(t *testing.T) {
	checkPooled(t, false, 1, 1)
}

func TestChunkedPooledBitIdenticalToFresh(t *testing.T) {
	checkPooled(t, false, 4, 4)
}

func TestPooledPaddedForwardBitIdenticalToFresh(t *testing.T) {
	checkPooled(t, true, 1, 0)
}
