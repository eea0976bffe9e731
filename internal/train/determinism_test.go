package train

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/transport"
)

// The trainer's determinism matrix. Chunked overlap re-times the
// exchanges, ZeRO shards the optimizer state (stage 1) and the gradients
// (stage 2) and cuts the dense gradient sync into buckets — 0 bytes is one
// bucket, 16 four-element buckets and 4 one-element buckets of the 48-byte
// stream — and none of it may move a bit: for every transport and
// momentum, each cell of chunk count × stage × bucket must reach the loss
// trajectory, expert weights and dense bias of the blocking stage-0
// one-bucket cell. Each transport also checks that a run restored from a
// mid-run checkpoint replays the uninterrupted one (and rolls back to
// replay it again), and that a shrink → restore → train → grow → restore
// cycle, which rebuilds the transport for each world, comes out the same
// blocking and chunked. The cells run under eight tests — the flat
// transports' and RBD's, one each for the chunked, ZeRO, checkpoint and
// grow/shrink parts — and a failing subtest is named by its cell, e.g.
// TestDistTrainerRBDZeROBitIdentical/rbd/c4/zero2-b16/m0.9 or
// TestGrowShrinkCycleBitIdentical/pft/grow-shrink. A ninth test runs two
// cells per transport, C=1 and C=2, on arenas poisoned with NaN before
// every step.

const matrixSteps = 2

// trainerKinds lists the transports of transport.Kinds() that are RBD, or
// that are not.
func trainerKinds(rbd bool) []transport.Kind {
	var ks []transport.Kind
	for _, k := range transport.Kinds() {
		if (k == transport.RBD) == rbd {
			ks = append(ks, k)
		}
	}
	return ks
}

// trainerConfig is the matrix's blocking stage-0 trainer of kind at chunks
// (RBD's spans two nodes).
func trainerConfig(kind transport.Kind, chunks int) DistConfig {
	if kind == transport.RBD {
		return rbdTrainerConfig(chunks)
	}
	return distTrainerConfig(kind.String(), chunks)
}

// trainerMatrix runs the chunk × ZeRO cells of kinds against the C=1
// stage-0 one-bucket reference: with zero unset the chunked stage-0
// one-bucket cells (C 2 and 4), with zero set every cell with a ZeRO stage
// or a bucket cut (C 1, 2 and 4).
func trainerMatrix(t *testing.T, kinds []transport.Kind, zero bool) {
	for _, kind := range kinds {
		for _, momentum := range []float64{0, 0.9} {
			cell := func(chunks, stage int, bucket int64) DistConfig {
				cfg := trainerConfig(kind, chunks)
				cfg.ZeROStage, cfg.BucketBytes, cfg.Momentum = stage, bucket, momentum
				return cfg
			}
			refLoss, refTr := runSteps(t, cell(1, 0, 0), matrixSteps)
			for _, chunks := range []int{1, 2, 4} {
				for _, stage := range []int{0, 1, 2} {
					for _, bucket := range []int64{0, 16, 4} {
						if (stage == 0 && bucket == 0) == zero || (!zero && chunks == 1) {
							continue
						}
						name := fmt.Sprintf("%v/c%d/zero%d-b%d/m%v", kind, chunks, stage, bucket, momentum)
						t.Run(name, func(t *testing.T) {
							loss, tr := runSteps(t, cell(chunks, stage, bucket), matrixSteps)
							assertSameTraining(t, name, refLoss, loss, refTr, tr)
						})
					}
				}
			}
		}
	}
}

// checkpointResume runs each kind's ckpt-resume cell: a C=2 trainer
// restored from the checkpoint at step matrixSteps must replay the
// uninterrupted run's next matrixSteps steps, then roll back to it and
// replay them again.
func checkpointResume(t *testing.T, kinds []transport.Kind) {
	for _, kind := range kinds {
		t.Run(kind.String()+"/ckpt-resume", func(t *testing.T) {
			cfg := trainerConfig(kind, 2)
			_, ref := runSteps(t, cfg, matrixSteps)
			ck := ref.Checkpoint()
			if ck.Step != matrixSteps {
				t.Fatalf("checkpoint at step %d, want %d", ck.Step, matrixSteps)
			}
			tail := trainSteps(t, ref, matrixSteps)
			b, err := NewDistTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 2; round++ { // resume, then roll back past the checkpoint and replay
				if err := b.Restore(ck); err != nil {
					t.Fatal(err)
				}
				assertSameTraining(t, fmt.Sprintf("restore %d", round), tail, trainSteps(t, b, matrixSteps), ref, b)
			}
		})
	}
}

// growShrink runs each kind's grow-shrink cell: train, shrink to half the
// world, restore, train, grow back, restore, train — the same blocking and
// at C=4.
func growShrink(t *testing.T, kinds []transport.Kind) {
	for _, kind := range kinds {
		t.Run(kind.String()+"/grow-shrink", func(t *testing.T) {
			cycle := func(chunks int) ([]float64, *DistTrainer) {
				cfg := trainerConfig(kind, chunks)
				losses, tr := runSteps(t, cfg, matrixSteps)
				ck := tr.Checkpoint()
				if err := tr.Resize(cfg.World / 2); err != nil {
					t.Fatal(err)
				}
				if err := tr.Restore(ck); err != nil {
					t.Fatal(err)
				}
				losses = append(losses, trainSteps(t, tr, matrixSteps)...)
				ck2 := tr.Checkpoint()
				if len(ck2.DataRNG) != cfg.World/2 {
					t.Fatalf("shrunk checkpoint has %d rank slots, want %d", len(ck2.DataRNG), cfg.World/2)
				}
				if err := tr.Resize(cfg.World); err != nil {
					t.Fatal(err)
				}
				if err := tr.Restore(ck2); err != nil {
					t.Fatal(err)
				}
				return append(losses, trainSteps(t, tr, matrixSteps)...), tr
			}
			blockLoss, blockTr := cycle(1)
			chunkLoss, chunkTr := cycle(4)
			if w := trainerConfig(kind, 1).World; blockTr.Cfg.World != w {
				t.Fatalf("final world %d, want %d after the regrow", blockTr.Cfg.World, w)
			}
			assertSameTraining(t, "blocking vs C=4", blockLoss, chunkLoss, blockTr, chunkTr)
		})
	}
}

func TestDistTrainerChunkedBitIdentical(t *testing.T) {
	trainerMatrix(t, trainerKinds(false), false)
}

func TestDistTrainerRBDChunkedBitIdentical(t *testing.T) {
	trainerMatrix(t, trainerKinds(true), false)
}

func TestDistTrainerZeROBitIdentical(t *testing.T) {
	trainerMatrix(t, trainerKinds(false), true)
}

func TestDistTrainerRBDZeROBitIdentical(t *testing.T) {
	trainerMatrix(t, trainerKinds(true), true)
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	checkpointResume(t, trainerKinds(false))
}

func TestDistTrainerRBDCheckpointResumeBitIdentical(t *testing.T) {
	checkpointResume(t, trainerKinds(true))
}

func TestGrowShrinkCycleBitIdentical(t *testing.T) {
	growShrink(t, trainerKinds(false))
}

func TestDistTrainerRBDShrinkCycleDeterministic(t *testing.T) {
	growShrink(t, trainerKinds(true))
}

// poisonArenas fills every rank arena of c with NaN: on each rank it takes
// depth buffers of every bucket up to 1<<maxBucket elements (recycled ones
// first, then fresh), fills them with NaN and puts them all back, so the
// next step reads NaN from any pooled buffer it reads before writing.
func poisonArenas(t *testing.T, c *simrt.Cluster, maxBucket, depth int) {
	t.Helper()
	nan := float32(math.NaN())
	err := c.Run(func(r *simrt.Rank) error {
		pool := r.Pool()
		held := make([]*tensor.Tensor, 0, depth)
		for b := 0; b <= maxBucket; b++ {
			for range depth {
				buf := pool.Get(1 << b)
				buf.Fill(nan)
				held = append(held, buf)
			}
			pool.PutAll(held...)
			held = held[:0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistTrainerPoisonedArenasBitIdentical runs each transport's ZeRO-1
// momentum cells at C=1 (whose dispatch sends views of the arena's
// buffers) and C=2 on arenas poisoned with NaN before every step, each
// against a clean run on allocate-fresh buffers: a step that reads a
// pooled buffer before writing it reads NaN, or what an earlier pass of
// the step left there, where the clean run reads zeros. The matrix
// trainers' buffers are all under 1<<13 elements, and a step holds at
// most 16 of one bucket at once.
func TestDistTrainerPoisonedArenasBitIdentical(t *testing.T) {
	for _, kind := range transport.Kinds() {
		for _, chunks := range []int{1, 2} {
			name := fmt.Sprintf("%v/c%d/zero1/m0.9", kind, chunks)
			t.Run(name, func(t *testing.T) {
				cfg := trainerConfig(kind, chunks)
				cfg.ZeROStage, cfg.Momentum = 1, 0.9
				trainer := func() *DistTrainer {
					tr, err := NewDistTrainer(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return tr
				}
				clean := trainer()
				clean.cluster.DisablePools = true
				loss := trainSteps(t, clean, matrixSteps)
				tr := trainer()
				poisoned := make([]float64, matrixSteps)
				for i := range poisoned {
					poisonArenas(t, tr.cluster, 13, 16)
					poisoned[i] = trainSteps(t, tr, 1)[0]
				}
				assertSameTraining(t, name, loss, poisoned, clean, tr)
			})
		}
	}
}

// TestMoEFFNSteadyStateDeterministic pins the pooled training block: with
// identical inputs and weights, a steady-state pass (whose transport
// intermediates are all recycled rank-arena buffers) must be
// bit-identical to the first pass of a freshly constructed block on a
// fresh cluster.
func TestMoEFFNSteadyStateDeterministic(t *testing.T) {
	cfg := moe.Config{
		NumExperts:     8,
		TopK:           2,
		HModel:         16,
		HFFN:           12,
		CapacityFactor: 1.25,
		BytesPerElem:   2,
	}
	x := tensor.Randn(tensor.NewRNG(2), 1, 24, cfg.HModel)
	dy := tensor.Randn(tensor.NewRNG(3), 1, 24, cfg.HModel)

	pass := func(c *simrt.Cluster, ffn *MoEFFN) (*tensor.Tensor, *tensor.Tensor, []*tensor.Tensor) {
		var out, dx *tensor.Tensor
		onRank(t, c, func(r *simrt.Rank) {
			out = ffn.Forward(r, x)
			dx = ffn.Backward(r, dy)
		})
		grads := make([]*tensor.Tensor, 0, 2*cfg.NumExperts+1)
		for _, p := range ffn.Params() {
			grads = append(grads, p.G.Clone())
			p.ZeroGrad()
		}
		return out.Clone(), dx.Clone(), grads
	}

	refC := oneRank()
	wantOut, wantDX, wantG := pass(refC, NewMoEFFN(tensor.NewRNG(11), refC, cfg, moe.DropByCapacityWeight))

	c := oneRank()
	ffn := NewMoEFFN(tensor.NewRNG(11), c, cfg, moe.DropByCapacityWeight)
	var out, dx *tensor.Tensor
	var grads []*tensor.Tensor
	for i := 0; i < 4; i++ { // 4th pass runs fully on recycled buffers
		out, dx, grads = pass(c, ffn)
	}

	eq := func(name string, a, b *tensor.Tensor) {
		t.Helper()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s: bit mismatch at %d: %v vs %v", name, i, a.Data[i], b.Data[i])
			}
		}
	}
	eq("output", wantOut, out)
	eq("dX", wantDX, dx)
	for i := range wantG {
		eq("grad", wantG[i], grads[i])
	}
}
